"""Spans and counters for the traced run.

The traced run wraps the public functions of each layer from outside the
program: every place a function is bound (``from ... import`` copies the
name into the importing module) is patched, and methods are patched on
their class. Spans stay in memory; ``Tracer.write`` stores them when the
run ends. A span's self time is its duration minus the time its direct
child spans cover (calls are strictly nested: one thread, one client).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, defining module, attribute). Plain functions are patched in
#: every module that binds them; ``Class.method`` names on their class.
TRACED = (
    ("dssearch.enumerate_space", "repro.core.dssearch", "enumerate_space"),
    ("dssearch.discretize", "repro.core.dssearch", "discretize"),
    ("dssearch.interior_edge_counts", "repro.core.dssearch", "interior_edge_counts"),
    ("dssearch.split", "repro.core.dssearch", "split"),
    ("dssearch.ds_search", "repro.core.dssearch", "ds_search"),
    ("aggregators.prepare", "repro.core.aggregators", "CompositeAggregator.prepare"),
    ("aggregators.bounds_from_sums", "repro.core.aggregators", "Prepared.bounds_from_sums"),
    ("aggregators.rep_from_sums", "repro.core.aggregators", "Prepared.rep_from_sums"),
    ("reduction.build_asp", "repro.core.reduction", "build_asp"),
    ("reduction.overlapping", "repro.core.reduction", "ASPProblem.overlapping"),
    ("gridindex.build_grid_index", "repro.core.gridindex", "build_grid_index"),
    ("gridindex.candidate_cell_bounds", "repro.core.gridindex", "candidate_cell_bounds"),
    ("gridindex.gi_ds", "repro.core.gridindex", "gi_ds"),
    ("spark.build_grid_index_spark", "repro.spark.summaries", "build_grid_index_spark"),
    ("spark.edge_accuracies", "repro.spark.search", "edge_accuracies"),
    ("spark.explode_to_candidate_cells", "repro.spark.cellify", "explode_to_candidate_cells"),
    ("spark.gi_ds_distributed", "repro.spark.search", "gi_ds_distributed"),
)

#: Globals of the ``applyInPandas`` kernel in ``gi_ds_distributed``.
#: cloudpickle ships a function by reference only while its home module
#: still holds it, so wrapping these names in their home module or in
#: ``repro.spark.search`` would ship the wrapper (and the tracer) into
#: the Python workers, whose spans are lost. They are traced only where
#: the driver-side GI-DS binds them.
KERNEL_GLOBALS = ("ds_search", "build_asp")
KERNEL_MODULE = "repro.spark.search"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, query id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.query_id: int | None = None
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep_result: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, tracer.query_id]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if keep_result:
                tracer.kept[name].append(out)
            return out

        return traced

    @contextmanager
    def query(self, query_id: int):
        self.query_id = query_id
        try:
            yield
        finally:
            self.query_id = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (ms) and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            ms[name] += (t1 - t0 - c) * 1000.0
            calls[name] += 1
        return ms, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, qid in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, qid]) + "\n")


def _resolve(module: str, attr: str):
    """``(owner, name, original)`` or ``None`` when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


@contextmanager
def patched(tracer: Tracer, keep_results: tuple[str, ...] = ()):
    """Wrap every traced function for the duration of the block.

    A function that no longer exists is recorded in ``tracer.absent``.
    """
    # Resolve (and so import) every target before patching any: a module
    # imported mid-way would bind an already patched name, and keep it.
    targets = [(span, module, attr, _resolve(module, attr)) for span, module, attr in TRACED]
    undo: list[tuple[object, str, object]] = []
    try:
        for span, module, attr, found in targets:
            if found is None:
                tracer.absent.add(span)
                continue
            owner, name, fn = found
            wrapper = tracer.wrap(span, fn, keep_result=span in keep_results)
            if "." in attr:
                undo.append((owner, name, fn))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or vars(mod).get(name) is not fn:
                    continue
                if name in KERNEL_GLOBALS and mod_name in (module, KERNEL_MODULE):
                    continue
                undo.append((mod, name, fn))
                setattr(mod, name, wrapper)
        yield tracer
    finally:
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)
