"""The benchmark's three query workloads and their answer checks.

Every workload answers a fixed batch of F1/F2 queries (the paper's
composite aggregators, ``repro.workloads``) over one synthetic object
table. The table (dataset seed ``DATA_SEED``) and the query sizes are
the same on every run; the run's ``--seed`` draws the order of each
batch. Runs with different seeds therefore measure the same work: with
the table drawn from the seed too, the per-seed batch time of
``tweet-exact`` ranged from 10.9 s to 33.2 s over seeds 1-5, far wider
than any bound a regression check could use.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from repro.core import gridindex
from repro.core.distance import weighted_l1
from repro.core.geometry import Space
from repro.core.reduction import query_representation
from repro.synth_data import poisyn_pdf, tweets_pdf
from repro.workloads import f1_aggregator, f1_query, f2_aggregator, f2_query, query_size

DATA_SEED = 7
#: Set-ups per run on the driver workloads; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Relative tolerance for comparing distances: the same representation
#: summed in another order can differ in the last digits.
REL_TOL = 1e-9

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Query:
    k: float  # size in the paper's query unit q
    a: float
    b: float
    qrep: np.ndarray
    weights: np.ndarray


@dataclass
class Outcome:
    query: int  # index into the workload's batch
    latency_s: float
    dist: float = math.nan
    region: Space | None = None
    stats: object = None
    error: str | None = None


def make_queries(objects, query_fn, sizes) -> list[Query]:
    out = []
    for k in sizes:
        a, b = query_size(objects, float(k))
        qrep, w = query_fn(objects, a, b)
        out.append(Query(float(k), a, b, qrep, w))
    return out


def fingerprint(objects, queries: list[Query]) -> str:
    """Hash of the object table and the query batch the references hold for."""
    h = hashlib.sha256()
    for col in objects.columns:
        h.update(col.encode())
        h.update(np.ascontiguousarray(objects[col].to_numpy()).tobytes())
    for q in queries:
        h.update(np.array([q.k, q.a, q.b]).tobytes())
        h.update(q.qrep.tobytes())
        h.update(q.weights.tobytes())
    return h.hexdigest()


def check_answer(objects, F, q: Query, dist: float, region: Space, d_ref: float, delta: float):
    """``(ok, ratio, reason)`` for one answer.

    The returned region's representation is recomputed from the raw
    objects and must give the reported distance; the distance must equal
    the reference optimum (``delta == 0``) or lie within
    ``[d_ref, (1 + delta) * d_ref]`` (Theorem 3).
    """
    rep = query_representation(objects, F, region)
    d_rep = float(weighted_l1(rep, q.qrep, q.weights))
    ratio = dist / d_ref if d_ref > 0 else (1.0 if dist == 0 else math.inf)
    if not math.isclose(d_rep, dist, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return False, ratio, f"reported {dist!r}, region has {d_rep!r}"
    lo = d_ref * (1 - REL_TOL) - REL_TOL
    hi = (1 + delta) * d_ref * (1 + REL_TOL) + REL_TOL
    if not lo <= dist <= hi:
        return False, ratio, f"distance {dist!r} outside [{lo!r}, {hi!r}] of optimum {d_ref!r}"
    return True, ratio, ""


class DriverWorkload:
    """GI-DS on the driver over a pre-built grid index (``gi_ds``)."""

    def __init__(self, name, make_objects, n, aggregator, query_fn, sizes, grid, delta, ref_grid):
        self.name = name
        self.objects = make_objects(n, DATA_SEED)
        self.F = aggregator()
        self.queries = make_queries(self.objects, query_fn, sizes)
        self.grid, self.delta, self.ref_grid = grid, delta, ref_grid
        self.index = None
        self._ref_index = None

    def setup(self) -> float:
        """Build the index ``SETUP_REPEATS`` times; the median build time."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.index = gridindex.build_grid_index(self.objects, self.F, self.grid, self.grid)
            times.append(time.perf_counter() - t0)
        return median(times)

    def setup_traced(self) -> None:
        self.index = gridindex.build_grid_index(self.objects, self.F, self.grid, self.grid)

    def answer(self, q: Query):
        d, (px, py), stats = gridindex.gi_ds(
            self.objects, self.F, q.qrep, q.weights, q.a, q.b,
            index=self.index, delta=self.delta,
        )
        return d, Space(px, px + q.a, py, py + q.b), stats

    def compute_reference(self, q: Query) -> float:
        if self._ref_index is None:
            self._ref_index = gridindex.build_grid_index(
                self.objects, self.F, self.ref_grid, self.ref_grid
            )
        d, _, _ = gridindex.gi_ds(
            self.objects, self.F, q.qrep, q.weights, q.a, q.b, index=self._ref_index
        )
        return float(d)

    def references(self, cache_dir: Path) -> list[float]:
        """Reference optima for the batch: the committed table when it
        holds for these inputs, else computed once and cached."""
        fp = fingerprint(self.objects, self.queries)
        cached = cache_dir / f"references-{self.name}-{fp[:16]}.json"
        for path in (REFERENCES, cached):
            if path.is_file():
                entry = json.loads(path.read_text()).get(self.name, {})
                if entry.get("fingerprint") == fp:
                    return entry["optima"]
        optima = [self.compute_reference(q) for q in self.queries]
        cache_dir.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps({self.name: self.reference_entry(fp, optima)}))
        return optima

    def reference_entry(self, fp: str, optima: list[float]) -> dict:
        return {
            "fingerprint": fp,
            "method": f"exact gi_ds on a {self.ref_grid}x{self.ref_grid} index",
            "sizes_q": [q.k for q in self.queries],
            "optima": optima,
        }

    def traced_counters(self, stats, tracer) -> dict[str, float]:
        """Counters of one query; one the program no longer keeps reads 0."""
        ds = getattr(stats, "ds", None)
        return {
            **{f: getattr(stats, f, 0) for f in ("searched_cells", "total_cells", "index_bytes")},
            **{f: getattr(ds, f, 0) for f in SEARCH_COUNTERS},
        }

    def before_query(self, qid: int) -> None:
        pass

    def close(self) -> None:
        pass


SEARCH_COUNTERS = (
    "spaces_processed", "cells_seen", "clean_cells", "dirty_pruned",
    "drop_events", "enum_spaces", "points_evaluated",
)


def tweet_exact(n: int = 200_000, sizes=tuple(np.linspace(1, 15, 12))) -> DriverWorkload:
    return DriverWorkload(
        "tweet-exact", tweets_pdf, n, f1_aggregator, f1_query, sizes,
        grid=128, delta=0.0, ref_grid=64,
    )


def poisyn_approx(n: int = 1_000_000, sizes=tuple(np.linspace(0.5, 8, 10))) -> DriverWorkload:
    return DriverWorkload(
        "poisyn-approx", poisyn_pdf, n, f2_aggregator, f2_query, sizes,
        grid=256, delta=0.2, ref_grid=128,
    )


class SparkWorkload:
    """``gi_ds_distributed`` over a cached DataFrame with no pre-built
    index, as ``jobs/run_asrs.py`` runs it: every query builds the index
    on Spark."""

    delta = 0.0
    grid = 64

    def __init__(self, n: int = 20_000, sizes=(2.0, 4.0, 7.0, 10.0), warmup_sizes=(5.0,)):
        self.name = "spark-cold"
        self.objects = tweets_pdf(n, DATA_SEED)
        self.F = f1_aggregator()
        self.queries = make_queries(self.objects, f1_query, sizes)
        self.warmup = make_queries(self.objects, f1_query, warmup_sizes)
        self.session = None
        self._gateway = None

    def setup(self) -> float:
        """Session start, DataFrame cache and an untimed warm-up query,
        at a size not in the batch: in a fresh session the first query
        takes about three times as long as later ones."""
        from sparkenv import start_session

        t0 = time.perf_counter()
        self.session = start_session(HERE / ".work")
        self._gateway = self.session.sparkContext._gateway
        self.sdf = self.session.createDataFrame(self.objects).cache()
        self.sdf.count()
        for q in self.warmup:
            self.answer(q)
        return time.perf_counter() - t0

    def setup_traced(self) -> None:
        pass

    def answer(self, q: Query):
        from repro.spark import search

        d, (px, py), stats = search.gi_ds_distributed(
            self.sdf, self.F, q.qrep, q.weights, q.a, q.b,
            sx=self.grid, sy=self.grid, delta=self.delta,
        )
        return d, Space(px, px + q.a, py, py + q.b), stats

    def references(self, cache_dir: Path) -> list[float]:
        """Driver ``gi_ds`` on the same table: a separate exact path."""
        out = []
        for q in self.queries:
            d, _, _ = gridindex.gi_ds(
                self.objects, self.F, q.qrep, q.weights, q.a, q.b, sx=self.grid, sy=self.grid
            )
            out.append(float(d))
        return out

    def before_query(self, qid: int) -> None:
        self.session.sparkContext.setJobGroup(f"query-{qid}", "benchmark query")

    def traced_counters(self, stats, tracer) -> dict[str, float]:
        sc = self.session.sparkContext
        st = sc.statusTracker()
        group = sc.getLocalProperty("spark.jobGroup.id")
        jobs = st.getJobIdsForGroup(group)
        tasks = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in info.stageIds if info else ():
                stage = st.getStageInfo(s)
                tasks += stage.numCompletedTasks if stage else 0
        sc.setJobGroup("benchmark-counters", "row counts outside the query")
        exploded = sum(df.count() for df in tracer.kept.pop("spark.explode_to_candidate_cells", []))
        return {
            **{f: getattr(stats, f, 0) for f in ("candidate_cells", "total_cells", "index_bytes")},
            "jobs": len(jobs),
            "tasks": tasks,
            "exploded_rows": exploded,
        }

    def close(self) -> None:
        """Stop the session and wait for the JVM (and its Python workers) to exit."""
        if self.session is not None:
            self.session.stop()
            self.session = None
        if self._gateway is not None:
            from sparkenv import stop_gateway

            stop_gateway(self._gateway)
            self._gateway = None


WORKLOADS = {
    "tweet-exact": tweet_exact,
    "poisyn-approx": poisyn_approx,
    "spark-cold": SparkWorkload,
}
