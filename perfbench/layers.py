"""Per-layer metrics of the traced run, from spans and per-query counters.

Every ``.ms`` metric is total self time over the traced batch and every
``.calls`` metric a call count. A layer that does not run on a workload
reports 0.
"""
from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from workloads import SEARCH_COUNTERS

#: Spans reported with both self time and call count.
TIMED_AND_COUNTED = (
    "dssearch.enumerate_space",
    "dssearch.discretize",
    "aggregators.prepare",
    "aggregators.bounds_from_sums",
    "aggregators.rep_from_sums",
    "reduction.build_asp",
    "reduction.overlapping",
)
#: Spans reported with self time only.
TIMED = (
    "dssearch.interior_edge_counts",
    "dssearch.split",
    "gridindex.build_grid_index",
    "gridindex.candidate_cell_bounds",
    "spark.build_grid_index_spark",
    "spark.edge_accuracies",
)


def spark_phases(tracer) -> tuple[float, float]:
    """``(seed_ms, scan_ms)`` summed over ``gi_ds_distributed`` calls.

    The seed runs from the end of ``candidate_cell_bounds`` to the start
    of ``explode_to_candidate_cells`` (or to the end of the query when no
    cell is left to scan). The scan runs from the end of the explode to
    the end of the query: the lazy join and ``applyInPandas`` plan and
    the collect of its result.
    """
    children = defaultdict(list)
    for name, t0, t1, parent, _ in tracer.spans:
        if parent is not None:
            children[parent].append((name, t0, t1))
    seed = scan = 0.0
    for sid, (name, _, end, _, _) in enumerate(tracer.spans):
        if name != "spark.gi_ds_distributed":
            continue
        kids = {n: (t0, t1) for n, t0, t1 in children[sid]}
        if "gridindex.candidate_cell_bounds" not in kids:
            continue
        bounds_end = kids["gridindex.candidate_cell_bounds"][1]
        explode = kids.get("spark.explode_to_candidate_cells")
        seed += (explode[0] if explode else end) - bounds_end
        if explode:
            scan += end - explode[1]
    return seed * 1000.0, scan * 1000.0


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def layer_metrics(tracer, counters: list[dict], traced_qps: float, untraced_qps: float, src: Path) -> dict:
    ms, calls = tracer.self_times()
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    def total(key: str) -> float:
        return sum(c.get(key, 0) for c in counters)

    for span in TIMED_AND_COUNTED:
        put(f"{span}.ms", ms.get(span, 0.0), "ms")
        put(f"{span}.calls", calls.get(span, 0), "count")
    for span in TIMED:
        put(f"{span}.ms", ms.get(span, 0.0), "ms")
    put("dssearch.ds_search.self_ms", ms.get("dssearch.ds_search", 0.0), "ms")
    put("dssearch.ds_search.calls", calls.get("dssearch.ds_search", 0), "count")
    put("gridindex.gi_ds.self_ms", ms.get("gridindex.gi_ds", 0.0), "ms")

    for field in SEARCH_COUNTERS:
        put(f"dssearch.{field}", total(field), "count")
    cells, clean = total("cells_seen"), total("clean_cells")
    put("dssearch.clean_frac", clean / cells if cells else 0.0, "ratio")
    dirty = cells - clean
    put("dssearch.pruned_frac", total("dirty_pruned") / dirty if dirty else 0.0, "ratio")

    all_cells = total("total_cells")
    put("gridindex.searched_cells", total("searched_cells"), "count")
    put("gridindex.total_cells", all_cells, "count")
    put("gridindex.searched_ratio", total("searched_cells") / all_cells if all_cells else 0.0, "ratio")
    put("gridindex.index_bytes", max((c.get("index_bytes", 0) for c in counters), default=0), "B")

    seed_ms, scan_ms = spark_phases(tracer)
    put("spark.seed.ms", seed_ms, "ms")
    put("spark.scan.ms", scan_ms, "ms")
    put("spark.candidate_cells", total("candidate_cells"), "count")
    put("spark.candidate_ratio", total("candidate_cells") / all_cells if all_cells else 0.0, "ratio")
    put("spark.jobs", total("jobs"), "count")
    put("spark.tasks", total("tasks"), "count")
    put("spark.exploded_rows", total("exploded_rows"), "count")

    put("repo.src_loc", src_lines(src), "lines")
    put("trace.qps", traced_qps, "queries/s")
    put("trace.untraced_qps", untraced_qps, "queries/s")
    put("trace.overhead", untraced_qps / traced_qps - 1.0, "fraction")
    put("trace.spans", len(tracer.spans), "count")
    return out
