"""Distributed GI-DS: the parallel candidate-region scan.

Dataflow (the ``distributed_dataflow`` shape of the reproduction):

1. **Index build** (Spark): per-partition channel planes summed with a
   ``groupBy``; the driver takes the suffix summaries (``spark.summaries``).
2. **Prune** (driver): Section-5.3 lower bounds for every candidate
   cell from the collected summary planes — O(sx*sy) NumPy work.
3. **Seed** (driver): run DS-Search on the single most promising cell
   (its objects fetched with one filter) to obtain an incumbent
   distance ``d_seed``.
4. **Parallel scan** (Spark): objects are exploded to the surviving
   candidate cells (``cellify``), grouped by cell, and each group runs
   the DS-Search kernel inside an ``applyInPandas`` task seeded with
   ``d_seed``. Every task is an independent, exact cell-restricted
   search (rectangles not overlapping a cell cannot cover any of its
   locations — the paper's locality property), so the global minimum of
   the task results and the seed is the exact answer.

Divergence from the sequential Algorithm 2, by design: the sequential
scan threads a monotonically improving ``dopt`` through the cells,
while the parallel scan fixes the seed bound for all tasks. That may
search more cells than strictly necessary, but wall-clock parallelism
replaces the sequential short-circuit; the result is identical (tested
against the driver implementation and brute force).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator
from repro.core.distance import weighted_l1
from repro.core.dssearch import ds_search
from repro.core.geometry import Space
from repro.core.gridindex import GridIndex, candidate_cell_bounds
from repro.core.reduction import build_asp
from repro.spark.cellify import explode_to_candidate_cells
from repro.spark.summaries import build_grid_index_spark

_RESULT_SCHEMA = (
    "ci long, cj long, dist double, px double, py double, spaces long"
)


def edge_accuracies(df: DataFrame, a: float, b: float) -> tuple[float, float]:
    """GPS horizontal/vertical accuracies (Definition 7) as a Spark job:
    min positive gap between distinct rectangle-edge coordinates, via a
    lag window over the sorted distinct values. (The single-partition
    window is acceptable: there are at most 2n distinct edge values.)"""

    def gap(col: str, shift: float) -> float:
        edges = (
            df.select(sf.col(col).cast("double").alias("v"))
            .union(df.select((sf.col(col) - sf.lit(shift)).cast("double").alias("v")))
            .distinct()
        )
        w = Window.orderBy("v")
        g = (
            edges.withColumn("prev", sf.lag("v").over(w))
            .select((sf.col("v") - sf.col("prev")).alias("g"))
            .where(sf.col("g") > 0)
            .agg(sf.min("g"))
            .collect()[0][0]
        )
        return float(g) if g is not None else float("inf")

    return gap("x", a), gap("y", b)


@dataclass
class DistributedStats:
    """Driver-side counters for the distributed scan."""

    total_cells: int = 0
    candidate_cells: int = 0
    seed_dist: float = float("inf")
    index_bytes: int = 0


def gi_ds_distributed(
    df: DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    sx: int = 64,
    sy: int = 64,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    index: GridIndex | None = None,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], DistributedStats]:
    """Exact (or, with ``delta > 0``, (1+delta)-approximate) ASRS over a
    Spark DataFrame of objects. Returns ``(dopt, popt, stats)``."""
    spark = df.sparkSession
    query_rep = np.asarray(query_rep, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if index is None:
        index, F = build_grid_index_spark(df, F, sx, sy)
    else:
        from repro.spark.aggregates import resolve_domains

        F = resolve_domains(df, F)
    dx, dy = accuracy if accuracy is not None else edge_accuracies(df, a, b)

    ii, jj, lbs = candidate_cell_bounds(index, query_rep, weights, a, b)
    empty_dist = float(weighted_l1(index.prepared.empty_rep(), query_rep, weights))
    far_pt = (index.x0 + (index.sx + 1) * index.cw + a, index.y0 + (index.sy + 1) * index.ch + b)
    dopt, popt = empty_dist, far_pt
    stats = DistributedStats(total_cells=len(lbs), index_bytes=index.nbytes)

    def cell_space(i: int, j: int) -> Space:
        return Space(
            index.x0 + i * index.cw,
            index.x0 + (i + 1) * index.cw,
            index.y0 + j * index.ch,
            index.y0 + (j + 1) * index.ch,
        )

    def fetch_cell_objects(cell: Space) -> pd.DataFrame:
        cond = (
            (sf.col("x") > sf.lit(cell.x0))
            & (sf.col("x") - sf.lit(a) < sf.lit(cell.x1))
            & (sf.col("y") > sf.lit(cell.y0))
            & (sf.col("y") - sf.lit(b) < sf.lit(cell.y1))
        )
        return df.where(cond).toPandas()

    # --- seed: search the most promising cell on the driver -------------
    seed_c = int(np.argmin(lbs))
    if lbs[seed_c] < dopt / (1.0 + delta):
        cell = cell_space(int(ii[seed_c]), int(jj[seed_c]))
        local = fetch_cell_objects(cell)
        if len(local):
            prob = build_asp(local, F, query_rep, weights, a, b, accuracy=(dx, dy))
            dopt, popt, _ = ds_search(
                prob, cell, ncol=ncol, nrow=nrow, delta=delta,
                init=(dopt, popt), include_empty=False,
            )
    stats.seed_dist = dopt

    # --- parallel scan over the surviving cells -------------------------
    survive = lbs < dopt / (1.0 + delta)
    survive[seed_c] = False
    stats.candidate_cells = int(survive.sum())
    if stats.candidate_cells == 0:
        return dopt, popt, stats

    cand_pdf = pd.DataFrame(
        {"ci": ii[survive].astype("int64"), "cj": jj[survive].astype("int64")}
    )
    cand_sdf = spark.createDataFrame(cand_pdf)
    mi = max(0, -int(ii.min()))
    mj = max(0, -int(jj.min()))
    exploded = explode_to_candidate_cells(
        df, a, b, index.x0, index.y0, index.cw, index.ch, index.sx, index.sy, mi, mj
    )
    tasks = exploded.join(cand_sdf, ["ci", "cj"], "inner")

    x0, y0, cw, ch = index.x0, index.y0, index.cw, index.ch
    seed_dopt = dopt

    # no type hints: partial hints make PySpark warn that it cannot infer
    # the eval type; without any it uses the grouped-map UDF directly
    def kernel(key, pdf):
        i, j = int(key[0]), int(key[1])
        cell = Space(x0 + i * cw, x0 + (i + 1) * cw, y0 + j * ch, y0 + (j + 1) * ch)
        prob = build_asp(
            pdf.drop(columns=["ci", "cj"]), F, query_rep, weights, a, b,
            accuracy=(dx, dy),
        )
        d, (px, py), st = ds_search(
            prob, cell, ncol=ncol, nrow=nrow, delta=delta,
            init=(seed_dopt, (np.nan, np.nan)), include_empty=False,
        )
        return pd.DataFrame(
            [[i, j, d, px, py, st.spaces_processed]],
            columns=["ci", "cj", "dist", "px", "py", "spaces"],
        )

    results = tasks.groupBy("ci", "cj").applyInPandas(kernel, _RESULT_SCHEMA).toPandas()
    if len(results):
        k = int(results["dist"].idxmin())
        if results.loc[k, "dist"] < dopt:
            dopt = float(results.loc[k, "dist"])
            popt = (float(results.loc[k, "px"]), float(results.loc[k, "py"]))
    return dopt, popt, stats
