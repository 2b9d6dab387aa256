"""Distributed GI-DS: the parallel candidate-region scan.

Dataflow (the ``distributed_dataflow`` shape of the reproduction):

1. **Index build** (Spark): per-partition channel planes summed with a
   ``groupBy``; the driver takes the suffix summaries (``spark.summaries``).
2. **Prune** (driver): Section-5.3 lower bounds for every candidate
   cell from the collected summary planes — O(sx*sy) NumPy work.
3. **Shares** (driver): the cells whose bound is below the empty-region
   distance over ``(1+delta)``, sorted by bound and dealt round-robin
   to P tasks, P = ``defaultParallelism`` — a small
   ``(ci, cj, rank, task)`` table.
4. **Parallel scan** (Spark): objects are exploded to the candidate
   cells (``cellify``), joined with the broadcast share table, and
   grouped by task into P partitions. Each ``applyInPandas`` task runs Algorithm 2 over
   its share: it walks its cells in rank order, stops at the first
   cell with ``lb >= d/(1+delta)``, and carries its own incumbent ``d``
   from cell to cell. A cell search only needs the objects exploded to
   it (rectangles not overlapping a cell cannot cover any of its
   locations — the paper's locality property), so each task is an exact
   Algorithm-2 scan of its share and the minimum over the tasks is the
   exact answer (within (1+delta) when ``delta > 0``).

Divergence from the sequential Algorithm 2, by design: the sequential
scan threads one incumbent ``dopt`` through all cells, while here each
task threads its own through its share. A task may search a cell that
another task's incumbent would have pruned, so the P tasks together
search somewhat more cells than the sequential loop; wall-clock
parallelism replaces that sharing. At ``delta = 0`` the result is
identical (tested against the driver implementation and brute force).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator
from repro.core.distance import weighted_l1
from repro.core.dssearch import ds_search
from repro.core.gridindex import GridIndex, candidate_cell_bounds
from repro.core.reduction import build_asp
from repro.spark.cellify import explode_to_candidate_cells
from repro.spark.summaries import build_grid_index_spark

_RESULT_SCHEMA = "task long, dist double, px double, py double, cells long"


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
    #: cells the tasks searched
    candidate_cells: int = 0
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
    stats = DistributedStats(total_cells=len(lbs), index_bytes=index.nbytes)

    # the cells that may beat the empty region, in bound order, dealt
    # round-robin to the tasks
    order = np.argsort(lbs, kind="stable")
    order = order[lbs[order] < empty_dist / (1.0 + delta)]
    if len(order) == 0:
        return empty_dist, far_pt, stats
    n_tasks = spark.sparkContext.defaultParallelism
    rank = np.arange(len(order))
    shares = spark.createDataFrame(
        pd.DataFrame(
            {"ci": ii[order], "cj": jj[order], "rank": rank, "task": rank % n_tasks}
        ).astype("int64")
    )
    rank_lb = lbs[order]
    rank_cell = [index.cell_space(i, j) for i, j in zip(ii[order], jj[order])]

    mi = max(0, -int(ii.min()))
    mj = max(0, -int(jj.min()))
    exploded = explode_to_candidate_cells(
        df, a, b, index.x0, index.y0, index.cw, index.ch, index.sx, index.sy, mi, mj
    )
    tasks = exploded.join(sf.broadcast(shares), ["ci", "cj"], "inner")

    # Algorithm 2 over one task's share: cells in bound order, the
    # incumbent carried from cell to cell, stop at the first pruned cell.
    # No type hints: partial hints make PySpark warn that it cannot infer
    # the eval type; without any it uses the grouped-map UDF directly.
    def kernel(key, pdf):
        d, pt, searched = empty_dist, (np.nan, np.nan), 0
        for r, rows in pdf.groupby("rank", sort=True):
            if rank_lb[r] >= d / (1.0 + delta):
                break
            prob = build_asp(
                rows.drop(columns=["ci", "cj", "rank", "task"]), F, query_rep, weights,
                a, b, accuracy=(dx, dy),
            )
            d, pt, _ = ds_search(
                prob, rank_cell[r], ncol=ncol, nrow=nrow, delta=delta, init=(d, pt)
            )
            searched += 1
        return pd.DataFrame(
            [[int(key[0]), d, pt[0], pt[1], searched]],
            columns=["task", "dist", "px", "py", "cells"],
        )

    # Without the explicit repartition, adaptive execution coalesces the
    # small shuffle into one partition and the shares run one after another.
    results = (
        tasks.repartition(n_tasks, "task")
        .groupBy("task")
        .applyInPandas(kernel, _RESULT_SCHEMA)
        .toPandas()
    )
    stats.candidate_cells = int(results["cells"].sum())
    if len(results):
        best = results.loc[results["dist"].idxmin()]
        if best["dist"] < empty_dist:
            return float(best["dist"]), (float(best["px"]), float(best["py"])), stats
    return empty_dist, far_pt, stats
