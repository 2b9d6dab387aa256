"""Grid-index attribute summaries built from per-partition channel planes.

The paper's attribute summary table of cell ``g(i,j)`` covers all
objects in ``G[i..inf][j..inf]`` — a 2-D suffix sum. The distributed
build shares every step that touches channels with the NumPy build
(``core.gridindex``): a few small jobs collect the global metadata (fD
domains, the object bounds, fA value ranges) into one
``prepare_meta`` layout; one ``mapInPandas`` pass then has each
partition compute ``channel_weights`` and bucket them into
``cell_planes``, emitting its non-empty cells as partial sums; a
``groupBy(cell).sum()`` adds the partials, and the driver collects at
most ``sx * sy`` rows and takes the suffix sums with
``index_from_planes``. The result is the ``GridIndex`` the driver-side
search uses — its planes equal the NumPy build's (the count plane
exactly) in the test suite.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator, prepare_meta
from repro.core.gridindex import GridIndex, cell_planes, index_from_planes
from repro.core.reduction import object_coords
from repro.spark.aggregates import gamma_cond, resolve_domains


def avg_spec_minmax(df: DataFrame, F: CompositeAggregator) -> dict[int, tuple[float, float]]:
    """Global [amin, amax] per fA spec (needed by its bound formula)."""
    exprs, keys = [], []
    for i, spec in enumerate(F.specs):
        if spec.kind == "avg":
            g = gamma_cond(spec.gamma)
            val = sf.when(g, sf.col(spec.attr).cast("double"))
            exprs += [sf.min(val).alias(f"mn_{i}"), sf.max(val).alias(f"mx_{i}")]
            keys.append(i)
    if not exprs:
        return {}
    row = df.agg(*exprs).collect()[0]
    return {
        i: (
            float(row[f"mn_{i}"]) if row[f"mn_{i}"] is not None else 0.0,
            float(row[f"mx_{i}"]) if row[f"mx_{i}"] is not None else 0.0,
        )
        for i in keys
    }


def build_grid_index_spark(
    df: DataFrame,
    F: CompositeAggregator,
    sx: int,
    sy: int,
    bounds: tuple[float, float, float, float] | None = None,
) -> tuple[GridIndex, CompositeAggregator]:
    """Distributed build of the Section-5 grid index.

    Returns ``(index, F_resolved)`` — the index (with a metadata-only
    ``Prepared``) and ``F`` with all fD domains resolved, which callers
    must use for any subsequent distributed work.

    Raises ``ValueError`` on NaN or infinite coordinates (Spark orders
    NaN above every value, so the bounds job sees them; with explicit
    ``bounds`` the partition tasks raise). An empty DataFrame gives an
    all-zero index.
    """
    F = resolve_domains(df, F)
    if bounds is None:
        r = df.agg(sf.min("x"), sf.max("x"), sf.min("y"), sf.max("y")).collect()[0]
        bounds = (0.0, 0.0, 0.0, 0.0) if r[0] is None else tuple(float(v) for v in r)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("object coordinates x/y must be finite (found NaN or inf)")
    meta = prepare_meta(F, minmax=avg_spec_minmax(df, F))
    cols = [f"c{k}" for k in range(meta.n_channels + 1)]

    def partial_planes(batches):
        planes = np.zeros((len(cols), sx * sy))
        for pdf in batches:
            x, y = object_coords(pdf)
            planes += cell_planes(x, y, meta.channel_weights(pdf), bounds, sx, sy)
        cells = np.flatnonzero(planes[-1])
        yield pd.DataFrame({"cell": cells, **dict(zip(cols, planes[:, cells]))})

    schema = ", ".join(["cell long"] + [f"{c} double" for c in cols])
    sums = df.mapInPandas(partial_planes, schema).groupBy("cell").sum(*cols).toPandas()
    planes = np.zeros((len(cols), sx * sy))
    planes[:, sums["cell"].to_numpy()] = sums[[f"sum({c})" for c in cols]].to_numpy().T
    return index_from_planes(planes, bounds, sx, sy, meta), F
