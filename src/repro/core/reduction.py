"""The ASRS -> ASP reduction (paper Section 4.1, Lemma 1 / Theorem 1).

Every spatial object ``o`` spawns an ``a x b`` rectangle whose top-right
corner sits at ``o``; a location ``p`` is covered by the rectangle iff
``o`` lies strictly inside the ``a x b`` region whose bottom-left corner
is ``p``. Finding the location with the representation closest to the
query representation (ASP) therefore solves ASRS.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, Prepared
from repro.core.distance import weighted_l1
from repro.core.geometry import Space


def object_coords(objects: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The objects' ``x``/``y`` columns as float arrays.

    Raises ``ValueError`` on NaN or infinite coordinates: a single one
    makes the search space (the rectangles' MBR) non-finite, and the
    searches would then silently return a wrong distance.
    """
    x = objects["x"].to_numpy(dtype=np.float64)
    y = objects["y"].to_numpy(dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("object coordinates x/y must be finite (found NaN or inf)")
    return x, y


def check_query(
    prepared: Prepared, query_rep, weights, a: float, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """The query representation and weights as float arrays, checked
    against the input contract of the public entry points.

    Raises ``ValueError`` unless ``a`` and ``b`` are finite and positive,
    ``query_rep`` and ``weights`` are finite and hold one entry per output
    dimension of ``prepared``, and no weight is negative (a negative
    weight voids Eq. 1's lower bound, Lemma 4).
    """
    for name, v in (("a", a), ("b", b)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"query size {name} must be finite and > 0, got {v!r}")
    q = np.asarray(query_rep, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    for name, v in (("query_rep", q), ("weights", w)):
        if v.shape != (prepared.out_dim,):
            raise ValueError(
                f"{name} must have length {prepared.out_dim} (the aggregator's "
                f"output dimension), got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite (found NaN or inf)")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    return q, w


def check_delta(delta: float) -> None:
    """Raise ``ValueError`` unless the approximation factor ``delta`` is >= 0."""
    if not delta >= 0:  # also rejects NaN
        raise ValueError(f"delta must be >= 0, got {delta!r}")


def min_gap(values: np.ndarray) -> float:
    """Minimum distance between distinct values (Definition 7).

    Returns ``inf`` for fewer than two distinct values.
    """
    u = np.unique(np.asarray(values, dtype=np.float64))
    if len(u) < 2:
        return float("inf")
    return float(np.diff(u).min())


@dataclass
class ASPProblem:
    """A reduced ASP instance: rectangles + prepared aggregator + query.

    ``x_lo/x_hi/y_lo/y_hi`` are the open rectangle extents (top-right
    corner at the source object, per the paper's reduction). ``prepared``
    carries the per-rectangle channel weights (rectangles inherit their
    source object's attributes). ``dx/dy`` are the GPS horizontal and
    vertical accuracies used by the drop condition.
    """

    a: float
    b: float
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    prepared: Prepared
    query_rep: np.ndarray
    weights: np.ndarray
    dx: float
    dy: float
    space: Space
    empty_dist: float = field(init=False)

    def __post_init__(self):
        self.empty_dist = float(
            weighted_l1(self.prepared.empty_rep(), self.query_rep, self.weights)
        )

    @property
    def n(self) -> int:
        return len(self.x_lo)

    def overlapping(self, s: Space) -> np.ndarray:
        """Indices of rectangles whose open interior overlaps space ``s``."""
        m = (
            (self.x_lo < s.x1)
            & (self.x_hi > s.x0)
            & (self.y_lo < s.y1)
            & (self.y_hi > s.y0)
        )
        return np.flatnonzero(m)

    def covering_mask(self, x: float, y: float) -> np.ndarray:
        """Boolean mask of rectangles whose open interior covers ``(x, y)``."""
        return (self.x_lo < x) & (x < self.x_hi) & (self.y_lo < y) & (y < self.y_hi)

    def point_dist(self, x: float, y: float) -> float:
        """Exact distance of the location ``(x, y)`` (i.e. of the candidate
        region whose bottom-left corner is ``(x, y)``)."""
        rep = self.prepared.rep_for_mask(self.covering_mask(x, y))
        return float(weighted_l1(rep, self.query_rep, self.weights))


def build_asp(
    objects: pd.DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    accuracy: tuple[float, float] | None = None,
) -> ASPProblem:
    """Reduce an ASRS instance to an ASP instance.

    ``objects`` must have ``x``/``y`` columns plus the attribute columns
    referenced by ``F``. ``accuracy`` overrides the GPS accuracies
    ``(dx, dy)``; by default they are measured from the data as the
    minimum gap between distinct rectangle-edge coordinates. Supplying a
    *larger* value only makes DS-Search switch earlier from splitting to
    exact in-cell enumeration (see dssearch.py) — exactness holds either
    way. Raises ``ValueError`` on non-finite coordinates and on a query
    that breaks ``check_query``.
    """
    x, y = object_coords(objects)
    x_lo, x_hi = x - a, x
    y_lo, y_hi = y - b, y
    if accuracy is None:
        dx = min_gap(np.concatenate([x_lo, x_hi]))
        dy = min_gap(np.concatenate([y_lo, y_hi]))
    else:
        dx, dy = accuracy
    prepared = F.prepare(objects)
    query_rep, weights = check_query(prepared, query_rep, weights, a, b)
    if len(x):
        space = Space(float(x_lo.min()), float(x_hi.max()), float(y_lo.min()), float(y_hi.max()))
    else:
        space = Space(0.0, 0.0, 0.0, 0.0)
    return ASPProblem(
        a=a,
        b=b,
        x_lo=x_lo,
        x_hi=x_hi,
        y_lo=y_lo,
        y_hi=y_hi,
        prepared=prepared,
        query_rep=query_rep,
        weights=weights,
        dx=dx,
        dy=dy,
        space=space,
    )


def query_representation(
    objects: pd.DataFrame, F: CompositeAggregator, region: Space
) -> np.ndarray:
    """``F(rq)`` for a concrete query region (strict interior containment,
    consistent with the reduction's open-rectangle coverage)."""
    prepared = F.prepare(objects)
    x = objects["x"].to_numpy(dtype=np.float64)
    y = objects["y"].to_numpy(dtype=np.float64)
    mask = (region.x0 < x) & (x < region.x1) & (region.y0 < y) & (y < region.y1)
    return prepared.rep_for_mask(mask)
