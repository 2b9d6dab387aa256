"""Grid index with suffix-sum attribute summaries, and GI-DS (Section 5).

The index is a query-independent ``sx x sy`` grid over the object
bounding box. The paper attaches to each cell ``g(i,j)`` an *attribute
summary table* built over all objects in ``G[i..inf][j..inf]``; we store
the equivalent dense form — per-channel 2-D suffix sums — so the
per-value object count (or value sum) of any axis-aligned block of
cells comes from four lookups (Lemma 8). The summaries are channelised
exactly like Discretize (see aggregators.py), so the same bound code
serves both. The build is two steps, ``cell_planes`` (bucket channel
weights into per-cell totals) and ``index_from_planes`` (suffix sums);
the Spark build (``spark.summaries``) runs the first per partition and
the second on the driver.

At query time every candidate cell (bottom-left corners of candidate
regions) gets a distance lower bound from the *bounded region* (cells
certainly inside every candidate) and *bounding region* (cells possibly
intersected) sandwich of Section 5.3, and cells are searched best-first
with DS-Search (Algorithm 2). Because candidate corners extend up to
``(a, b)`` beyond the object bbox on the low side, *margin cells* are
appended at query time so the search stays exact; their summaries fall
out of the same suffix tables (clipped index ranges).

``delta > 0`` gives app-GIDS (Section 6): the scan stops once the best
unsearched cell bound reaches ``dopt / (1 + delta)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, Prepared
from repro.core.distance import lower_bound
from repro.core.dssearch import SearchStats, ds_search
from repro.core.geometry import Space
from repro.core.reduction import build_asp, check_delta, object_coords


@dataclass
class GridIndex:
    """The Section-5 grid index over a concrete object table."""

    sx: int
    sy: int
    x0: float
    y0: float
    cw: float
    ch: float
    #: per-channel suffix sums, shape (C+1, sx+1, sy+1); channel C is the
    #: plain object count. suffix[c, i, j] = sum over cells [i..sx) x [j..sy).
    suffix: np.ndarray = field(repr=False)
    prepared: Prepared = field(repr=False)

    @property
    def nbytes(self) -> int:
        """Serialized size of the summary tables (Table 1's 'index size')."""
        return int(self.suffix.nbytes)

    def cell_space(self, i: int, j: int) -> Space:
        """Extent of candidate cell ``(i, j)``: the bottom-left corners it
        holds (``i``/``j`` may be negative for margin cells)."""
        return Space(
            float(self.x0 + i * self.cw),
            float(self.x0 + (i + 1) * self.cw),
            float(self.y0 + j * self.ch),
            float(self.y0 + (j + 1) * self.ch),
        )

    def region_sums(
        self, i0: np.ndarray, i1: np.ndarray, j0: np.ndarray, j1: np.ndarray
    ) -> np.ndarray:
        """Channel sums over the cell block ``[i0, i1) x [j0, j1)`` (Lemma 8).

        Vectorised over cell arrays; returns shape ``(..., C+1)``. Empty
        blocks (``i0 >= i1`` or ``j0 >= j1``) yield zeros.
        """
        T = self.suffix
        s = (
            T[:, i0, j0] - T[:, i1, j0] - T[:, i0, j1] + T[:, i1, j1]
        )  # (C+1, ...)
        s = np.moveaxis(s, 0, -1)
        empty = (i0 >= i1) | (j0 >= j1)
        if np.any(empty):
            s = np.where(np.asarray(empty)[..., None], 0.0, s)
        return s


def build_grid_index(
    objects: pd.DataFrame,
    F: CompositeAggregator,
    sx: int,
    sy: int,
    bounds: tuple[float, float, float, float] | None = None,
) -> GridIndex:
    """Build the index: bucket objects into cells, accumulate channel
    planes, and take 2-D suffix sums (the dense attribute summaries).

    Raises ``ValueError`` on non-finite coordinates; an empty table gives
    an all-zero index.
    """
    x, y = object_coords(objects)
    if bounds is None:
        bounds = (
            (float(x.min()), float(x.max()), float(y.min()), float(y.max()))
            if len(x)
            else (0.0, 0.0, 0.0, 0.0)
        )
    prepared = F.prepare(objects)
    planes = cell_planes(x, y, prepared.weights, bounds, sx, sy)
    return index_from_planes(planes, bounds, sx, sy, prepared)


def _cell_size(bounds: tuple[float, float, float, float], sx: int, sy: int) -> tuple[float, float]:
    x0, x1, y0, y1 = bounds
    return ((x1 - x0) / sx if x1 > x0 else 1.0, (y1 - y0) / sy if y1 > y0 else 1.0)


def cell_planes(
    x: np.ndarray,
    y: np.ndarray,
    W: np.ndarray,
    bounds: tuple[float, float, float, float],
    sx: int,
    sy: int,
) -> np.ndarray:
    """Per-cell totals of the channel weights ``W`` (one row per object)
    plus a trailing object-count channel: shape ``(C+1, sx*sy)``, cell
    ``(i, j)`` at ``i*sy + j``. Objects outside ``bounds`` are clipped
    into the border cells. Planes of disjoint object sets add up to the
    planes of their union."""
    cw, ch = _cell_size(bounds, sx, sy)
    ci = np.clip(((x - bounds[0]) / cw).astype(np.int64), 0, sx - 1)
    cj = np.clip(((y - bounds[2]) / ch).astype(np.int64), 0, sy - 1)
    lin = ci * sy + cj
    planes = np.empty((W.shape[1] + 1, sx * sy))
    for c in range(W.shape[1]):
        planes[c] = np.bincount(lin, weights=W[:, c], minlength=sx * sy)
    planes[-1] = np.bincount(lin, minlength=sx * sy)
    return planes


def index_from_planes(
    planes: np.ndarray,
    bounds: tuple[float, float, float, float],
    sx: int,
    sy: int,
    prepared: Prepared,
) -> GridIndex:
    """The ``GridIndex`` whose summaries are the 2-D suffix sums of the
    ``cell_planes`` layout ``planes``."""
    cw, ch = _cell_size(bounds, sx, sy)
    planes = planes.reshape(-1, sx, sy)
    suffix = np.zeros((len(planes), sx + 1, sy + 1))
    suffix[:, :sx, :sy] = planes[:, ::-1, ::-1].cumsum(1).cumsum(2)[:, ::-1, ::-1]
    return GridIndex(
        sx=sx, sy=sy, x0=bounds[0], y0=bounds[2], cw=cw, ch=ch, suffix=suffix, prepared=prepared
    )


def candidate_cell_bounds(
    index: GridIndex,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bounds for all candidate cells (index cells + low-side margins).

    Returns ``(ii, jj, lbs)`` where ``(ii, jj)`` may be negative (margin
    cells holding corners left of / below the object bbox). The bound
    for cell ``(i, j)`` covers every candidate region bl-corner-located
    in ``[x0+i*cw, x0+(i+1)*cw] x [y0+j*ch, y0+(j+1)*ch]``.
    """
    eps = 1e-12
    m_cov_x = int(np.ceil((index.cw + a) / index.cw - eps))
    m_cov_y = int(np.ceil((index.ch + b) / index.ch - eps))
    m_in_x = int(np.floor(a / index.cw + eps))
    m_in_y = int(np.floor(b / index.ch + eps))
    mi = int(np.ceil(a / index.cw - eps))
    mj = int(np.ceil(b / index.ch - eps))
    ii, jj = np.meshgrid(
        np.arange(-mi, index.sx), np.arange(-mj, index.sy), indexing="ij"
    )
    ii, jj = ii.ravel(), jj.ravel()
    kb0 = np.clip(ii, 0, index.sx)
    kb1 = np.clip(ii + m_cov_x, 0, index.sx)
    lb0 = np.clip(jj, 0, index.sy)
    lb1 = np.clip(jj + m_cov_y, 0, index.sy)
    kf0 = np.clip(ii + 1, 0, index.sx)
    kf1 = np.clip(ii + m_in_x, 0, index.sx)
    lf0 = np.clip(jj + 1, 0, index.sy)
    lf1 = np.clip(jj + m_in_y, 0, index.sy)
    cover = index.region_sums(kb0, kb1, lb0, lb1)[..., :-1]
    full = index.region_sums(kf0, kf1, lf0, lf1)[..., :-1]
    v_lo, v_hi = index.prepared.bounds_from_sums(full, cover)
    lbs = lower_bound(v_lo, v_hi, np.asarray(query_rep), np.asarray(weights))
    return ii, jj, lbs


@dataclass
class GIStats:
    """Counters reported by GI-DS (Table 1 inputs)."""

    searched_cells: int = 0
    total_cells: int = 0
    index_bytes: int = 0
    ds: SearchStats = field(default_factory=SearchStats)

    @property
    def searched_ratio(self) -> float:
        return self.searched_cells / self.total_cells if self.total_cells else 0.0


def gi_ds(
    objects: pd.DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    sx: int = 128,
    sy: int = 128,
    index: GridIndex | None = None,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], GIStats]:
    """Algorithm 2 (GI-DS) / its Section-6 approximation (delta > 0).

    Returns ``(dopt, popt, stats)``; with ``delta == 0`` the result is
    exact and equals plain DS-Search. Raises ``ValueError`` when
    ``delta < 0`` and on a query that breaks ``check_query``.
    """
    check_delta(delta)
    prob = build_asp(objects, F, query_rep, weights, a, b, accuracy=accuracy)
    if index is None:
        index = build_grid_index(objects, F, sx, sy)
    ii, jj, lbs = candidate_cell_bounds(index, prob.query_rep, prob.weights, a, b)
    order = np.argsort(lbs, kind="stable")
    dopt = prob.empty_dist
    popt = (prob.space.x1 + a + 1.0, prob.space.y1 + b + 1.0)
    stats = GIStats(total_cells=len(lbs), index_bytes=index.nbytes)
    for c in order:
        if lbs[c] >= dopt / (1.0 + delta):
            break
        dopt, popt, _ = ds_search(
            prob,
            index.cell_space(ii[c], jj[c]),
            ncol=ncol,
            nrow=nrow,
            delta=delta,
            init=(dopt, popt),
            stats=stats.ds,
        )
        stats.searched_cells += 1
    return dopt, popt, stats
