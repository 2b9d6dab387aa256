"""DS-Search: the paper's Discretize-and-Split algorithm (Sections 4.2-4.6, 6).

The search space (candidate bottom-left corners / ASP locations) is
discretized into an ``ncol x nrow`` grid. Cells are *clean* when no
rectangle partially covers them — every location inside shares one
representation, computed from the fully-covering set and examined
directly — and *dirty* otherwise, in which case Eq. 1 lower-bounds the
distance from the ``R_g / R-bar_g`` channel-sum sandwich. Dirty cells
whose bound reaches the current best are pruned; survivors are split
into two MBR groups (R-tree-style seeds + greedy minimal-area-growth
assignment, Function Split) and the sub-spaces recurse through a
min-heap ordered by lower bound (Algorithm 1).

Drop condition (Definition 8): once ``2*wc < dx`` and ``2*hc < dy``
(cell extent below half the GPS accuracies), splitting stops. The paper
argues (Theorem 2) that every disjoint region then contains a clean
cell; to also cover disjoint regions *clipped* by sub-space boundaries
(where that argument does not directly apply) we resolve each surviving
dirty cell exactly by evaluating its local arrangement — the grid cut by
the distinct rectangle edges inside it, whose cells are exactly the
disjoint regions (Lemma 3). At the drop scale a cell is crossed by at
most one distinct edge coordinate per axis (at most 4 arrangement
cells), but the evaluation is written for any number of edges, which
both closes the boundary-clipping corner case and keeps the algorithm
exact for *any* user-supplied accuracy override.

When the drop branch runs: distinct edge coordinates are at least
``dx`` (``dy``) apart, so a space split into ``n1 x n2`` cells that meets
the drop condition (width below ``n1*dx/2``) holds at most
``ceil(n1/2)`` distinct x-edges strictly inside it, and at most
``(ceil(n1/2)+1) * (ceil(n2/2)+1) <= 2*ceil(N/2) + 2`` arrangement cells,
``N = ncol*nrow`` (the 1-D sliver grids, ``1 x N``, are the worst
shape). With ``N <= 4094`` that is within ``DEFAULT_ENUM_POINTS`` = 4096,
so the budget check has already enumerated the space before it is
discretized and the drop branch never runs (the default 30 x 30 grid
gives at most 902 cells). It runs only with ``enum_points=0`` or an
accuracy override larger than the true gap, as the tests of the pure
paper algorithm use; it stays for fidelity to the paper.

One kernel, ``_accum_planes``, evaluates every plane: difference arrays
over an explicit edge grid (the prefix-sum idea of Lemma 8). Discretize
needs three per call — the cover and full channel sums of the Eq.-1
sandwich and the cell centers' exact sums — and takes them in one
grouped pass: the rectangles are ``a x b`` translates, so on a uniform
grid many of them share all three index boxes. Each rectangle's boxes
get one int64 key, the rectangles are grouped by it (``np.unique``),
the channel sums and the object count are taken once per group, and
the three planes are accumulated over the ``G`` groups. For ``m``
rectangles and ``C`` channels that costs O(m log m + m*C + G*C +
cells*C), with ``G <= m`` (the best-bound cell of a POISyn-1M 8q query
has 27,276 rectangles in 1,522 groups on a 30 x 30 grid). The
arrangement cells of ``enumerate_space`` take one ungrouped call,
O(m*C + cells*C): arrangement edges are almost all distinct, so
grouping would not pay there.

``delta > 0`` turns on the paper's Section-6 approximation: only dirty
cells with ``lb < dopt/(1+delta)`` are split / kept, giving the
``(1+delta)``-guarantee of Theorem 3.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.distance import lower_bound, weighted_l1
from repro.core.geometry import Space
from repro.core.reduction import ASPProblem, check_delta

#: If a space's local arrangement has at most this many cells —
#: (interior x-edges + 1) * (interior y-edges + 1) — resolve it exactly
#: at O(m*C + cells*C) instead of another discretize/split round. This is
#: what terminates sliver sub-spaces that are thinner than the accuracy
#: in one axis only (the two-axis drop condition cannot fire for them,
#: and MBR splits cannot shrink them further).
DEFAULT_ENUM_POINTS = 4096


@dataclass
class SearchStats:
    """Counters for the experiments (cells searched, drop events, ...)."""

    spaces_processed: int = 0
    cells_seen: int = 0
    clean_cells: int = 0
    dirty_pruned: int = 0
    drop_events: int = 0
    enum_spaces: int = 0
    points_evaluated: int = 0


@dataclass
class GridResult:
    """Output of one Discretize call over a space."""

    space: Space
    ncol: int
    nrow: int
    edges_x: np.ndarray
    edges_y: np.ndarray
    wc: float
    hc: float
    best_dist: float
    best_pt: tuple[float, float]
    dirty_i: np.ndarray
    dirty_j: np.ndarray
    dirty_lb: np.ndarray

    def cell_space(self, i: int, j: int) -> Space:
        return Space(
            float(self.edges_x[i]),
            float(self.edges_x[i + 1]),
            float(self.edges_y[j]),
            float(self.edges_y[j + 1]),
        )


def _accum_planes(
    i0: np.ndarray,
    i1: np.ndarray,
    j0: np.ndarray,
    j1: np.ndarray,
    W: np.ndarray,
    ncol: int,
    nrow: int,
) -> np.ndarray:
    """Sum ``W`` rows into every grid cell of each row's index box.

    Implements C simultaneous 2-D difference arrays via one bincount:
    returns ``planes[C, ncol, nrow]`` where ``planes[c, i, j]`` is the
    sum of ``W[m, c]`` over rows ``m`` whose box ``[i0..i1] x [j0..j1]``
    contains cell ``(i, j)``. Rows with an empty box (``i0 > i1`` or
    ``j0 > j1``) contribute nothing.
    """
    m, C = W.shape
    size = (ncol + 1) * (nrow + 1)
    if m == 0:
        return np.zeros((C, ncol, nrow))
    valid = (i0 <= i1) & (j0 <= j1)
    if not valid.all():
        i0, i1, j0, j1, W = i0[valid], i1[valid], j0[valid], j1[valid], W[valid]
        if len(i0) == 0:
            return np.zeros((C, ncol, nrow))
    base = np.arange(C) * size
    corners = (
        (i0, j0, 1.0),
        (i1 + 1, j0, -1.0),
        (i0, j1 + 1, -1.0),
        (i1 + 1, j1 + 1, 1.0),
    )
    # one-hot channels (fD) are mostly zero: accumulate nonzeros only
    rix, cix = np.nonzero(W)
    wnz = W[rix, cix]
    idx_parts, w_parts = [], []
    for ii, jj, sgn in corners:
        cell = ii * (nrow + 1) + jj
        idx_parts.append(cell[rix] + base[cix])
        w_parts.append(sgn * wnz)
    D = np.bincount(
        np.concatenate(idx_parts),
        weights=np.concatenate(w_parts),
        minlength=C * size,
    ).reshape(C, ncol + 1, nrow + 1)
    return D.cumsum(axis=1).cumsum(axis=2)[:, :ncol, :nrow]


def _midpoints(edges: np.ndarray) -> np.ndarray:
    return (edges[:-1] + edges[1:]) / 2.0


def _center_range(
    lo: np.ndarray, hi: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index range ``[k0, k1]`` of the sorted ``centers`` strictly inside
    each open interval ``(lo, hi)``: the centers a rectangle covers."""
    return (
        np.searchsorted(centers, lo, side="right"),
        np.searchsorted(centers, hi, side="left") - 1,
    )


def _min_center(
    prob: ASPProblem, sums: np.ndarray, centers_x: np.ndarray, centers_y: np.ndarray
) -> tuple[float, tuple[float, float]]:
    """Best exact distance over the grid of centers from their channel
    sums ``sums[C, ncol, nrow]``, and the center attaining it."""
    reps = prob.prepared.rep_from_sums(np.moveaxis(sums, 0, -1))
    dists = weighted_l1(reps, prob.query_rep, prob.weights)
    bi, bj = divmod(int(np.argmin(dists)), len(centers_y))
    return float(dists[bi, bj]), (float(centers_x[bi]), float(centers_y[bj]))


def _best_center(
    prob: ASPProblem, idx: np.ndarray, edges_x: np.ndarray, edges_y: np.ndarray
) -> tuple[float, tuple[float, float]]:
    """Best exact distance over the centers of the grid cut by
    ``edges_x x edges_y``, and the center attaining it.

    A rectangle of ``idx`` covers a center iff the center lies strictly
    inside it, so each rectangle adds its channel weights to the index
    box of the centers it contains (one ``_accum_planes`` call).
    """
    centers_x, centers_y = _midpoints(edges_x), _midpoints(edges_y)
    i0, i1 = _center_range(prob.x_lo[idx], prob.x_hi[idx], centers_x)
    j0, j1 = _center_range(prob.y_lo[idx], prob.y_hi[idx], centers_y)
    sums = _accum_planes(
        i0, i1, j0, j1, prob.prepared.weights[idx], len(centers_x), len(centers_y)
    )
    return _min_center(prob, sums, centers_x, centers_y)


def _axis_ranges(
    lo: np.ndarray, hi: np.ndarray, edges: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Per-axis index ranges of each rectangle side ``(lo, hi)`` on the
    grid cut by ``edges``: rows ``[cover0, cover1, full0, full1,
    center0, center1]``, shape ``(6, m)``.

    Rows 0, 2 and 4 are non-decreasing functions of ``lo`` and rows 1, 3
    and 5 of ``hi``, which ``_box_keys`` relies on.
    """
    n = len(edges) - 1
    return np.stack(
        [
            # cover: cells whose open interior meets (lo, hi)
            np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, n - 1),
            np.clip(np.searchsorted(edges, hi, side="left") - 1, 0, n - 1),
            # full: cells inside the closed [lo, hi]
            np.searchsorted(edges, lo, side="left"),
            np.minimum(np.searchsorted(edges, hi, side="right") - 2, n - 1),
            # cell centers strictly inside (lo, hi)
            *_center_range(lo, hi, centers),
        ]
    )


def _box_keys(rx: np.ndarray, ry: np.ndarray, ncol: int, nrow: int) -> np.ndarray:
    """One int64 key per rectangle, equal iff its cover, full and center
    boxes (``_axis_ranges`` rows ``rx``/``ry``) are all equal.

    The three ranges' low ends grow with the same coordinate, so along
    the rectangles their values form a chain and their sum (in
    ``[0, 3n]``) identifies them; likewise the high ends (in
    ``[-3, 3n-3]``). An axis key is the pair of sums in base ``3n+1``,
    below ``(3n+1)**2``, and the key combines the two axis keys, below
    ``((3*ncol+1) * (3*nrow+1))**2`` — within int64 for every grid of
    fewer than 2.5e8 cells, far more than fits in memory.
    """

    def axis_key(r: np.ndarray, n: int) -> np.ndarray:
        return (r[0] + r[2] + r[4]) * (3 * n + 1) + (r[1] + r[3] + r[5] + 3)

    return axis_key(rx, ncol) * (3 * nrow + 1) ** 2 + axis_key(ry, nrow)


def _grouped_planes(
    prob: ASPProblem, idx: np.ndarray, edges_x: np.ndarray, edges_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discretize's three planes over the grid cut by ``edges_x x edges_y``,
    in one pass over the rectangles ``idx`` grouped by their index boxes.

    Returns ``(cover, full, center)``, each ``[channel, ncol, nrow]``:
    ``cover`` sums the channel weights of the rectangles whose open
    interior meets the cell, ``full`` of those containing the closed
    cell, both with a trailing object-count channel; ``center`` sums the
    weights of the rectangles strictly containing the cell's center.
    """
    ncol, nrow = len(edges_x) - 1, len(edges_y) - 1
    rx = _axis_ranges(prob.x_lo[idx], prob.x_hi[idx], edges_x, _midpoints(edges_x))
    ry = _axis_ranges(prob.y_lo[idx], prob.y_hi[idx], edges_y, _midpoints(edges_y))
    keys, group = np.unique(_box_keys(rx, ry, ncol, nrow), return_inverse=True)
    G = len(keys)
    first = np.empty(G, dtype=np.int64)
    first[group] = np.arange(len(group))  # one member rectangle per group
    rx, ry = rx[:, first], ry[:, first]
    W = np.take(prob.prepared.weights, idx, axis=0)
    sums = np.empty((G, W.shape[1] + 1))  # + count channel
    for c in range(W.shape[1]):
        sums[:, c] = np.bincount(group, weights=W[:, c], minlength=G)
    sums[:, -1] = np.bincount(group, minlength=G)
    return (
        _accum_planes(rx[0], rx[1], ry[0], ry[1], sums, ncol, nrow),
        _accum_planes(rx[2], rx[3], ry[2], ry[3], sums, ncol, nrow),
        _accum_planes(rx[4], rx[5], ry[4], ry[5], sums[:, :-1], ncol, nrow),
    )


def discretize(
    prob: ASPProblem,
    space: Space,
    ncol: int,
    nrow: int,
    stats: SearchStats | None = None,
    idx: np.ndarray | None = None,
) -> GridResult:
    """Function Discretize of the paper.

    Classifies cells clean/dirty, takes the best cell center as an
    intermediate result, and computes the Eq.-1 lower bound for every
    dirty cell. All classifications compare rectangle extents against a
    single shared cell-edge array, so the full/cover sandwich is exact.
    ``idx`` optionally pre-restricts to the rectangles overlapping the
    space (an ancestor's already-filtered set).
    """
    edges_x = np.linspace(space.x0, space.x1, ncol + 1)
    edges_y = np.linspace(space.y0, space.y1, nrow + 1)
    wc = space.width / ncol
    hc = space.height / nrow
    if idx is None:
        idx = prob.overlapping(space)
    cover, full, center = _grouped_planes(prob, idx, edges_x, edges_y)
    clean = cover[-1] - full[-1] < 0.5  # no partially covering rectangle

    # Cell centers are feasible ASP locations, so their exact distances
    # always soundly update the incumbent — for clean cells this is the
    # cell's single representation, for dirty cells a high-quality sample
    # that makes the incumbent converge fast on plateau-heavy workloads.
    best_dist, best_pt = _min_center(
        prob, center, _midpoints(edges_x), _midpoints(edges_y)
    )

    di, dj = np.nonzero(~clean)
    if len(di):
        v_lo, v_hi = prob.prepared.bounds_from_sums(
            full[:-1, di, dj].T, cover[:-1, di, dj].T
        )
        lbs = lower_bound(v_lo, v_hi, prob.query_rep, prob.weights)
    else:
        lbs = np.zeros(0)

    if stats is not None:
        stats.cells_seen += ncol * nrow
        stats.clean_cells += int(clean.sum())
    return GridResult(
        space=space,
        ncol=ncol,
        nrow=nrow,
        edges_x=edges_x,
        edges_y=edges_y,
        wc=wc,
        hc=hc,
        best_dist=best_dist,
        best_pt=best_pt,
        dirty_i=di,
        dirty_j=dj,
        dirty_lb=lbs,
    )


def _pick_seeds(i: np.ndarray, j: np.ndarray) -> tuple[int, int]:
    """Two far-apart cells (Function Split line 2): among the extremes of
    the two diagonal orders, take the pair with the largest separation."""
    cands = {
        int(np.argmin(i + j)),
        int(np.argmax(i + j)),
        int(np.argmin(i - j)),
        int(np.argmax(i - j)),
    }
    cands = list(cands)
    best, pair = -1.0, (cands[0], cands[0])
    for a in range(len(cands)):
        for b in range(a + 1, len(cands)):
            u, v = cands[a], cands[b]
            d = (i[u] - i[v]) ** 2 + (j[u] - j[v]) ** 2
            if d > best:
                best, pair = d, (u, v)
    return pair


def split(grid: GridResult, threshold: float) -> list[tuple[Space, float]]:
    """Function Split of the paper.

    Partitions the dirty cells with ``lb < threshold`` into two seed-grown
    groups by minimal MBR-area growth and returns each group's MBR
    (in continuous coordinates) with its minimum lower bound.
    """
    keep = grid.dirty_lb < threshold
    i, j, lb = grid.dirty_i[keep], grid.dirty_j[keep], grid.dirty_lb[keep]
    if len(i) == 0:
        return []

    def mbr_space(imin, imax, jmin, jmax) -> Space:
        return Space(
            float(grid.edges_x[imin]),
            float(grid.edges_x[imax + 1]),
            float(grid.edges_y[jmin]),
            float(grid.edges_y[jmax + 1]),
        )

    if len(i) == 1:
        return [(grid.cell_space(int(i[0]), int(j[0])), float(lb[0]))]
    s1, s2 = _pick_seeds(i, j)
    boxes = [  # [imin, imax, jmin, jmax] per group
        [i[s1], i[s1], j[s1], j[s1]],
        [i[s2], i[s2], j[s2], j[s2]],
    ]
    members: list[list[int]] = [[s1], [s2]]
    for m in range(len(i)):
        if m in (s1, s2):
            continue
        costs = []
        for b in boxes:
            ni0, ni1 = min(b[0], i[m]), max(b[1], i[m])
            nj0, nj1 = min(b[2], j[m]), max(b[3], j[m])
            new_area = (ni1 - ni0 + 1) * (nj1 - nj0 + 1)
            old_area = (b[1] - b[0] + 1) * (b[3] - b[2] + 1)
            costs.append(new_area - old_area)
        g = 1 if costs[0] > costs[1] else 0
        b = boxes[g]
        b[0], b[1] = min(b[0], i[m]), max(b[1], i[m])
        b[2], b[3] = min(b[2], j[m]), max(b[3], j[m])
        members[g].append(m)
    out = []
    for g, b in enumerate(boxes):
        out.append(
            (mbr_space(int(b[0]), int(b[1]), int(b[2]), int(b[3])),
             float(lb[members[g]].min()))
        )
    return out


def arrangement_edges(
    prob: ASPProblem, space: Space, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the local arrangement per axis: the space's boundary plus
    the distinct edges of the ``idx`` rectangles strictly inside it.

    By Lemma 3 the grid these edges cut is exactly the set of disjoint
    regions inside ``space``: every cell is clean.
    """
    x = np.concatenate([prob.x_lo[idx], prob.x_hi[idx], [space.x0, space.x1]])
    y = np.concatenate([prob.y_lo[idx], prob.y_hi[idx], [space.y0, space.y1]])
    return (
        np.unique(np.clip(x, space.x0, space.x1)),
        np.unique(np.clip(y, space.y0, space.y1)),
    )


def enumerate_space(
    prob: ASPProblem,
    space: Space,
    stats: SearchStats | None = None,
    idx: np.ndarray | None = None,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, tuple[float, float]]:
    """Exact resolution of a (small) space: evaluate its local arrangement.

    Every arrangement cell is a disjoint region, so its center's distance
    is the distance of the whole region and the best center is the exact
    optimum over ``space``. Cost is O(m*C + cells*C) — cheap whenever the
    arrangement is small, e.g. the sliver sub-spaces produced late in the
    split recursion and the sub-accuracy cells of the drop condition.
    ``edges`` passes in an already computed ``arrangement_edges``.

    A degenerate space (no interior, e.g. a drop-condition cell whose
    float edges coincide) has no arrangement cell and yields no
    candidate: ``(inf, (nan, nan))``, as ``ds_search`` skips such spaces.
    """
    if space.is_degenerate():
        return math.inf, (math.nan, math.nan)
    if idx is None:
        idx = prob.overlapping(space)
    ex, ey = edges if edges is not None else arrangement_edges(prob, space, idx)
    best = _best_center(prob, idx, ex, ey)
    if stats is not None:
        stats.enum_spaces += 1
        stats.points_evaluated += (len(ex) - 1) * (len(ey) - 1)
    return best


def _bisect(space: Space) -> list[Space]:
    """Halve a space along its longer axis (termination guard)."""
    if space.width >= space.height:
        mx = (space.x0 + space.x1) / 2
        return [Space(space.x0, mx, space.y0, space.y1), Space(mx, space.x1, space.y0, space.y1)]
    my = (space.y0 + space.y1) / 2
    return [Space(space.x0, space.x1, space.y0, my), Space(space.x0, space.x1, my, space.y1)]


def ds_search(
    prob: ASPProblem,
    space: Space | None = None,
    *,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    init: tuple[float, tuple[float, float]] | None = None,
    enum_points: int = DEFAULT_ENUM_POINTS,
    stats: SearchStats | None = None,
) -> tuple[float, tuple[float, float], SearchStats]:
    """Algorithm 1 (DS-Search) over ``space`` (default: the full rectangle MBR).

    Returns ``(dopt, popt, stats)`` — the minimum distance, a location
    attaining it, and search counters. With ``delta == 0`` the result is
    exact; with ``delta > 0`` it satisfies ``dopt <= (1+delta) * d*``.

    ``init`` seeds ``(dopt, popt)`` (used by GI-DS to share the incumbent
    across index cells); without it the search starts from the
    empty-region candidate, whose bottom-left corner lies outside every
    rectangle. Raises ``ValueError`` when ``delta < 0``.
    """
    check_delta(delta)
    stats = stats if stats is not None else SearchStats()
    space = space if space is not None else prob.space
    if init is not None:
        dopt, popt = init
    else:
        dopt = prob.empty_dist
        popt = (prob.space.x1 + prob.a + 1.0, prob.space.y1 + prob.b + 1.0)
    if space.is_degenerate() or prob.n == 0:
        return dopt, popt, stats

    counter = itertools.count()
    # heap entries carry the parent's overlapping-rectangle index so each
    # space filters from its parent's set instead of all n rectangles
    heap: list[tuple[float, int, Space, np.ndarray | None]] = [
        (0.0, next(counter), space, None)
    ]
    seen: set[tuple[float, float, float, float]] = set()
    while heap:
        lb, _, c, parent_idx = heapq.heappop(heap)
        if lb >= dopt / (1.0 + delta):
            break
        key = (c.x0, c.x1, c.y0, c.y1)
        if key in seen:
            # identical sub-space already resolved (overlapping sibling
            # MBRs regenerate the same slivers); reprocessing adds nothing
            continue
        seen.add(key)
        stats.spaces_processed += 1
        if c.is_degenerate():
            continue
        if parent_idx is None:
            idx = prob.overlapping(c)
        else:
            m = (
                (prob.x_lo[parent_idx] < c.x1)
                & (prob.x_hi[parent_idx] > c.x0)
                & (prob.y_lo[parent_idx] < c.y1)
                & (prob.y_hi[parent_idx] > c.y0)
            )
            idx = parent_idx[m]
        sliver_x = sliver_y = False
        if enum_points:
            ex, ey = arrangement_edges(prob, c, idx)
            if (len(ex) - 1) * (len(ey) - 1) <= enum_points:
                d, pt = enumerate_space(prob, c, stats, idx, (ex, ey))
                if d < dopt:
                    dopt, popt = d, pt
                continue
            # A space that is a sliver in one axis (<= 2 interior edge
            # coordinates, i.e. <= 4 edges with the boundary) can never
            # satisfy the two-axis drop condition and 2-D MBR splits
            # cannot shrink it; recurse 1-D instead, putting the full cell
            # budget on the long axis so its bounds stay tight.
            sliver_x, sliver_y = len(ex) <= 4, len(ey) <= 4
        if sliver_x:
            grid = discretize(prob, c, 1, ncol * nrow, stats, idx)
        elif sliver_y:
            grid = discretize(prob, c, ncol * nrow, 1, stats, idx)
        else:
            grid = discretize(prob, c, ncol, nrow, stats, idx)
        if grid.best_dist < dopt:
            dopt, popt = grid.best_dist, grid.best_pt
        thr = dopt / (1.0 + delta)
        keep = grid.dirty_lb < thr
        stats.dirty_pruned += int((~keep).sum())
        if not keep.any():
            continue
        if 2.0 * grid.wc < prob.dx and 2.0 * grid.hc < prob.dy:
            # drop condition: resolve surviving dirty cells exactly
            stats.drop_events += 1
            order = np.argsort(grid.dirty_lb[keep])
            ki, kj = grid.dirty_i[keep][order], grid.dirty_j[keep][order]
            klb = grid.dirty_lb[keep][order]
            for i, j, cell_lb in zip(ki, kj, klb):
                if cell_lb >= dopt / (1.0 + delta):
                    break
                cell = grid.cell_space(int(i), int(j))
                cm = (
                    (prob.x_lo[idx] < cell.x1)
                    & (prob.x_hi[idx] > cell.x0)
                    & (prob.y_lo[idx] < cell.y1)
                    & (prob.y_hi[idx] > cell.y0)
                )
                d, pt = enumerate_space(prob, cell, stats, idx[cm])
                if d < dopt:
                    dopt, popt = d, pt
            continue
        children = split(grid, thr)
        if any(ch.same_extent(c) for ch, _ in children):
            min_lb = float(grid.dirty_lb[keep].min())
            children = [(h, min_lb) for h in _bisect(c)]
        for ch, ch_lb in children:
            heapq.heappush(heap, (ch_lb, next(counter), ch, idx))
    return dopt, popt, stats


def asrs_search(
    objects,
    F,
    query_rep,
    weights,
    a: float,
    b: float,
    *,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, Space, SearchStats]:
    """End-to-end ASRS: reduce to ASP (Theorem 1) and run DS-Search.

    Returns ``(distance, region, stats)`` where ``region`` is the
    ``a x b`` answer region (bottom-left corner at the optimal location).
    """
    from repro.core.reduction import build_asp

    prob = build_asp(objects, F, query_rep, weights, a, b, accuracy=accuracy)
    d, (px, py), stats = ds_search(prob, ncol=ncol, nrow=nrow, delta=delta)
    return d, Space(px, px + a, py, py + b), stats
