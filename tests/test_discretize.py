"""Function Discretize (Section 4.3): clean/dirty classification, clean-cell
representations, and dirty-cell bound validity — checked against direct
containment evaluation."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.distance import lower_bound, weighted_l1
from repro.core.dssearch import SearchStats, _grouped_planes, discretize
from repro.core.geometry import Space
from repro.core.reduction import build_asp
from tests.conftest import COLORS, aggregator_zoo, random_objects, random_query


def make_prob(rng, n=25, a=1.5, b=1.2, F=None):
    df = random_objects(rng, n)
    F = F or CompositeAggregator((dist_agg("color", domain=("red", "blue", "green")),))
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep, w, a, b)


def cell_classification_oracle(prob, space, ncol, nrow):
    """Direct reimplementation of clean/dirty via per-cell interval tests."""
    ex = np.linspace(space.x0, space.x1, ncol + 1)
    ey = np.linspace(space.y0, space.y1, nrow + 1)
    clean = np.zeros((ncol, nrow), dtype=bool)
    full_sets = {}
    for i in range(ncol):
        for j in range(nrow):
            cx0, cx1, cy0, cy1 = ex[i], ex[i + 1], ey[j], ey[j + 1]
            overlaps = (
                (prob.x_lo < cx1) & (prob.x_hi > cx0) & (prob.y_lo < cy1) & (prob.y_hi > cy0)
            )
            full = (
                (prob.x_lo <= cx0) & (prob.x_hi >= cx1) & (prob.y_lo <= cy0) & (prob.y_hi >= cy1)
            )
            partial = overlaps & ~full
            clean[i, j] = not partial.any()
            full_sets[(i, j)] = full
    return clean, full_sets


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("grid", [(7, 5), (10, 10)])
def test_clean_dirty_classification_matches_oracle(seed, grid):
    rng = np.random.default_rng(seed)
    prob = make_prob(rng)
    ncol, nrow = grid
    g = discretize(prob, prob.space, ncol, nrow)
    clean_oracle, full_sets = cell_classification_oracle(prob, prob.space, ncol, nrow)
    dirty = np.zeros((ncol, nrow), dtype=bool)
    dirty[g.dirty_i, g.dirty_j] = True
    np.testing.assert_array_equal(~dirty, clean_oracle)


@pytest.mark.parametrize("seed", range(5))
def test_clean_cell_distance_equals_center_evaluation(seed):
    """Any location in a clean cell shares one representation; the best
    clean-cell distance must equal the direct evaluation at its center."""
    rng = np.random.default_rng(100 + seed)
    prob = make_prob(rng)
    g = discretize(prob, prob.space, 9, 9)
    if np.isfinite(g.best_dist):
        assert prob.point_dist(*g.best_pt) == pytest.approx(g.best_dist, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_dirty_cell_lower_bounds_valid(seed):
    """Sample random locations inside each dirty cell: the Eq.-1 bound must
    not exceed the true distance (Lemma 4 + Lemma 5)."""
    rng = np.random.default_rng(200 + seed)
    F = aggregator_zoo()[seed % len(aggregator_zoo())]
    df = random_objects(rng, 30)
    qrep, w = random_query(rng, F, df, 2.0, 1.5)
    prob = build_asp(df, F, qrep, w, 2.0, 1.5)
    g = discretize(prob, prob.space, 8, 8)
    for i, j, lb in zip(g.dirty_i, g.dirty_j, g.dirty_lb):
        cell = g.cell_space(int(i), int(j))
        for _ in range(5):
            px = rng.uniform(cell.x0, cell.x1)
            py = rng.uniform(cell.y0, cell.y1)
            assert lb <= prob.point_dist(px, py) + 1e-7


def test_no_rectangles_all_clean(rng):
    df = random_objects(rng, 10)
    F = CompositeAggregator((sum_agg("val"),))
    prob = build_asp(df, F, np.array([0.0]), np.array([1.0]), 1.0, 1.0)
    far = Space(100.0, 110.0, 100.0, 110.0)
    g = discretize(prob, far, 5, 5)
    assert len(g.dirty_i) == 0
    assert g.best_dist == pytest.approx(prob.empty_dist)


def test_fully_covered_space_is_clean(rng):
    """A space strictly inside one rectangle and away from all edges is
    a single disjoint region: all cells clean."""
    df = pd.DataFrame({"x": [10.0], "y": [10.0], "color": ["red"], "val": [1.0]})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([1.0]), np.array([1.0]), 10.0, 10.0)
    inner = Space(2.0, 8.0, 2.0, 8.0)
    g = discretize(prob, inner, 6, 6)
    assert len(g.dirty_i) == 0
    assert g.best_dist == pytest.approx(0.0)


def test_stats_counters(rng):
    prob = make_prob(rng)
    stats = SearchStats()
    discretize(prob, prob.space, 6, 7, stats)
    assert stats.cells_seen == 42
    assert 0 <= stats.clean_cells <= 42


def reference_planes(prob, idx, space, ncol, nrow):
    """Discretize's planes rectangle by rectangle and cell by cell, with
    the paper's rules written out: cover = the open cell meets the open
    rectangle, full = the closed cell lies in the closed rectangle,
    center = the cell's center lies strictly inside the rectangle.
    Returns ``(cover, full, center)`` as ``[ncol, nrow, channel]``, the
    first two with a trailing count channel."""
    ex = np.linspace(space.x0, space.x1, ncol + 1)
    ey = np.linspace(space.y0, space.y1, nrow + 1)
    C = prob.prepared.n_channels
    cover = np.zeros((ncol, nrow, C + 1))
    full = np.zeros((ncol, nrow, C + 1))
    center = np.zeros((ncol, nrow, C))
    for i in range(ncol):
        for j in range(nrow):
            cx, cy = (ex[i] + ex[i + 1]) / 2.0, (ey[j] + ey[j + 1]) / 2.0
            for r in idx:
                xl, xh, yl, yh = prob.x_lo[r], prob.x_hi[r], prob.y_lo[r], prob.y_hi[r]
                w = np.append(prob.prepared.weights[r], 1.0)
                if xl < ex[i + 1] and xh > ex[i] and yl < ey[j + 1] and yh > ey[j]:
                    cover[i, j] += w
                if xl <= ex[i] and ex[i + 1] <= xh and yl <= ey[j] and ey[j + 1] <= yh:
                    full[i, j] += w
                if xl < cx < xh and yl < cy < yh:
                    center[i, j] += w[:-1]
    return cover, full, center


def lattice_problem(data):
    """A Hypothesis-drawn lattice instance: every coordinate and query
    side a multiple of 0.5, so rectangle edges land on grid edges and
    cell centers of the lattice-aligned spaces below."""
    F = data.draw(st.sampled_from(aggregator_zoo()))
    n = data.draw(st.integers(1, 8))
    coord = st.integers(0, 8).map(lambda k: k * 0.5)
    df = pd.DataFrame(
        {
            "x": data.draw(st.lists(coord, min_size=n, max_size=n)),
            "y": data.draw(st.lists(coord, min_size=n, max_size=n)),
            "color": data.draw(st.lists(st.sampled_from(COLORS), min_size=n, max_size=n)),
            "val": data.draw(st.lists(st.integers(-5, 10), min_size=n, max_size=n)),
        }
    ).astype({"val": float})
    a = data.draw(st.integers(1, 6)) * 0.5
    b = data.draw(st.integers(1, 6)) * 0.5
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep, w, a, b)


class TestGroupedPlanes:
    """The grouped pass of Discretize against ``reference_planes``."""

    def check(self, prob, space, ncol, nrow, idx):
        cover, full, center = (
            np.moveaxis(p, 0, -1)
            for p in _grouped_planes(
                prob, idx, np.linspace(space.x0, space.x1, ncol + 1),
                np.linspace(space.y0, space.y1, nrow + 1),
            )
        )
        r_cover, r_full, r_center = reference_planes(prob, idx, space, ncol, nrow)
        np.testing.assert_array_equal(cover[..., -1], r_cover[..., -1])
        np.testing.assert_array_equal(full[..., -1], r_full[..., -1])
        np.testing.assert_allclose(cover, r_cover, atol=1e-9)
        np.testing.assert_allclose(full, r_full, atol=1e-9)
        np.testing.assert_allclose(center, r_center, atol=1e-9)

        g = discretize(prob, space, ncol, nrow, idx=idx)
        di, dj = np.nonzero(r_cover[..., -1] != r_full[..., -1])  # dirty cells
        np.testing.assert_array_equal(g.dirty_i, di)
        np.testing.assert_array_equal(g.dirty_j, dj)
        v_lo, v_hi = prob.prepared.bounds_from_sums(
            r_full[di, dj, :-1], r_cover[di, dj, :-1]
        )
        np.testing.assert_allclose(
            g.dirty_lb, lower_bound(v_lo, v_hi, prob.query_rep, prob.weights), atol=1e-9
        )

        # the best center: the minimum over every center of the exact
        # distance of the rectangles of idx covering it
        cx = (g.edges_x[:-1] + g.edges_x[1:]) / 2.0
        cy = (g.edges_y[:-1] + g.edges_y[1:]) / 2.0
        mask = np.zeros(prob.n, dtype=bool)
        dists = np.empty((ncol, nrow))
        for i in range(ncol):
            for j in range(nrow):
                mask[:] = False
                mask[idx] = prob.covering_mask(cx[i], cy[j])[idx]
                rep = prob.prepared.rep_for_mask(mask)
                dists[i, j] = weighted_l1(rep, prob.query_rep, prob.weights)
        assert g.best_dist == pytest.approx(dists.min(), abs=1e-9)
        bi, bj = np.flatnonzero(cx == g.best_pt[0])[0], np.flatnonzero(cy == g.best_pt[1])[0]
        assert dists[bi, bj] == pytest.approx(g.best_dist, abs=1e-9)
        if len(idx) == len(prob.overlapping(space)):
            assert prob.point_dist(*g.best_pt) == pytest.approx(g.best_dist, abs=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        prob = lattice_problem(data)
        ncol = data.draw(st.integers(1, 8))
        nrow = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            space = prob.space
        else:
            # lattice-aligned space: grid edges on rectangle edges; with
            # 1-wide cells centers on them too, with 1.5-wide cells a
            # rectangle side can fall either side of a cell's center
            cw, ch = (data.draw(st.sampled_from([0.5, 1.0, 1.5])) for _ in "xy")
            x0 = data.draw(st.integers(-6, 8)) * 0.5
            y0 = data.draw(st.integers(-6, 8)) * 0.5
            space = Space(x0, x0 + ncol * cw, y0, y0 + nrow * ch)
        idx = prob.overlapping(space)
        if data.draw(st.booleans()):
            idx = idx[data.draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))]
        self.check(prob, space, ncol, nrow, idx)

    @pytest.mark.parametrize("shape", [(7, 5), (1, 24), (24, 1), (1, 1600), (1600, 1)])
    @pytest.mark.parametrize("f", range(len(aggregator_zoo())))
    def test_seeded_grids(self, f, shape):
        """A 7 x 5 grid and the 1 x N / N x 1 grids of the sliver
        recursion, up to the 1 x 1600 of a 40 x 40 user grid."""
        rng = np.random.default_rng(10 * f + sum(shape))
        F = aggregator_zoo()[f]
        df = random_objects(rng, 12, lattice=0.5, span=4.0)
        qrep, w = random_query(rng, F, df, 1.5, 1.0)
        prob = build_asp(df, F, qrep, w, 1.5, 1.0)
        self.check(prob, prob.space, *shape, prob.overlapping(prob.space))

    def test_single_rectangle(self):
        df = pd.DataFrame({"x": [2.0], "y": [3.0], "color": ["red"], "val": [4.0]})
        for F in aggregator_zoo():
            dim = F.prepare(df).out_dim
            prob = build_asp(df, F, np.ones(dim), np.ones(dim), 1.0, 2.0)
            space = Space(0.5, 2.5, 0.5, 3.5)
            self.check(prob, space, 4, 6, prob.overlapping(space))

    def test_empty_idx(self, rng):
        prob = make_prob(rng)
        self.check(prob, prob.space, 5, 3, np.zeros(0, dtype=np.int64))
