"""White-box tests for DS-Search internals: the difference-array plane
accumulator, the local arrangement and its evaluation, and the
enumeration trigger."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import (
    SearchStats,
    _accum_planes,
    arrangement_edges,
    discretize,
    ds_search,
    enumerate_space,
)
from repro.core.geometry import Space
from repro.core.reduction import build_asp
from tests.conftest import COLORS, aggregator_zoo, random_objects, random_query


class TestAccumPlanes:
    def test_single_box_single_channel(self):
        planes = _accum_planes(
            np.array([1]), np.array([2]), np.array([0]), np.array([1]),
            np.array([[2.5]]), 4, 3,
        )
        assert planes.shape == (1, 4, 3)
        expected = np.zeros((4, 3))
        expected[1:3, 0:2] = 2.5
        np.testing.assert_allclose(planes[0], expected)

    def test_multiple_channels_independent(self):
        planes = _accum_planes(
            np.array([0, 1]), np.array([0, 1]), np.array([0, 1]), np.array([0, 1]),
            np.array([[1.0, 0.0], [0.0, 3.0]]), 2, 2,
        )
        assert planes[0, 0, 0] == 1.0 and planes[0, 1, 1] == 0.0
        assert planes[1, 1, 1] == 3.0 and planes[1, 0, 0] == 0.0

    def test_invalid_boxes_skipped(self):
        planes = _accum_planes(
            np.array([2]), np.array([1]), np.array([0]), np.array([1]),
            np.array([[5.0]]), 3, 3,
        )
        assert planes.sum() == 0.0

    def test_empty_input(self):
        planes = _accum_planes(
            np.zeros(0, int), np.zeros(0, int), np.zeros(0, int), np.zeros(0, int),
            np.zeros((0, 2)), 3, 3,
        )
        assert planes.shape == (2, 3, 3) and planes.sum() == 0.0

    def test_overlapping_boxes_sum(self):
        planes = _accum_planes(
            np.array([0, 1]), np.array([2, 2]), np.array([0, 0]), np.array([2, 2]),
            np.array([[1.0], [1.0]]), 3, 3,
        )
        assert planes[0, 2, 1] == 2.0  # covered by both
        assert planes[0, 0, 0] == 1.0  # only the first


class TestArrangementEdges:
    def test_interior_edges_plus_boundary(self):
        df = pd.DataFrame({"x": [2.0, 5.0], "y": [2.0, 5.0], "val": [1.0, 1.0]})
        F = CompositeAggregator((sum_agg("val"),))
        prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
        # rect edges at x in {1,2,4,5}; space (1.5, 4.5): interior {2, 4}
        s = Space(1.5, 4.5, 0.0, 6.0)
        ex, ey = arrangement_edges(prob, s, prob.overlapping(s))
        np.testing.assert_array_equal(ex, [1.5, 2.0, 4.0, 4.5])
        # y edges {1,2,4,5} all inside (0,6)
        np.testing.assert_array_equal(ey, [0.0, 1.0, 2.0, 4.0, 5.0, 6.0])

    def test_boundary_edges_not_duplicated(self):
        df = pd.DataFrame({"x": [2.0], "y": [2.0], "val": [1.0]})
        F = CompositeAggregator((sum_agg("val"),))
        prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
        s = Space(1.0, 2.0, 1.0, 2.0)  # both edges on the boundary
        ex, ey = arrangement_edges(prob, s, prob.overlapping(s))
        np.testing.assert_array_equal(ex, [1.0, 2.0])
        np.testing.assert_array_equal(ey, [1.0, 2.0])


class TestEnumerateSpaceProperty:
    """The arrangement kernel against the brute-force oracle on small
    lattice instances: duplicate objects, aligned edges, single objects."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
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
        prob = build_asp(df, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        stats = SearchStats()
        d, pt = enumerate_space(prob, prob.space, stats)
        # the oracle also sees the empty region outside the rectangles'
        # MBR, which ds_search seeds separately
        assert min(d, prob.empty_dist) == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(d, abs=1e-8)
        ex, ey = arrangement_edges(prob, prob.space, np.arange(prob.n))
        assert stats.points_evaluated == (len(ex) - 1) * (len(ey) - 1)


class TestEnumerationTrigger:
    @pytest.mark.parametrize("budget", [0, 64, 100000])
    def test_any_budget_is_exact(self, budget):
        rng = np.random.default_rng(11)
        df = random_objects(rng, 30)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 1.5, 1.5)
        prob = build_asp(df, F, qrep, w, 1.5, 1.5)
        expected, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob, enum_points=budget)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_huge_budget_enumerates_root(self):
        rng = np.random.default_rng(12)
        df = random_objects(rng, 20)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 1.5, 1.5)
        prob = build_asp(df, F, qrep, w, 1.5, 1.5)
        _, _, stats = ds_search(prob, enum_points=10**9)
        assert stats.enum_spaces == 1
        assert stats.spaces_processed == 1


class TestDiscretizeWithIdx:
    def test_prefiltered_idx_equals_global(self):
        rng = np.random.default_rng(13)
        df = random_objects(rng, 40)
        F = aggregator_zoo()[1]
        qrep, w = random_query(rng, F, df, 2.0, 2.0)
        prob = build_asp(df, F, qrep, w, 2.0, 2.0)
        s = prob.space
        g1 = discretize(prob, s, 8, 8)
        g2 = discretize(prob, s, 8, 8, idx=prob.overlapping(s))
        assert g1.best_dist == pytest.approx(g2.best_dist)
        np.testing.assert_array_equal(g1.dirty_i, g2.dirty_i)
        np.testing.assert_allclose(g1.dirty_lb, g2.dirty_lb)


class TestDegenerateSpace:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_no_interior_yields_no_candidate(self, axis):
        """A space without interior, at a rectangle edge of fine-lattice
        data (like a drop-branch cell whose float edges coincide), has no
        arrangement cell: it yields no candidate and raises nothing."""
        df = random_objects(np.random.default_rng(1), 40, lattice=0.05)
        F = CompositeAggregator((sum_agg("val"),))
        prob = build_asp(df, F, np.array([5.0]), np.ones(1), 1.0, 1.0)
        s = prob.space
        if axis == "x":
            space = Space(float(prob.x_hi[0]), float(prob.x_hi[0]), s.y0, s.y1)
        else:
            space = Space(s.x0, s.x1, float(prob.y_lo[0]), float(prob.y_lo[0]))
        stats = SearchStats()
        d, (px, py) = enumerate_space(prob, space, stats)
        assert d == np.inf and np.isnan(px) and np.isnan(py)
        assert stats.enum_spaces == 0 and stats.points_evaluated == 0
