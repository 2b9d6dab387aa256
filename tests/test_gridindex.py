"""Grid index (Section 5): Lemma-8 block sums, candidate-cell bound
validity, and GI-DS / app-GIDS end-to-end correctness."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import ds_search
from repro.core.gridindex import (
    build_grid_index,
    candidate_cell_bounds,
    gi_ds,
)
from repro.core.reduction import build_asp
from tests.conftest import COLORS, aggregator_zoo, random_objects, random_query


def make_inputs(seed, n=40, zoo_idx=None):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[(zoo_idx if zoo_idx is not None else seed) % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return df, F, qrep, w, a, b


class TestLemma8:
    @pytest.mark.parametrize("seed", range(5))
    def test_block_sums_match_direct_counts(self, seed):
        """Lemma 8: four suffix-table lookups give any block's per-value
        counts."""
        rng = np.random.default_rng(seed)
        df = random_objects(rng, 60)
        F = CompositeAggregator((dist_agg("color", domain=COLORS),))
        idxg = build_grid_index(df, F, 8, 6)
        x = df["x"].to_numpy()
        y = df["y"].to_numpy()
        ci = np.clip(((x - idxg.x0) / idxg.cw).astype(int), 0, 7)
        cj = np.clip(((y - idxg.y0) / idxg.ch).astype(int), 0, 5)
        for _ in range(20):
            i0, i1 = sorted(rng.integers(0, 9, 2))
            j0, j1 = sorted(rng.integers(0, 7, 2))
            sums = idxg.region_sums(
                np.array(i0), np.array(i1), np.array(j0), np.array(j1)
            )
            in_block = (ci >= i0) & (ci < i1) & (cj >= j0) & (cj < j1)
            for v, cname in enumerate(COLORS):
                expected = ((df["color"] == cname) & in_block).sum()
                assert sums[v] == pytest.approx(expected)
            assert sums[-1] == pytest.approx(in_block.sum())  # count channel

    def test_empty_block_is_zero(self):
        rng = np.random.default_rng(0)
        df = random_objects(rng, 10)
        F = CompositeAggregator((sum_agg("val"),))
        idxg = build_grid_index(df, F, 4, 4)
        s = idxg.region_sums(np.array(2), np.array(2), np.array(0), np.array(4))
        assert np.all(s == 0.0)

    def test_full_grid_equals_totals(self):
        rng = np.random.default_rng(1)
        df = random_objects(rng, 30)
        F = CompositeAggregator((sum_agg("val"),))
        idxg = build_grid_index(df, F, 5, 5)
        s = idxg.region_sums(np.array(0), np.array(5), np.array(0), np.array(5))
        pos = df["val"].clip(lower=0).sum()
        neg = df["val"].clip(upper=0).sum()
        assert s[0] == pytest.approx(pos)
        assert s[1] == pytest.approx(neg)
        assert s[-1] == pytest.approx(len(df))

    def test_index_size_grows_with_granularity(self):
        rng = np.random.default_rng(2)
        df = random_objects(rng, 30)
        F = CompositeAggregator((dist_agg("color", domain=COLORS),))
        sizes = [build_grid_index(df, F, g, g).nbytes for g in (8, 16, 32)]
        assert sizes[0] < sizes[1] < sizes[2]


class TestCandidateCellBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_valid_for_sampled_corners(self, seed):
        """Every candidate region bl-corner-located in a cell must have
        distance >= the cell's lower bound (Section 5.3)."""
        df, F, qrep, w, a, b = make_inputs(seed)
        prob = build_asp(df, F, qrep, w, a, b)
        idxg = build_grid_index(df, F, 7, 7)
        ii, jj, lbs = candidate_cell_bounds(idxg, prob.query_rep, prob.weights, a, b)
        rng = np.random.default_rng(seed)
        for c in rng.choice(len(lbs), size=min(30, len(lbs)), replace=False):
            cx0 = idxg.x0 + ii[c] * idxg.cw
            cy0 = idxg.y0 + jj[c] * idxg.ch
            for _ in range(4):
                px = rng.uniform(cx0, cx0 + idxg.cw)
                py = rng.uniform(cy0, cy0 + idxg.ch)
                assert lbs[c] <= prob.point_dist(px, py) + 1e-7

    def test_margin_cells_present(self):
        df, F, qrep, w, a, b = make_inputs(0)
        prob = build_asp(df, F, qrep, w, a, b)
        idxg = build_grid_index(df, F, 6, 6)
        ii, jj, _ = candidate_cell_bounds(idxg, prob.query_rep, prob.weights, a, b)
        assert ii.min() < 0 and jj.min() < 0


class TestGIDS:
    @pytest.mark.parametrize("seed", range(12))
    def test_exactness_vs_brute_force(self, seed):
        df, F, qrep, w, a, b = make_inputs(seed)
        prob = build_asp(df, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds(df, F, qrep, w, a, b, sx=6, sy=6)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    @pytest.mark.parametrize("granularity", [4, 8, 16])
    def test_granularity_does_not_change_result(self, granularity):
        df, F, qrep, w, a, b = make_inputs(7)
        expected, _, _ = ds_search(build_asp(df, F, qrep, w, a, b))
        got, _, _ = gi_ds(df, F, qrep, w, a, b, sx=granularity, sy=granularity)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_prebuilt_index_reused(self):
        df, F, qrep, w, a, b = make_inputs(3)
        idxg = build_grid_index(df, F, 8, 8)
        got1, _, _ = gi_ds(df, F, qrep, w, a, b, index=idxg)
        got2, _, _ = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert got1 == pytest.approx(got2, abs=1e-12)

    def test_stats_report_search_ratio(self):
        df, F, qrep, w, a, b = make_inputs(4)
        _, _, stats = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert 0 < stats.searched_cells <= stats.total_cells
        assert 0 < stats.searched_ratio <= 1.0
        assert stats.index_bytes > 0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("delta", [0.1, 0.4])
    def test_app_gids_guarantee(self, seed, delta):
        """app-GIDS (Section 6): result within (1+delta) of the optimum."""
        df, F, qrep, w, a, b = make_inputs(seed, n=50)
        prob = build_asp(df, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, _, _ = gi_ds(df, F, qrep, w, a, b, sx=6, sy=6, delta=delta)
        assert got <= (1 + delta) * opt + 1e-8

    def test_app_gids_searches_no_more_cells_than_exact(self):
        df, F, qrep, w, a, b = make_inputs(6, n=60)
        _, _, s_exact = gi_ds(df, F, qrep, w, a, b, sx=10, sy=10)
        _, _, s_app = gi_ds(df, F, qrep, w, a, b, sx=10, sy=10, delta=0.4)
        assert s_app.searched_cells <= s_exact.searched_cells

    def test_empty_table_gives_empty_region(self):
        df = random_objects(np.random.default_rng(0), 5).iloc[:0]
        F = aggregator_zoo()[4]
        qrep, w = np.array([1.0, 0.0, 0.0, 2.0, 1.0]), np.ones(5)
        expected, _, _ = ds_search(build_asp(df, F, qrep, w, 1.0, 1.0))
        got, _, stats = gi_ds(df, F, qrep, w, 1.0, 1.0, sx=4, sy=4)
        assert got == pytest.approx(expected) and stats.searched_cells == 0

    @pytest.mark.parametrize("col", ["x", "y"])
    def test_nonfinite_coordinates_rejected(self, col):
        df, F, qrep, w, a, b = make_inputs(1)
        df.loc[3, col] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_grid_index(df, F, 4, 4)
