"""Distributed GI-DS (applyInPandas scan): must agree with the driver
GI-DS, plain DS-Search, and brute force."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import ds_search
from repro.core.gridindex import candidate_cell_bounds, gi_ds
from repro.core.reduction import build_asp
from repro.spark.cellify import explode_to_candidate_cells
from repro.spark.search import edge_accuracies, gi_ds_distributed
from repro.spark.summaries import build_grid_index_spark
from tests.conftest import aggregator_zoo, random_objects, random_query


def make_inputs(seed, n=60):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[seed % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return df, F, qrep, w, a, b


class TestEdgeAccuracies:
    def test_matches_core_min_gap(self, spark):
        from repro.core.reduction import min_gap

        pdf = random_objects(np.random.default_rng(1), 50)
        sdf = spark.createDataFrame(pdf)
        a, b = 1.5, 2.0
        dx, dy = edge_accuracies(sdf, a, b)
        x = pdf["x"].to_numpy()
        y = pdf["y"].to_numpy()
        assert dx == pytest.approx(min_gap(np.concatenate([x, x - a])))
        assert dy == pytest.approx(min_gap(np.concatenate([y, y - b])))


class TestDistributedGIDS:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, spark, seed):
        pdf, F, qrep, w, a, b = make_inputs(seed)
        sdf = spark.createDataFrame(pdf)
        prob = build_asp(pdf, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    def test_matches_driver_gi_ds_and_ds_search(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(10, n=120)
        sdf = spark.createDataFrame(pdf)
        d_driver, _, _ = gi_ds(pdf, F, qrep, w, a, b, sx=8, sy=8)
        d_plain, _, _ = ds_search(build_asp(pdf, F, qrep, w, a, b))
        d_dist, _, _ = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=8, sy=8)
        assert d_dist == pytest.approx(d_driver, abs=1e-8)
        assert d_dist == pytest.approx(d_plain, abs=1e-8)

    @pytest.mark.parametrize("delta", [0.2, 0.4])
    def test_approximate_guarantee(self, spark, delta):
        pdf, F, qrep, w, a, b = make_inputs(3, n=80)
        sdf = spark.createDataFrame(pdf)
        prob = build_asp(pdf, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, _, _ = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6, delta=delta)
        assert got <= (1 + delta) * opt + 1e-8

    def test_stats_populated(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(4)
        sdf = spark.createDataFrame(pdf)
        _, _, stats = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
        assert stats.total_cells > 36  # margins included
        assert stats.index_bytes > 0
        assert 0 < stats.candidate_cells <= stats.total_cells

    def test_prebuilt_index_and_accuracy_override(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(6)
        sdf = spark.createDataFrame(pdf)
        idx, F_res = build_grid_index_spark(sdf, F, 6, 6)
        got, _, _ = gi_ds_distributed(
            sdf, F_res, qrep, w, a, b, index=idx, accuracy=(0.25, 0.25)
        )
        expected, _ = brute_force_asp(build_asp(pdf, F, qrep, w, a, b))
        assert got == pytest.approx(expected, abs=1e-8)


class TestTaskShares:
    """Each task runs Algorithm 2 over a round-robin share of the
    bound-sorted cells. 8x8 cells on 150 objects leave many more
    surviving cells than tasks, so every task walks several cells, and
    its break and its carried incumbent decide how many it searches."""

    @staticmethod
    def replay(spark, sdf, prob, idx, ii, jj, lbs, a, b) -> tuple[int, int]:
        """``(searched, receiving)`` at delta = 0, replayed on the driver.

        The cells with ``lb < empty_dist`` are dealt round-robin in bound
        order; each share is walked with its own incumbent until its
        first cell with ``lb >= d``. Cells no object is exploded to have
        no rows in any task and are skipped. ``receiving`` counts the
        surviving cells that do get rows: a scan without the break
        searches all of them.
        """
        mi, mj = max(0, -int(ii.min())), max(0, -int(jj.min()))
        exploded = explode_to_candidate_cells(
            sdf, a, b, idx.x0, idx.y0, idx.cw, idx.ch, idx.sx, idx.sy, mi, mj
        )
        has_rows = {(r.ci, r.cj) for r in exploded.select("ci", "cj").distinct().collect()}
        order = np.argsort(lbs, kind="stable")
        order = order[lbs[order] < prob.empty_dist]
        n_tasks = spark.sparkContext.defaultParallelism
        searched = 0
        for t in range(n_tasks):
            d = prob.empty_dist
            for c in order[t::n_tasks]:
                if (ii[c], jj[c]) not in has_rows:
                    continue
                if lbs[c] >= d:
                    break
                d, _, _ = ds_search(prob, idx.cell_space(ii[c], jj[c]), init=(d, (np.nan, np.nan)))
                searched += 1
        return searched, sum((ii[c], jj[c]) in has_rows for c in order)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(5))  # one per aggregator_zoo() F
    def test_shares_scan(self, spark, seed, delta):
        rng = np.random.default_rng(seed)
        pdf, F, qrep, w, a, b = make_inputs(seed, n=150)
        # query-by-example has optimum 0, where every break is a tie at
        # d = 0; an offset query has a positive optimum
        qrep = qrep + rng.uniform(0.5, 1.5, len(qrep))
        sdf = spark.createDataFrame(pdf)
        idx, F_res = build_grid_index_spark(sdf, F, 8, 8)
        prob = build_asp(pdf, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds_distributed(sdf, F_res, qrep, w, a, b, index=idx, delta=delta)
        if delta == 0:
            assert got == pytest.approx(opt, abs=1e-8)
        else:
            assert got <= (1 + delta) * opt + 1e-8
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)
        ii, jj, lbs = candidate_cell_bounds(idx, qrep, w, a, b)
        assert stats.candidate_cells <= int((lbs < prob.empty_dist).sum())
        if delta == 0:
            searched, receiving = self.replay(spark, sdf, prob, idx, ii, jj, lbs, a, b)
            assert searched < receiving  # the instance makes the breaks fire
            assert stats.candidate_cells == searched
