"""Spark-built grid-index summaries: identical to the NumPy build, the
Lemma-8 lookups agree with DuckDB block counts, and a partition's channel
weights under the global metadata are the whole table's rows."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator, avg, dist_agg, prepare_meta, sum_agg
from repro.core.gridindex import build_grid_index, gi_ds
from repro.oracle import assert_equivalent
from repro.spark.search import gi_ds_distributed
from repro.spark.summaries import avg_spec_minmax, build_grid_index_spark
from tests.conftest import COLORS, aggregator_zoo, random_objects, random_query

F_MIXED = CompositeAggregator(
    (dist_agg("color", domain=COLORS), sum_agg("val"), avg("val"))
)


@pytest.fixture(scope="module")
def pdf():
    return random_objects(np.random.default_rng(7), 400)


@pytest.fixture(scope="module")
def sdf(spark, pdf):
    return spark.createDataFrame(pdf).cache()


def _bounds(pdf):
    return (
        float(pdf["x"].min()), float(pdf["x"].max()),
        float(pdf["y"].min()), float(pdf["y"].max()),
    )


class TestChannelWeights:
    def test_partitions_stack_to_whole_table_weights(self):
        """Seeded property: under the global metadata, channel weights of
        random row partitions, stacked, are exactly the whole table's."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pdf = random_objects(rng, int(rng.integers(1, 80)))
            # fD values outside the domain; rounded values put several
            # objects on the fA range ends amin / amax
            pdf.loc[rng.random(len(pdf)) < 0.2, "color"] = "purple"
            pdf["val"] = np.round(pdf["val"] / 5.0) * 5.0
            for F in aggregator_zoo():
                minmax = {}
                for i, spec in enumerate(F.specs):
                    v = pdf["val"][spec.gamma.mask(pdf)]
                    minmax[i] = (v.min(), v.max()) if len(v) else (0.0, 0.0)
                meta = prepare_meta(F, minmax=minmax)
                perm = rng.permutation(len(pdf))
                parts = np.split(perm, np.sort(rng.integers(0, len(pdf) + 1, 3)))
                stacked = np.concatenate(
                    [meta.channel_weights(pdf.iloc[p]) for p in parts]
                )
                np.testing.assert_array_equal(stacked, F.prepare(pdf).weights[perm])


class TestCellSums:
    def test_cell_counts_vs_duckdb(self, spark, sdf, pdf):
        """Per-cell counts from the Spark index's count plane (Lemma-8
        single-cell lookups) checked with the DuckDB oracle."""
        sxg = syg = 6
        x0, _, y0, _ = bounds = _bounds(pdf)
        idx, _ = build_grid_index_spark(sdf, F_MIXED, sxg, syg, bounds=bounds)
        cw, chh = idx.cw, idx.ch
        ii, jj = np.meshgrid(np.arange(sxg), np.arange(syg), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        cnt = idx.region_sums(ii, ii + 1, jj, jj + 1)[:, -1]
        got = spark.createDataFrame(pd.DataFrame({"ci": ii, "cj": jj, "cnt": cnt}))
        sql = f"""
            WITH tagged AS (
              SELECT LEAST(GREATEST(CAST(FLOOR((x - {x0}) / {cw}) AS BIGINT), 0), {sxg - 1}) AS ci,
                     LEAST(GREATEST(CAST(FLOOR((y - {y0}) / {chh}) AS BIGINT), 0), {syg - 1}) AS cj
              FROM obj
            ), grid AS (
              SELECT a.r AS ci, b.r AS cj
              FROM (SELECT UNNEST(RANGE({sxg})) AS r) a, (SELECT UNNEST(RANGE({syg})) AS r) b
            )
            SELECT g.ci, g.cj, CAST(COALESCE(t.cnt, 0) AS DOUBLE) AS cnt
            FROM grid g LEFT JOIN (
              SELECT ci, cj, COUNT(*) AS cnt FROM tagged GROUP BY ci, cj
            ) t USING (ci, cj)
        """
        assert_equivalent(got, sql, obj=pdf)


class TestSparkIndexEqualsNumpyIndex:
    @pytest.mark.parametrize("grid", [(4, 4), (8, 6), (16, 16)])
    def test_suffix_planes_identical(self, sdf, pdf, grid):
        sxg, syg = grid
        bounds = _bounds(pdf)
        for F in aggregator_zoo():
            spark_idx, _ = build_grid_index_spark(sdf, F, sxg, syg, bounds=bounds)
            numpy_idx = build_grid_index(pdf, F, sxg, syg, bounds=bounds)
            np.testing.assert_array_equal(spark_idx.suffix[-1], numpy_idx.suffix[-1])
            np.testing.assert_allclose(spark_idx.suffix, numpy_idx.suffix, atol=1e-6)
            assert spark_idx.cw == pytest.approx(numpy_idx.cw)
            assert spark_idx.ch == pytest.approx(numpy_idx.ch)

    def test_minmax_matches_core(self, sdf, pdf):
        mm = avg_spec_minmax(sdf, F_MIXED)
        prepared = F_MIXED.prepare(pdf)
        i = 2  # the avg spec
        assert mm[i][0] == pytest.approx(prepared.specs[i].amin)
        assert mm[i][1] == pytest.approx(prepared.specs[i].amax)

    def test_meta_prepared_bounds_equal_core_bounds(self, sdf, pdf):
        """The metadata-only Prepared must produce the same sandwiches as
        the data-bound one."""
        spark_idx, _ = build_grid_index_spark(sdf, F_MIXED, 8, 8)
        core = F_MIXED.prepare(pdf)
        rng = np.random.default_rng(0)
        full = rng.uniform(0, 5, core.n_channels)
        cover = full + rng.uniform(0, 5, core.n_channels)
        lo1, hi1 = core.bounds_from_sums(full, cover)
        lo2, hi2 = spark_idx.prepared.bounds_from_sums(full, cover)
        np.testing.assert_allclose(lo1, lo2)
        np.testing.assert_allclose(hi1, hi2)


class TestInputContract:
    def test_empty_dataframe_gives_zero_index(self, sdf, pdf):
        empty = sdf.where(sf.lit(False))
        for F in aggregator_zoo():
            spark_idx, _ = build_grid_index_spark(empty, F, 4, 5)
            numpy_idx = build_grid_index(pdf.iloc[:0], F, 4, 5)
            assert spark_idx.suffix.shape == numpy_idx.suffix.shape
            assert not spark_idx.suffix.any()
            assert (spark_idx.x0, spark_idx.cw) == (numpy_idx.x0, numpy_idx.cw)

    def test_distributed_on_empty_dataframe_equals_driver(self, sdf, pdf):
        F = aggregator_zoo()[-1]
        qrep, w = random_query(np.random.default_rng(3), F, pdf, 1.5, 1.5)
        d_dist, _, _ = gi_ds_distributed(sdf.where(sf.lit(False)), F, qrep, w, 1.5, 1.5, sx=4, sy=4)
        d_driver, _, _ = gi_ds(pdf.iloc[:0], F, qrep, w, 1.5, 1.5, sx=4, sy=4)
        assert d_dist == d_driver

    @pytest.mark.parametrize("col", ["x", "y"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_coordinates_rejected(self, sdf, col, bad):
        # Spark orders NaN above every value, so max() returns it
        bad_sdf = sdf.union(sdf.limit(1).withColumn(col, sf.lit(bad)))
        with pytest.raises(ValueError, match="finite"):
            build_grid_index_spark(bad_sdf, F_MIXED, 4, 4)

    def test_nonfinite_coordinates_rejected_with_explicit_bounds(self, sdf, pdf):
        bad_sdf = sdf.union(sdf.limit(1).withColumn("x", sf.lit(float("nan"))))
        with pytest.raises(Exception, match="finite"):
            build_grid_index_spark(bad_sdf, F_MIXED, 4, 4, bounds=_bounds(pdf))
