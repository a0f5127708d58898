"""Spark GROUPING SETS precompute: DuckDB oracle equivalence, pandas-mirror
parity, relational support filter, odd column names."""
import numpy as np
import pytest

from repro.core.precompute import (
    TIME,
    VAL,
    _gcol,
    candidate_series,
    filter_support_spark,
    series_matrix,
    series_matrix_pandas,
    to_matrix,
)
from repro.core.filtering import support_mask
from repro.datasets import liquor_like, synthetic
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def synth_rel():
    return synthetic.generate(n=30, seed=21).relation_sum()


class TestCubeOracle:
    def test_single_attr_sum(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        got = candidate_series(sdf, "T", ["category"], "sales", "sum").drop("__order")
        sql = f"""
            SELECT T AS "{TIME}", category,
                   GROUPING(category) AS "{_gcol('category')}",
                   SUM(sales) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((T), (T, category))
        """
        assert_equivalent(got, sql, r=synth_rel)

    def test_single_attr_count(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        got = candidate_series(sdf, "T", ["category"], "sales", "count").drop("__order")
        sql = f"""
            SELECT T AS "{TIME}", category,
                   GROUPING(category) AS "{_gcol('category')}",
                   COUNT(sales) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((T), (T, category))
        """
        assert_equivalent(got, sql, r=synth_rel)

    def test_multi_attr_beta2(self, spark):
        lq = liquor_like.generate(n=12, n_combos=40, seed=2)
        rel = lq.relation()[["date", "BV", "P", "bottles"]].copy()
        rel["date"] = rel["date"].astype(str)
        sdf = spark.createDataFrame(rel)
        got = candidate_series(sdf, "date", ["BV", "P"], "bottles", "sum", beta_max=2)
        got = got.drop("__order")
        sql = f"""
            SELECT date AS "{TIME}", BV, P,
                   GROUPING(BV) AS "{_gcol('BV')}",
                   GROUPING(P) AS "{_gcol('P')}",
                   SUM(bottles) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((date), (date, BV), (date, P), (date, BV, P))
        """
        assert_equivalent(got, sql, r=rel)

    def test_beta_max_limits_order(self, spark):
        lq = liquor_like.generate(n=8, n_combos=30, seed=3)
        rel = lq.relation()
        rel["date"] = rel["date"].astype(str)
        sdf = spark.createDataFrame(rel)
        got = candidate_series(sdf, "date", list(lq.attrs), "bottles", beta_max=2)
        orders = {r["__order"] for r in got.select("__order").distinct().collect()}
        assert orders <= {0, 1, 2}

    def test_derived_measure_expr(self, spark):
        import pandas as pd

        rel = pd.DataFrame(
            {"t": [1, 1, 2, 2], "g": list("abab"), "x": [1.0, 2, 3, 4], "y": [2.0, 2, 2, 2]}
        )
        sdf = spark.createDataFrame(rel)
        got = candidate_series(sdf, "t", ["g"], "x*y", "sum").drop("__order")
        sql = f"""
            SELECT t AS "{TIME}", g, GROUPING(g) AS "{_gcol('g')}",
                   SUM(x*y) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((t), (t, g))
        """
        assert_equivalent(got, sql, r=rel)


class TestMatrixParity:
    def test_spark_equals_pandas(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        sm_s = series_matrix(sdf, "T", ["category"], "sales", "sum")
        sm_p = series_matrix_pandas(synth_rel, "T", ["category"], "sales", "sum")
        assert set(sm_s.labels) == set(sm_p.labels)
        idx = {e: i for i, e in enumerate(sm_s.labels)}
        perm = [idx[e] for e in sm_p.labels]
        np.testing.assert_allclose(sm_s.S[perm], sm_p.S)
        np.testing.assert_allclose(sm_s.total, sm_p.total)
        assert sm_s.times == sm_p.times

    def test_multiattr_parity(self, spark):
        lq = liquor_like.generate(n=10, n_combos=50, seed=4)
        rel = lq.relation()
        sm_s = series_matrix(
            spark.createDataFrame(rel), "date", list(lq.attrs), "bottles", beta_max=3
        )
        sm_p = series_matrix_pandas(rel, "date", list(lq.attrs), "bottles", beta_max=3)
        assert set(sm_s.labels) == set(sm_p.labels)
        idx = {e: i for i, e in enumerate(sm_s.labels)}
        perm = [idx[e] for e in sm_p.labels]
        np.testing.assert_allclose(sm_s.S[perm], sm_p.S)

    def test_missing_slices_are_zero(self, spark):
        import pandas as pd

        rel = pd.DataFrame({"t": [1, 2, 2], "g": ["a", "a", "b"], "x": [5.0, 6.0, 7.0]})
        sm = series_matrix(spark.createDataFrame(rel), "t", ["g"], "x")
        from repro.core.types import Explanation

        row_b = sm.labels.index(Explanation.of(g="b"))
        np.testing.assert_allclose(sm.S[row_b], [0.0, 7.0])


class TestFilterSpark:
    def test_matches_matrix_filter(self, spark):
        lq = liquor_like.generate(n=10, n_combos=40, seed=6)
        rel = lq.relation()
        sdf = spark.createDataFrame(rel)
        cand = candidate_series(sdf, "date", list(lq.attrs), "bottles")
        for ratio in (0.001, 0.02, 0.2):
            sm_all = series_matrix(sdf, "date", list(lq.attrs), "bottles")
            mask = support_mask(sm_all.S, sm_all.total, ratio)
            kept_pdf = (
                filter_support_spark(cand, list(lq.attrs), ratio)
                .filter("__order >= 1")
                .toPandas()
            )
            sm_kept = to_matrix(
                __import__("pandas").concat(
                    [kept_pdf, cand.filter("__order = 0").toPandas()]
                ),
                list(lq.attrs),
            )
            assert set(sm_kept.labels) == {
                e for e, k in zip(sm_all.labels, mask) if k
            }, f"ratio {ratio}"

    def test_keeps_total_rows(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        cand = candidate_series(sdf, "T", ["category"], "sales")
        out = filter_support_spark(cand, ["category"], 0.99)
        assert out.filter("__order = 0").count() == 30
        assert out.filter("__order >= 1").count() == 0


class TestOddColumnNames:
    def test_space_in_attribute_name(self, spark):
        """Explain-by names are quoted in the cube SQL and the filter join."""
        lq = liquor_like.generate(n=10, n_combos=30, seed=5)
        rel = lq.relation().rename(columns={"BV": "bottle volume"})
        attrs = ["bottle volume", "P"]
        sm_p = series_matrix_pandas(rel, "date", attrs, "bottles", beta_max=2)
        for ratio in (None, 0.02):
            sm_s = series_matrix(
                spark.createDataFrame(rel), "date", attrs, "bottles",
                beta_max=2, filter_ratio=ratio,
            )
            keep = (
                support_mask(sm_p.S, sm_p.total, ratio)
                if ratio is not None
                else np.ones(len(sm_p.labels), dtype=bool)
            )
            want = {e: row for e, row, k in zip(sm_p.labels, sm_p.S, keep) if k}
            assert set(sm_s.labels) == set(want)
            for e, row in zip(sm_s.labels, sm_s.S):
                np.testing.assert_allclose(row, want[e])
            np.testing.assert_allclose(sm_s.total, sm_p.total)
