"""Spark GROUPING SETS precompute: DuckDB oracle equivalence, one pivot for
the Spark and pandas engines (same labels, order and values), the NULL rule,
odd column names."""
import numpy as np
import pytest

from repro.core.precompute import (
    TIME,
    VAL,
    _gcol,
    SeriesMatrix,
    candidate_series,
    series_matrix,
    series_matrix_pandas,
)
from repro.core.types import Explanation
from repro.datasets import covid_like, liquor_like, synthetic
from repro.oracle import assert_equivalent


def assert_same_matrix(a: SeriesMatrix, b: SeriesMatrix) -> None:
    """Same labels in the same order (equal as values and as strings),
    bit-equal series and total, same times."""
    assert a.labels == b.labels
    assert [e.label for e in a.labels] == [e.label for e in b.labels]
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.total, b.total)
    assert a.times == b.times
    assert a.attrs == b.attrs


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
        assert_same_matrix(sm_s, sm_p)

    def test_multiattr_parity(self, spark):
        lq = liquor_like.generate(n=10, n_combos=50, seed=4)
        rel = lq.relation()
        sm_s = series_matrix(
            spark.createDataFrame(rel), "date", list(lq.attrs), "bottles", beta_max=3
        )
        sm_p = series_matrix_pandas(rel, "date", list(lq.attrs), "bottles", beta_max=3)
        assert_same_matrix(sm_s, sm_p)

    @pytest.mark.parametrize("name", ["liquor", "covid", "bottle volume"])
    def test_engines_give_the_same_matrix(self, spark, name):
        if name == "covid":
            rel = covid_like.generate(n=160, seed=1).relation()
            attrs, measure = ["state"], "daily_confirmed"
        else:
            lq = liquor_like.generate(n=128, n_combos=600, seed=1)
            rel, attrs, measure = lq.relation(), list(lq.attrs), "bottles"
            if name == "bottle volume":
                rel = rel.rename(columns={"BV": name})
                attrs = [name if a == "BV" else a for a in attrs]
        sm_s = series_matrix(spark.createDataFrame(rel), "date", attrs, measure)
        sm_p = series_matrix_pandas(rel, "date", attrs, measure)
        assert_same_matrix(sm_s, sm_p)
        # Integer attributes keep the relation's values: P=12, not P=12.0.
        assert not any(".0" in e.label for e in sm_s.labels)

    def test_missing_slices_are_zero(self, spark):
        import pandas as pd

        rel = pd.DataFrame({"t": [1, 2, 2], "g": ["a", "a", "b"], "x": [5.0, 6.0, 7.0]})
        sm = series_matrix(spark.createDataFrame(rel), "t", ["g"], "x")
        from repro.core.types import Explanation

        row_b = sm.labels.index(Explanation.of(g="b"))
        np.testing.assert_allclose(sm.S[row_b], [0.0, 7.0])


class TestNullValues:
    """NULL rule (``to_matrix``): a NULL explain-by value yields no
    ``attr=NULL`` explanation, but its rows count in the overall series and
    in every explanation that does not constrain that attribute."""

    def _rel(self):
        import pandas as pd

        return pd.DataFrame(
            {
                "t": [1, 1, 1, 2, 2, 2],
                "s": ["a", None, "b", "a", "b", None],
                "i": pd.array([7, 7, None, None, 8, 7], dtype="Int64"),
                "x": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            }
        )

    def test_same_rule_on_both_engines(self, spark):
        rel = self._rel()
        sm_s = series_matrix(spark.createDataFrame(rel), "t", ["s", "i"], "x")
        sm_p = series_matrix_pandas(rel, "t", ["s", "i"], "x")
        assert_same_matrix(sm_s, sm_p)
        np.testing.assert_array_equal(sm_s.total, [7.0, 56.0])
        want = {
            Explanation.of(s="a", i=7): [1.0, 0.0],
            Explanation.of(s="b", i=8): [0.0, 16.0],
            Explanation.of(s="a"): [1.0, 8.0],
            Explanation.of(s="b"): [4.0, 16.0],
            Explanation.of(i=7): [3.0, 32.0],
            Explanation.of(i=8): [0.0, 16.0],
        }
        assert set(sm_s.labels) == set(want)
        for e, row in zip(sm_s.labels, sm_s.S):
            np.testing.assert_array_equal(row, want[e], err_msg=e.label)
        assert all(isinstance(v, int) for e in sm_s.labels for a, v in e.preds if a == "i")


class TestOddColumnNames:
    def test_space_in_attribute_name(self, spark):
        """Explain-by names are quoted in the cube's column references."""
        lq = liquor_like.generate(n=10, n_combos=30, seed=5)
        rel = lq.relation().rename(columns={"BV": "bottle volume"})
        attrs = ["bottle volume", "P"]
        sm_p = series_matrix_pandas(rel, "date", attrs, "bottles", beta_max=2)
        sm_s = series_matrix(
            spark.createDataFrame(rel), "date", attrs, "bottles", beta_max=2
        )
        assert_same_matrix(sm_s, sm_p)
