"""Join-aggregation-pivot integration on TPC-H-lite: a revenue KPI over
lineitem ⋈ part, explained by (l_returnflag, l_linestatus, p_brand).

Exercises the shuffle join + GROUPING SETS aggregation + pivot path
end-to-end, with DuckDB oracle checks on the relational stages.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.pipeline import Config, explain_relation
from repro.core.precompute import TIME, VAL, _gcol, candidate_series, series_matrix
from repro.oracle import assert_equivalent
from repro.synth_data import lineitem, part

SF = 0.002
ATTRS = ["l_returnflag", "l_linestatus", "p_brand"]


@pytest.fixture(scope="module")
def joined(spark):
    li = lineitem(spark, sf=SF)
    pt = part(spark, sf=SF)
    df = (
        li.join(pt, li.l_partkey == pt.p_partkey)
        .withColumn("month", F.date_format("l_shipdate", "yyyy-MM"))
        .withColumn("revenue", F.col("l_extendedprice") * (1 - F.col("l_discount")))
        .select("month", *ATTRS, "revenue")
    )
    df.cache().count()
    return df


class TestJoinAggSort:
    def test_kpi_series_vs_duckdb(self, spark, joined):
        got = (
            joined.groupBy("month")
            .agg(F.sum("revenue").alias("rev"))
            .orderBy("month")
        )
        li_pdf = lineitem(spark, sf=SF).toPandas()
        pt_pdf = part(spark, sf=SF).toPandas()
        sql = """
            SELECT strftime(l_shipdate, '%Y-%m') AS month,
                   SUM(l_extendedprice * (1 - l_discount)) AS rev
            FROM li JOIN pt ON l_partkey = p_partkey
            GROUP BY 1 ORDER BY 1
        """
        assert_equivalent(got, sql, li=li_pdf, pt=pt_pdf)

    def test_cube_order1_vs_duckdb(self, spark, joined):
        got = candidate_series(joined, "month", ATTRS, "revenue", beta_max=1).drop(
            "__order"
        )
        jp = joined.toPandas()
        gcols = [f'GROUPING({a}) AS "{_gcol(a)}"' for a in ATTRS]
        sets = ", ".join(["(month)"] + [f"(month, {a})" for a in ATTRS])
        sql = f"""
            SELECT month AS "{TIME}", {', '.join(ATTRS)}, {', '.join(gcols)},
                   SUM(revenue) AS "{VAL}"
            FROM j GROUP BY GROUPING SETS ({sets})
        """
        assert_equivalent(got, sql, j=jp)

    def test_explain_revenue_trend(self, spark, joined):
        res = explain_relation(
            joined, "month", ATTRS, "revenue", "sum", Config(K=4, beta_max=2)
        )
        assert res.K == 4
        assert res.epsilon > 30  # flags x statuses x brands
        assert len(res.segments) == 4
        for seg in res.segments:
            assert seg.explanations, "every segment gets top explanations"
            for label, sign, gamma in seg.explanations:
                assert sign in (-1, 1)
                assert gamma >= 0

    def test_series_sorted_by_time(self, spark, joined):
        """The cube comes back in no row order; the pivot sorts by time."""
        cand = candidate_series(joined, "month", ATTRS, "revenue", beta_max=1)
        pdf = cand.filter("__order = 0").toPandas().sort_values(TIME)
        sm = series_matrix(joined, "month", ATTRS, "revenue", beta_max=1)
        assert sm.times == sorted(sm.times) == list(pdf[TIME])
        np.testing.assert_allclose(sm.total, pdf[VAL].to_numpy())
