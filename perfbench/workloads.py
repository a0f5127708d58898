"""The benchmark's seeded workloads.

Each workload turns a seed into a relation, hands the relation to Spark, and
returns a :class:`Prepared` holding the user's query (one
``explain_relation`` call) plus what the correctness gate needs: the same
relation as a DuckDB view and, for planted stand-ins, the planted cuts.
The program only ever receives the generated relation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import duckdb
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import pipeline
from repro.core.pipeline import Config, ExplainResult
from repro.datasets import covid_like, liquor_like

# Sizes. Liquor is the paper-sized stand-in; the paper-sized Covid (n=345)
# takes about 15 s per warm call on a 4-core box, too long for a run of the
# benchmark, and n=160 keeps its layer profile (see DESIGN.md).
LIQUOR_N = 128  # n >= 128 keeps the sketch at 65 positions: phase II on Spark
# With 300 combos the elbow loses the planted cut at day 90 on some seeds
# (K=6); with 600 it finds all seven regimes on every seed tried.
LIQUOR_COMBOS = 600
COVID_N = 160
# How far a found cut may sit from its planted cut, in positions: noise at
# the end of a planted ramp moves a cut by a day or two. The tolerance
# tests/test_relation_pipeline.py allows on covid.
PLANTED_TOLERANCE = 4


@dataclass
class Prepared:
    """One workload, ready to call."""

    call: Callable[[], ExplainResult]
    oracle: duckdb.DuckDBPyConnection  # view ``rel`` = the relation
    time_col: str
    measure: str
    planted_cuts: Optional[List[int]] = None

    def close(self) -> None:
        self.oracle.close()


def _oracle(pdf: pd.DataFrame) -> duckdb.DuckDBPyConnection:
    """A DuckDB connection whose view ``rel`` is the workload's relation."""
    con = duckdb.connect()
    con.register("rel", pdf)
    return con


def _cached(spark: SparkSession, pdf: pd.DataFrame):
    df = spark.createDataFrame(pdf).cache()
    df.count()
    return df


def liquor_opt(spark: SparkSession, seed: int) -> Prepared:
    lq = liquor_like.generate(n=LIQUOR_N, n_combos=LIQUOR_COMBOS, seed=seed)
    pdf = lq.relation()
    df = _cached(spark, pdf)
    attrs = list(lq.attrs)
    return Prepared(
        call=lambda: pipeline.explain_relation(
            df, "date", attrs, "bottles", "sum", Config()
        ),
        oracle=_oracle(pdf),
        time_col="date",
        measure="bottles",
        planted_cuts=lq.gt_cuts,
    )


def covid_exact(spark: SparkSession, seed: int) -> Prepared:
    cv = covid_like.generate(n=COVID_N, seed=seed)
    pdf = cv.relation()[["date", "state", "daily_confirmed"]]
    df = _cached(spark, pdf)
    return Prepared(
        call=lambda: pipeline.explain_relation(
            df, "date", ["state"], "daily_confirmed", "sum",
            Config(use_sketch=False),
        ),
        oracle=_oracle(pdf),
        time_col="date",
        measure="daily_confirmed",
        planted_cuts=cv.gt_cuts,
    )


WORKLOADS = {
    "liquor-opt": liquor_opt,
    "covid-exact": covid_exact,
}
