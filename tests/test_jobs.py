"""Smoke tests for the table/figure jobs (scaled-down configurations)."""
import sys
from pathlib import Path

import pandas as pd
import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))

import fig6_variance_rank  # noqa: E402
import fig10_effectiveness  # noqa: E402
import fig15_latency  # noqa: E402
import fig16_e2e  # noqa: E402
import fig17_scalability  # noqa: E402
import table3_covid  # noqa: E402
import table4_sp500  # noqa: E402
import table5_liquor  # noqa: E402
import table6_stats  # noqa: E402
import table7_quality  # noqa: E402
from repro.datasets import covid_like, liquor_like, sp500_like  # noqa: E402


@pytest.mark.slow
class TestTableJobs:
    def test_table3(self):
        df = table3_covid.run()
        assert set(df["series"]) == {"daily", "total"}
        assert {"Top-1 Expl", "Top-2 Expl", "Top-3 Expl"} <= set(df.columns)
        daily = df[df.series == "daily"]
        # daily recovers the planted Table-3 structure
        assert len(daily) == 7
        tops = [s.split(" ")[0] for s in daily["Top-1 Expl"]]
        expected = [seg[0][0] for seg in covid_like.EXPECTED_TOP3]
        assert tops == expected

    def test_table4(self):
        df = table4_sp500.run()
        assert len(df) == 4
        got = [
            (row["Top-1 Expl"], row["Top-2 Expl"], row["Top-3 Expl"])
            for _, row in df.iterrows()
        ]
        for row, exp in zip(got, sp500_like.EXPECTED_TOP3):
            for cell, (label, sign) in zip(row, exp):
                assert cell == f"{label} {'+' if sign > 0 else '-'}"

    def test_table5(self):
        df = table5_liquor.run()
        assert len(df) == 7
        for (_, row), exp in zip(df.iterrows(), liquor_like.EXPECTED_TOP3):
            for r, (label, sign) in enumerate(exp, start=1):
                assert row[f"Top-{r} Expl"] == f"{label} {'+' if sign > 0 else '-'}"

    def test_table6(self):
        df = table6_stats.run()
        assert list(df["dataset"]) == [
            "total-confirmed-cases",
            "daily-confirmed-cases",
            "S&P 500",
            "Liquor",
        ]
        assert (df["filtered_epsilon"] <= df["epsilon"]).all()
        liquor = df[df.dataset == "Liquor"].iloc[0]
        assert liquor["epsilon"] > 1000  # large-eps regime
        assert liquor["n"] == 128


@pytest.mark.slow
class TestQualityAndLatencyJobs:
    def test_table7_small(self):
        df = table7_quality.run(small=True)
        assert len(df) == 4
        # O1 is exact; filter/sketch approximate AND the filter changes the
        # gamma landscape the variance is measured under, so the optimized
        # variance may deviate slightly in either direction (paper Table 7:
        # < 1% on Covid, identical elsewhere). Require "close".
        for _, row in df.iterrows():
            assert row["variance_o1_o2"] >= row["variance_vanilla"] * 0.95 - 1e-6
            assert row["variance_o1_o2"] <= row["variance_vanilla"] * 1.5 + 1.0

    def test_fig15_small_subset(self, monkeypatch):
        monkeypatch.setattr(
            fig15_latency,
            "VARIANTS",
            {k: fig15_latency.VARIANTS[k] for k in ("w filter", "O1+O2")},
        )
        df = fig15_latency.run(small=True)
        assert set(df["variant"]) == {"w filter", "O1+O2"}
        assert (df["total_s"] > 0).all()
        # Sketch phase I has its own column; without the sketch it is 0.
        assert (df.loc[df["variant"] == "w filter", "sketch_s"] == 0).all()
        assert (df.loc[df["variant"] == "O1+O2", "sketch_s"] > 0).all()

    def test_fig16_small(self, monkeypatch):
        # restrict to the two covid-like datasets for speed
        orig = table7_quality._series

        def two(small):
            return orig(small)[:1]

        monkeypatch.setattr(fig16_e2e, "_series", two)
        df = fig16_e2e.run(small=True)
        methods = set(df["method"])
        assert {"TSExplain", "VanillaTSExplain", "Bottom-Up", "FLUSS", "NNSegment"} <= methods

    def test_fig17_single_length(self):
        df = fig17_scalability.run(lengths=[60], budget=100, n_reps=1)
        assert set(df["method"]) == {"Vanilla", "TSExplain"}
        assert (df["seconds"] > 0).all()


@pytest.mark.slow
class TestEffectivenessJobs:
    def test_fig6_tiny(self):
        df = fig6_variance_rank.run(n_datasets=1, n_samples=100)
        assert len(df) == 7  # one row per SNR level
        metric_cols = [c for c in df.columns if c != "snr_db"]
        assert len(metric_cols) == 8
        # ranks are in [1, 8]
        assert ((df[metric_cols] >= 1) & (df[metric_cols] <= 8)).all().all()

    def test_fig10_tiny(self):
        df = fig10_effectiveness.run(n_datasets=1)
        assert len(df) == 7
        for col in ("TSExplain", "Bottom-Up", "FLUSS", "NNSegment"):
            assert (df[col] >= 0).all()
