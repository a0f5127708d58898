"""Table 5: evolving explanations of the Liquor-like bottles-sold series.

KPI = SUM(bottles) over four explain-by attributes (BV, P, CN, VN) with a
candidate count in the thousands; TSExplain with elbow-selected K.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.core.precompute import series_matrix_pandas  # noqa: E402
from repro.datasets import liquor_like  # noqa: E402
from repro.eval.harness import segments_table  # noqa: E402


def run(spark=None) -> pd.DataFrame:
    lq = liquor_like.generate()
    sm = series_matrix_pandas(lq.relation(), "date", list(lq.attrs), "bottles")
    res = explain_series(
        sm.S, sm.labels, list(sm.attrs), sm.total, Config(), times=sm.times,
    )
    print(
        f"[table5] K={res.K} cuts={res.cuts} gt={lq.gt_cuts} "
        f"eps={res.epsilon} filtered_eps={res.filtered_epsilon} "
        f"total_var={res.total_variance:.3f}"
    )
    tab = segments_table(res.segments)
    tab["K"] = res.K
    return tab


def main() -> None:
    save_table(run(), "table5_liquor", "Table 5 — Liquor-like evolving explanations")


if __name__ == "__main__":
    main()
