"""Table 4: evolving explanations of the S&P500-like index.

KPI = SUM(price*share) over the hierarchical explain-by attributes
(category, subcategory, stock); TSExplain with elbow-selected K.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.core.precompute import series_matrix_pandas  # noqa: E402
from repro.datasets import sp500_like  # noqa: E402
from repro.eval.harness import segments_table  # noqa: E402


def run(spark=None) -> pd.DataFrame:
    sp = sp500_like.generate()
    rel = sp.relation()
    rel["mv"] = rel["price"] * rel["share"]
    sm = series_matrix_pandas(rel, "date", list(sp.attrs), "mv")
    res = explain_series(
        sm.S, sm.labels, list(sm.attrs), sm.total, Config(), times=sm.times,
    )
    print(
        f"[table4] K={res.K} cuts={res.cuts} gt={sp.gt_cuts} "
        f"eps={res.epsilon} total_var={res.total_variance:.3f}"
    )
    tab = segments_table(res.segments)
    tab["K"] = res.K
    return tab


def main() -> None:
    save_table(run(), "table4_sp500", "Table 4 — S&P500-like evolving explanations")


if __name__ == "__main__":
    main()
