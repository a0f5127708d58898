"""Table 3: evolving explanations of the Covid-like daily-confirmed-cases
series (plus the total-confirmed-cases segmentation of Fig. 11).

TSExplain with elbow-selected K, m = 3; the planted ground truth mirrors the
paper's Table 3 narrative (see repro/datasets/covid_like.py).
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.datasets import covid_like  # noqa: E402
from repro.eval.harness import segments_table  # noqa: E402


def run(spark=None) -> pd.DataFrame:
    cv = covid_like.generate()
    frames = []
    for kind in ("daily", "total"):
        S, total = cv.series(kind)
        res = explain_series(
            S, cv.labels, list(cv.attrs), total, Config(), times=list(cv.dates),
        )
        tab = segments_table(res.segments)
        tab.insert(0, "series", kind)
        tab["K"] = res.K
        frames.append(tab)
        print(
            f"[table3] {kind}: K={res.K} cuts={res.cuts} "
            f"gt={cv.gt_cuts} total_var={res.total_variance:.3f}"
        )
    return pd.concat(frames, ignore_index=True)


def main() -> None:
    save_table(run(), "table3_covid", "Table 3 — Covid-like evolving explanations")


if __name__ == "__main__":
    main()
