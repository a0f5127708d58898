"""Table 7: quality of the optimization strategies — total within-segment
variance of VanillaTSExplain vs the fully optimized O1+O2 pipeline.

Guess-and-verify is exact; filter and sketching approximate, so the optimized
variance may be equal or slightly higher. Both runs use the Vanilla run's
elbow-selected K so the objectives are directly comparable.

The Vanilla Liquor run is the heavy case (full epsilon, O(n^2) segments
through the batched CA kernel). ``REPRO_SMALL=1`` scales the datasets down
for smoke runs.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_flag, save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.core.precompute import series_matrix_pandas  # noqa: E402
from repro.datasets import covid_like, liquor_like, sp500_like  # noqa: E402


def _series(small: bool):
    n_cv, n_sp, n_lq = (120, 60, 48) if small else (345, 151, 128)
    combos = 150 if small else 600
    cv = covid_like.generate(n=n_cv)
    out = []
    for kind in ("total", "daily"):
        S, total = cv.series(kind)
        out.append((f"{kind}-confirmed-cases", S, cv.labels, list(cv.attrs), total))
    sp = sp500_like.generate(n=n_sp)
    rel = sp.relation()
    rel["mv"] = rel["price"] * rel["share"]
    sm = series_matrix_pandas(rel, "date", list(sp.attrs), "mv")
    out.append(("S&P 500", sm.S, sm.labels, list(sm.attrs), sm.total))
    lq = liquor_like.generate(n=n_lq, n_combos=combos)
    sm = series_matrix_pandas(lq.relation(), "date", list(lq.attrs), "bottles")
    out.append(("Liquor", sm.S, sm.labels, list(sm.attrs), sm.total))
    return out


VANILLA = Config(use_filter=False, use_gv=False, use_sketch=False)


def run(spark=None, small: bool = False) -> pd.DataFrame:
    rows = []
    for name, S, labels, attrs, total in _series(small):
        van = explain_series(S, labels, attrs, total, VANILLA)
        opt = explain_series(
            S, labels, attrs, total, Config(K=van.K)
        )
        rows.append(
            {
                "dataset": name,
                "K": van.K,
                "variance_vanilla": round(van.total_variance, 4),
                "variance_o1_o2": round(opt.total_variance, 4),
                "vanilla_seconds": round(van.timings["total"], 2),
                "opt_seconds": round(opt.timings["total"], 2),
            }
        )
        print(f"[table7] {rows[-1]}")
    return pd.DataFrame(rows)


def main() -> None:
    save_table(
        run(small=env_flag("REPRO_SMALL")),
        "table7_quality",
        "Table 7 — optimization quality",
    )


if __name__ == "__main__":
    main()
