"""Fig. 16 (as a table): end-to-end latency, TSExplain vs baselines.

Baselines segment on visual shape only, so (as in the paper) we add the CA
explanation step on their output segments and report segmentation +
explanation time separately. TSExplain (optimized) and VanillaTSExplain are
reported as a single interleaved total. All methods use the optimal K found
by TSExplain. Expected shape: optimized TSExplain fastest overall, FLUSS the
slowest baseline.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_flag, save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.eval.harness import explain_fixed_cuts, run_baseline  # noqa: E402
from repro.segbase import BASELINES  # noqa: E402
from table7_quality import VANILLA, _series  # noqa: E402


def run(spark=None, small: bool = False) -> pd.DataFrame:
    rows = []
    for name, S, labels, attrs, total in _series(small):
        opt = explain_series(S, labels, attrs, total, Config())
        rows.append(
            {
                "dataset": name,
                "method": "TSExplain",
                "segmentation_s": round(opt.timings["total"], 3),
                "explanation_s": 0.0,
                "total_s": round(opt.timings["total"], 3),
            }
        )
        van = explain_series(S, labels, attrs, total, VANILLA)
        rows.append(
            {
                "dataset": name,
                "method": "VanillaTSExplain",
                "segmentation_s": round(van.timings["total"], 3),
                "explanation_s": 0.0,
                "total_s": round(van.timings["total"], 3),
            }
        )
        for bname in BASELINES:
            cuts, seg_t = run_baseline(bname, total, opt.K)
            t0 = time.perf_counter()
            explain_fixed_cuts(S, labels, attrs, cuts, m=3, use_gv=True)
            expl_t = time.perf_counter() - t0
            rows.append(
                {
                    "dataset": name,
                    "method": bname,
                    "segmentation_s": round(seg_t, 3),
                    "explanation_s": round(expl_t, 3),
                    "total_s": round(seg_t + expl_t, 3),
                }
            )
        print(f"[fig16] {name} done")
    return pd.DataFrame(rows)


def main() -> None:
    save_table(
        run(small=env_flag("REPRO_SMALL")), "fig16_e2e", "Fig. 16 — end-to-end latency"
    )


if __name__ == "__main__":
    main()
