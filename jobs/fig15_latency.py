"""Fig. 15 (as a table): latency breakdown of TSExplain per optimization.

Variants: Vanilla (no optimization), w-filter, O1 (filter + guess-and-verify),
O2 (filter + sketching), O1+O2 (everything). Per-variant stage timings
(precompute / CA / sketch phase I / k-seg) are reported so the bottleneck
shift is visible.
Expected shape: the CA stage dominates on the large-epsilon Liquor workload
and O1/O2 collapse it; absolute times are not comparable to the paper's C++.

``REPRO_SMALL=1`` scales the datasets down. Every variant runs CA in the
driver with the batched kernel.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_flag, save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from table7_quality import _series  # noqa: E402

VARIANTS = {
    "Vanilla": Config(use_filter=False, use_gv=False, use_sketch=False),
    "w filter": Config(use_gv=False, use_sketch=False),
    "O1": Config(use_sketch=False),
    "O2": Config(use_gv=False),
    "O1+O2": Config(),
}


def run(spark=None, small: bool = False) -> pd.DataFrame:
    rows = []
    for name, S, labels, attrs, total in _series(small):
        for variant, cfg in VARIANTS.items():
            res = explain_series(S, labels, attrs, total, cfg)
            rows.append(
                {
                    "dataset": name,
                    "variant": variant,
                    "precompute_s": round(res.timings["precompute"], 3),
                    "ca_s": round(res.timings["ca"], 3),
                    "sketch_s": round(res.timings["sketch"], 3),
                    "kseg_s": round(res.timings["kseg"], 3),
                    "total_s": round(res.timings["total"], 3),
                    "K": res.K,
                }
            )
            print(f"[fig15] {rows[-1]}")
    return pd.DataFrame(rows)


def main() -> None:
    save_table(
        run(small=env_flag("REPRO_SMALL")), "fig15_latency", "Fig. 15 — latency breakdown"
    )


if __name__ == "__main__":
    main()
