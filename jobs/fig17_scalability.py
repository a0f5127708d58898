"""Fig. 17 (as a table): scalability in the time-series length n.

Synthetic series (Sec. 4.2.1 procedure) at growing lengths; Vanilla vs fully
optimized TSExplain. As in the paper, a method is dropped once it exceeds the
latency budget (paper: 100 s). Expected shape: Vanilla grows superlinearly
(O(n^2) CA calls + O(n^3) distances), optimized TSExplain much flatter.

Knobs: REPRO_FIG17_LENGTHS (comma list, default "100,200,400,800,1600"),
REPRO_FIG17_BUDGET seconds (default 100).
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_int, save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series  # noqa: E402
from repro.datasets import synthetic  # noqa: E402

VANILLA = Config(use_filter=False, use_gv=False, use_sketch=False)
OPT = Config()


def run(spark=None, lengths=None, budget=None, n_reps: int = 2) -> pd.DataFrame:
    lengths = lengths or [
        int(x)
        for x in os.environ.get("REPRO_FIG17_LENGTHS", "100,200,400,800,1600").split(",")
    ]
    budget = budget or env_int("REPRO_FIG17_BUDGET", 100)
    rows = []
    dead = {"Vanilla": False, "TSExplain": False}
    for n in lengths:
        for method, cfg in (("Vanilla", VANILLA), ("TSExplain", OPT)):
            if dead[method]:
                rows.append({"n": n, "method": method, "seconds": None})
                continue
            ts = []
            for rep in range(n_reps):
                sd = synthetic.generate(n=n, snr_db=40, seed=300 + rep)
                res = explain_series(
                    sd.S, sd.labels, list(sd.attrs), sd.total, cfg
                )
                ts.append(res.timings["total"])
            avg = sum(ts) / len(ts)
            rows.append({"n": n, "method": method, "seconds": round(avg, 3)})
            print(f"[fig17] {rows[-1]}")
            if avg > budget:
                dead[method] = True
    return pd.DataFrame(rows)


def main() -> None:
    save_table(run(), "fig17_scalability", "Fig. 17 — scalability in n")


if __name__ == "__main__":
    main()
