"""Correctness gate applied to every ``explain_relation`` result.

A fast wrong answer must count as a failed operation, so each result is
checked against:

1. DuckDB: every reported ``(gamma, sign)`` equals the slice's sum at the
   segment's end time minus its sum at the start time, recomputed from the
   workload's relation.
2. Def. 3.4: each segment's explanations are pairwise non-overlapping.
3. Determinism: K, cuts and top-list labels equal those of the run's first
   call.
4. For the planted stand-ins: the planted cuts are recovered.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core.pipeline import ExplainResult
from repro.core.types import Explanation, pairwise_non_overlapping

from workloads import PLANTED_TOLERANCE, Prepared

_REL_TOL = 1e-6


def parse_label(label: str) -> Tuple[Tuple[str, str], ...]:
    """``"BV=750 & P=12"`` -> (("BV", "750"), ("P", "12"))."""
    return tuple(tuple(p.split("=", 1)) for p in label.split(" & "))


def _param(t):
    return t.to_pydatetime() if isinstance(t, pd.Timestamp) else t


class Gate:
    """Checks results of one workload; DuckDB answers are memoised per
    (label, start, end) because every call of a run reports the same ones."""

    def __init__(self, prepared: Prepared) -> None:
        self.p = prepared
        self._delta: Dict[Tuple[str, object, object], float] = {}
        self._first: Optional[tuple] = None
        # Labels print values as the cube returned them (an int column with
        # NULLs in the cube comes back as float: "P=12.0"), so numeric
        # columns are compared as numbers, the rest as text.
        self._numeric = {
            name: any(k in typ for k in ("INT", "DOUBLE", "FLOAT", "DECIMAL"))
            for name, typ, *_ in prepared.oracle.execute("DESCRIBE rel").fetchall()
        }

    def _oracle_delta(self, label: str, start_t, end_t) -> float:
        key = (label, start_t, end_t)
        if key not in self._delta:
            preds = parse_label(label)
            where = " AND ".join(
                f'"{a}" = CAST(? AS DOUBLE)' if self._numeric[a] else f'CAST("{a}" AS VARCHAR) = ?'
                for a, _ in preds
            )
            t, m = self.p.time_col, self.p.measure
            sql = (
                f'SELECT COALESCE(SUM(CASE WHEN "{t}" = ? THEN "{m}" END), 0) '
                f'- COALESCE(SUM(CASE WHEN "{t}" = ? THEN "{m}" END), 0) '
                f"FROM rel WHERE {where}"
            )
            args = [_param(end_t), _param(start_t), *[v for _, v in preds]]
            self._delta[key] = float(self.p.oracle.execute(sql, args).fetchone()[0])
        return self._delta[key]

    def check(self, res: ExplainResult) -> List[str]:
        """Empty list when ``res`` passes; otherwise one message per defect."""
        errors: List[str] = []
        for seg in res.segments:
            where = f"segment [{seg.start}, {seg.end}]"
            for label, sign, gamma in seg.explanations:
                d = self._oracle_delta(label, seg.start_t, seg.end_t)
                if abs(gamma - abs(d)) > _REL_TOL * max(1.0, abs(d)):
                    errors.append(f"{where} {label}: gamma {gamma!r}, DuckDB {abs(d)!r}")
                if sign != int(np.sign(d)):
                    errors.append(f"{where} {label}: sign {sign}, DuckDB delta {d!r}")
            exps = [Explanation(parse_label(lab)) for lab, _, _ in seg.explanations]
            if not pairwise_non_overlapping(exps):
                errors.append(f"{where}: overlapping explanations {[e.label for e in exps]}")

        shape = (
            res.K,
            list(res.cuts),
            [[lab for lab, _, _ in seg.explanations] for seg in res.segments],
        )
        if self._first is None:
            self._first = shape
        elif shape != self._first:
            errors.append(f"result differs from the run's first call: {shape} vs {self._first}")

        planted = self.p.planted_cuts
        if planted is not None:
            tol = PLANTED_TOLERANCE
            if len(res.cuts) != len(planted) or any(
                abs(c - g) > tol for c, g in zip(sorted(res.cuts), planted)
            ):
                errors.append(f"cuts {res.cuts} miss planted {planted} (tolerance {tol})")
        return errors
