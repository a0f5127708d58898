"""Pipeline module (a): per-explanation aggregated series.

The data cube the paper assumes ("data cube is typically maintained in
memory") is computed on Spark as one Catalyst aggregation,
``DataFrame.groupingSets``, the DataFrame form of

    SELECT T, A_1..A_k, grouping(A_i).., f(M)
    FROM R GROUP BY GROUPING SETS ((T), (T,A_1), .., (T,A_i,A_j), ..)

with one grouping set per attribute subset of size 0..beta_max. The size-0
set yields the overall aggregated time series ts(R); every other row belongs
to one candidate explanation's series ts(sigma_E R).

Both engines end in the same long-format cube rows (columns ``TIME``, the
attributes, their grouping flags and ``VAL``): Spark's :func:`candidate_series`
and the pandas aggregation in :func:`series_matrix_pandas`. One pivot,
:func:`to_matrix`, turns those rows into the eps x n :class:`SeriesMatrix` for
the downstream numpy/DP stages, so both engines give the same labels in the
same order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType

from repro.core.types import Explanation

VAL = "__val"
TIME = "__t"


def _gcol(attr: str) -> str:
    return f"__g_{attr}"


def _q(name: str) -> str:
    """Backtick-quoted identifier for Spark column references."""
    return "`" + name.replace("`", "``") + "`"


def _attr_subsets(attrs: Sequence[str], beta_max: int) -> List[Tuple[str, ...]]:
    """All explain-by subsets of size 0..beta_max (the grouping sets)."""
    out: List[Tuple[str, ...]] = [()]
    for r in range(1, min(beta_max, len(attrs)) + 1):
        out.extend(itertools.combinations(attrs, r))
    return out


def grouping_sets_agg(
    df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
    time_col: Optional[str] = None,
) -> DataFrame:
    """One aggregation row per (grouping set, group) — the candidate cube.

    Output columns: [TIME if time_col] + attrs + grouping flags + VAL. The
    grouping flag of an attribute is 1 when the attribute is not in the row's
    grouping set (its value is then NULL) and 0 when it is. A genuine NULL
    value therefore shows as flag 0 with a NULL value; how the pivot treats
    such rows is described in :func:`to_matrix`.
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported aggregate {agg!r} (decomposable only)")
    prefix = [time_col] if time_col else []
    sets = [
        [F.col(_q(c)) for c in [*prefix, *sub]]
        for sub in _attr_subsets(attrs, beta_max)
    ]
    measure = (F.sum if agg == "sum" else F.count)(F.expr(measure_expr))
    cube = df.groupingSets(sets, *[F.col(_q(c)) for c in [*prefix, *attrs]]).agg(
        *[F.grouping(F.col(_q(a))).alias(_gcol(a)) for a in attrs],
        measure.alias(VAL),
    )
    return cube.select(
        *([F.col(_q(time_col)).alias(TIME)] if time_col else []),
        *[F.col(_q(c)) for c in [*attrs, *map(_gcol, attrs), VAL]],
    )


def order_col(attrs: Sequence[str]) -> Column:
    """Explanation order of a cube row = number of concrete attributes."""
    return reduce(
        lambda a, b: a + b, [1 - F.col(_q(_gcol(a))) for a in attrs], F.lit(0)
    )


def candidate_series(
    df: DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> DataFrame:
    """Per-explanation + overall aggregated time series, in no particular
    row order (:func:`to_matrix` orders times and labels)."""
    cube = grouping_sets_agg(
        df, attrs, measure_expr, agg, beta_max, time_col=time_col
    )
    return cube.withColumn("__order", order_col(attrs))


@dataclass
class SeriesMatrix:
    """Pivoted cube: one row of ``S`` per candidate explanation."""

    S: np.ndarray  # (eps, n)
    labels: List[Explanation]
    total: np.ndarray  # (n,)
    times: List  # sorted distinct time values
    attrs: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def epsilon(self) -> int:
        return len(self.labels)


def to_matrix(pdf: pd.DataFrame, attrs: Sequence[str]) -> SeriesMatrix:
    """Pivot long-format cube rows (columns TIME, attrs, grouping flags, VAL)
    into a SeriesMatrix, in one scatter.

    Labels are ordered by grouping-flag pattern ascending (flags in ``attrs``
    order, so higher-order explanations come first), then by attribute values
    ascending. Missing (explanation, t) combinations mean "no rows in that
    slice at t" and become 0, which is exact for SUM/COUNT.

    NULL rule: a row whose explain-by value is NULL (flag 0, value missing)
    yields no ``attr=NULL`` explanation and is dropped here. The relation rows
    behind it still count in the overall series and in every explanation that
    does not constrain that attribute. A row with a NULL time belongs to no
    point of the series and is dropped too.
    """
    k = len(attrs)
    t_code, times = pd.factorize(pdf[TIME], sort=True)
    n = len(times)
    flags = pdf[[_gcol(a) for a in attrs]].to_numpy(dtype=np.int64)
    codes = np.empty((len(pdf), k), dtype=np.int64)
    uniques = []
    for i, a in enumerate(attrs):
        codes[:, i], u = pd.factorize(pdf[a], sort=True)
        uniques.append(u.tolist())
    val = pdf[VAL].to_numpy(dtype=float)

    pattern = flags @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    timed = t_code >= 0
    is_total = timed & (pattern == (1 << k) - 1)
    total = np.zeros(n)
    total[t_code[is_total]] = val[is_total]

    # One integer key per row, ordered like (pattern, value codes in attrs
    # order): mixed radix over code + 1, where code -1 means the attribute is
    # not in the row's grouping set. A key about to overflow is re-ranked.
    key, radix = pattern, 1 << k
    for i, u in enumerate(uniques):
        base = len(u) + 1
        if radix * base >= 1 << 63:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            radix = int(key.max(initial=0)) + 1
        key, radix = key * base + codes[:, i] + 1, radix * base
    null = ((codes < 0) & (flags == 0)).any(axis=1)
    keep = np.flatnonzero(timed & ~is_total & ~null)
    _, first, row = np.unique(key[keep], return_index=True, return_inverse=True)
    S = np.zeros((len(first), n))
    S[row.reshape(-1), t_code[keep]] = val[keep]
    labels = []
    for cs in codes[keep[first]].tolist():
        preds = [(a, u[c]) for a, u, c in zip(attrs, uniques, cs) if c >= 0]
        labels.append(Explanation(tuple(preds)))
    return SeriesMatrix(S=S, labels=labels, total=total, times=list(times), attrs=tuple(attrs))


def series_matrix_pandas(
    pdf: pd.DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_col: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """The cube aggregated in pandas, for driver-side jobs and tests.

    Emits the same long-format rows as :func:`candidate_series` and pivots
    them with the same :func:`to_matrix`, so it returns the same
    SeriesMatrix as :func:`series_matrix` (asserted by tests).
    ``measure_col`` must be a concrete column (pre-compute derived measures).
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported aggregate {agg!r}")
    parts = []
    for sub in _attr_subsets(attrs, beta_max):
        grp = pdf.groupby([time_col, *sub], sort=False, dropna=False)[measure_col]
        part = (grp.sum() if agg == "sum" else grp.count()).reset_index()
        for a in attrs:
            part[_gcol(a)] = int(a not in sub)
        parts.append(part.rename(columns={time_col: TIME, measure_col: VAL}))
    # Attributes outside a part's grouping set come out of the concat as NULL.
    cube = pd.concat(parts, ignore_index=True)
    ints = [a for a in attrs if pd.api.types.is_integer_dtype(pdf[a])]
    return to_matrix(_restore_ints(cube, ints), attrs)


def _restore_ints(cube: pd.DataFrame, int_attrs: Sequence[str]) -> pd.DataFrame:
    """An integer attribute with NULLs (every cube row outside its grouping
    sets) arrives as float from Arrow and from ``pd.concat``; give it back the
    relation's integer values, so labels read ``P=12``, not ``P=12.0``."""
    for a in int_attrs:
        cube[a] = cube[a].astype("Int64")
    return cube


def series_matrix(
    df: DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """End-to-end module (a): Spark cube → Arrow collect → matrix."""
    cand = candidate_series(df, time_col, attrs, measure_expr, agg, beta_max)
    cols = [TIME, *attrs, *[_gcol(a) for a in attrs], VAL]
    pdf = cand.select(*[F.col(_q(c)) for c in cols]).toPandas()
    ints = [
        f.name
        for f in cand.schema
        if f.name in attrs and isinstance(f.dataType, IntegralType)
    ]
    return to_matrix(_restore_ints(pdf, ints), attrs)
