"""The one cube pivot, ``precompute.to_matrix``, on hand-built long-format
cube rows: label order, the NULL rule, and the integer key's re-ranking."""
import itertools

import numpy as np
import pandas as pd

from repro.core.precompute import TIME, VAL, _gcol, series_matrix_pandas, to_matrix
from repro.core.types import Explanation


def _cube(rows, attrs):
    """Long-format cube rows from (t, {attr: value}, val); an attribute
    missing from the dict is outside the row's grouping set."""
    recs = []
    for t, vals, v in rows:
        rec = {TIME: t, VAL: v}
        for a in attrs:
            rec[a] = vals.get(a)
            rec[_gcol(a)] = int(a not in vals)
        recs.append(rec)
    return pd.DataFrame(recs)


def test_label_order_pattern_then_values():
    attrs = ["a", "b"]
    rows = [
        (2, {}, 10.0),
        (1, {}, 5.0),
        (1, {"b": "y"}, 1.0),
        (1, {"a": "q"}, 2.0),
        (2, {"a": "p", "b": "y"}, 3.0),
        (1, {"a": "p"}, 4.0),
        (2, {"b": "x"}, 6.0),
        (1, {"a": "p", "b": "x"}, 7.0),
    ]
    sm = to_matrix(_cube(rows, attrs), attrs)
    assert sm.times == [1, 2]
    np.testing.assert_array_equal(sm.total, [5.0, 10.0])
    # Flag pattern (a, b) ascending: (0, 0), (0, 1), (1, 0); then values.
    assert [e.label for e in sm.labels] == [
        "a=p & b=x", "a=p & b=y", "a=p", "a=q", "b=x", "b=y"
    ]
    np.testing.assert_array_equal(
        sm.S, [[7, 0], [0, 3], [4, 0], [2, 0], [0, 6], [1, 0]]
    )


def test_null_values_and_times_are_dropped():
    attrs = ["a"]
    rows = [
        (1, {}, 5.0),
        (1, {"a": None}, 2.0),  # a genuine NULL value: no a=NULL label
        (1, {"a": "p"}, 3.0),
        (None, {}, 9.0),  # a NULL time: on no point of the series
        (None, {"a": "p"}, 9.0),
    ]
    sm = to_matrix(_cube(rows, attrs), attrs)
    assert sm.times == [1]
    assert sm.labels == [Explanation.of(a="p")]
    np.testing.assert_array_equal(sm.S, [[3.0]])
    np.testing.assert_array_equal(sm.total, [5.0])


def test_wide_key_is_reranked_without_changing_order():
    """Five attributes with 10^4 values each overflow an int64 mixed radix;
    the key is re-ranked and the order stays (pattern, values)."""
    attrs = list("abcde")
    n_vals = 10_000
    mult = dict(zip(attrs, (3, 7, 9, 11, 13)))  # coprime to n_vals
    rows = [(0, {}, 1.0), (0, {"c": 7}, 2.0)]
    rows += [
        (0, {a: (i * mult[a]) % n_vals for a in attrs}, float(i)) for i in range(n_vals)
    ]
    sm = to_matrix(_cube(rows, attrs), attrs)
    assert len(sm.labels) == n_vals + 1
    values = [tuple(v for _, v in e.preds) for e in sm.labels[:-1]]
    assert values == sorted(values) and values[0] == (0,) * 5
    assert sm.labels[-1] == Explanation.of(c=7)
    # Each row kept its own value: row i carries a = 3i mod n_vals.
    i = sm.S[:-1, 0].astype(int)
    assert [v[0] for v in values] == list(i * mult["a"] % n_vals)
    assert sm.S[-1, 0] == 2.0


def test_pandas_engine_matches_reference_pivot():
    """series_matrix_pandas equals a direct per-explanation sum, in the
    pivot's label order, with integer values kept as integers."""
    rng = np.random.default_rng(1)
    rel = pd.DataFrame(
        {
            "t": rng.integers(0, 6, 200),
            "g": rng.choice(["u", "v", "w"], 200),
            "h": rng.choice([3, 5], 200),
            "x": rng.uniform(0, 10, 200),
        }
    )
    sm = series_matrix_pandas(rel, "t", ["g", "h"], "x")
    want = {}
    for r in (1, 2):
        for sub in itertools.combinations(["g", "h"], r):
            for key, grp in rel.groupby(list(sub)):
                key = key if isinstance(key, tuple) else (key,)
                ser = grp.groupby("t")["x"].sum().reindex(range(6), fill_value=0.0)
                want[Explanation(tuple(zip(sub, key)))] = ser.to_numpy()
    assert set(sm.labels) == set(want)
    for e, row in zip(sm.labels, sm.S):
        np.testing.assert_allclose(row, want[e])
    assert all(type(v) is int for e in sm.labels for a, v in e.preds if a == "h")
    np.testing.assert_allclose(sm.total, rel.groupby("t")["x"].sum().to_numpy())
