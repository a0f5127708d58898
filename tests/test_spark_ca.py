"""Top lists: the batched kernel behind ``compute_toplists`` against the
scalar per-segment oracle, and the Spark (mapInPandas) wrapper against the
local path."""
import numpy as np
import pytest

from repro.core import toplists
from repro.core.space import ExplanationSpace
from repro.core.spark_ca import compute_toplists_spark
from repro.core.toplists import _toplist_row, compute_toplists
from repro.core.types import Explanation


def _instance(seed=0, eps=8, n=25):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 100, (eps, n))
    labels = [Explanation.of(k=i) for i in range(eps)]
    space = ExplanationSpace(labels, ["k"])
    segs = [(s, e) for s in range(n - 1) for e in range(s + 1, n)]
    return S, space, segs


def _tied_instance(seed=0, n=14):
    """Multi-attribute space of order <= 3 over a small-integer series
    matrix: many zero and tied gammas."""
    rng = np.random.default_rng(seed)
    labels = (
        [Explanation.of(a=i) for i in range(3)]
        + [Explanation.of(a=i, b=j) for i in range(3) for j in range(3)]
        + [Explanation.of(b=j, c=k) for j in range(3) for k in range(2)]
        + [Explanation.of(a=i, b=j, c=k) for i in range(2) for j in range(2) for k in range(2)]
    )
    space = ExplanationSpace(labels, ["a", "b", "c"])
    S = rng.integers(0, 6, (space.n_nodes, n)).astype(float)
    S[~space.takeable] = 0.0  # closure rows, as the pipeline aligns them
    segs = [(s, e) for s in range(n - 1) for e in range(s + 1, n)]
    return S, space, segs


def _assert_same(a, b):
    np.testing.assert_array_equal(a.segments, b.segments)
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.gammas, b.gammas)
    np.testing.assert_array_equal(a.signs, b.signs)
    np.testing.assert_array_equal(a.idcg, b.idcg)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("use_gv", [False, True])
def test_batched_matches_scalar_rows(seed, m, use_gv):
    S, space, segs = _tied_instance(seed)
    tl = compute_toplists(S, space, segs, m, use_gv=use_gv, m_bar0=4)
    for r, seg in enumerate(segs):
        ids, gammas, signs = _toplist_row(S, space, seg, m, use_gv, 4)
        np.testing.assert_array_equal(tl.ids[r], ids)
        np.testing.assert_array_equal(tl.gammas[r], gammas)
        np.testing.assert_array_equal(tl.signs[r], signs)


@pytest.mark.parametrize("use_gv", [False, True])
def test_independent_of_chunk_size_and_segment_order(monkeypatch, use_gv):
    S, space, segs = _tied_instance(7)
    whole = compute_toplists(S, space, segs, 3, use_gv=use_gv, m_bar0=2)
    monkeypatch.setattr(toplists, "_CHUNK_BYTES", 1)  # one segment per chunk
    _assert_same(compute_toplists(S, space, segs, 3, use_gv=use_gv, m_bar0=2), whole)
    monkeypatch.setattr(
        toplists, "_CHUNK_BYTES", 7 * toplists._chunk_rows(space.n_nodes, 3)
    )
    rev = compute_toplists(S, space, segs[::-1], 3, use_gv=use_gv, m_bar0=2)
    for r, seg in enumerate(segs[::-1]):
        assert rev.top_ids(seg) == whole.top_ids(seg)
        assert rev.row(seg) == r


def test_no_segments():
    S, space, _ = _instance()
    tl = compute_toplists(S, space, [], 3)
    assert tl.ids.shape == (0, 3) and tl.idcg.shape == (0,)
    with pytest.raises(KeyError):
        tl.row((0, 1))


def test_row_lookup():
    S, space, segs = _instance(n=6)
    tl = compute_toplists(S, space, segs, 3)
    for r, seg in enumerate(segs):
        assert tl.row(seg) == r
        assert tl.row(np.asarray(seg)) == r
    with pytest.raises(KeyError):
        tl.row((2, 2))


@pytest.mark.parametrize("use_gv", [False, True])
def test_spark_matches_local(spark, use_gv):
    S, space, segs = _instance()
    local = compute_toplists(S, space, segs, 3, use_gv=use_gv)
    dist = compute_toplists_spark(spark, S, space, segs, 3, use_gv=use_gv)
    _assert_same(local, dist)


def test_spark_multiattr_space(spark):
    rng = np.random.default_rng(1)
    labels = [
        Explanation.of(a=i) for i in range(4)
    ] + [Explanation.of(a=i, b=j) for i in range(4) for j in range(3)]
    space = ExplanationSpace(labels, ["a", "b"])
    S = rng.uniform(0, 10, (space.n_nodes, 15))
    segs = [(s, e) for s in range(14) for e in range(s + 1, 15)]
    local = compute_toplists(S, space, segs, 3)
    dist = compute_toplists_spark(spark, S, space, segs, 3)
    np.testing.assert_array_equal(local.ids, dist.ids)


@pytest.mark.parametrize("use_gv", [False, True])
def test_spark_multiattr_tied_space(spark, use_gv):
    S, space, segs = _tied_instance(1)
    local = compute_toplists(S, space, segs, 3, use_gv=use_gv, m_bar0=2)
    dist = compute_toplists_spark(spark, S, space, segs, 3, use_gv=use_gv, m_bar0=2)
    _assert_same(local, dist)


def test_segment_row_alignment(spark):
    S, space, segs = _instance(seed=2, n=10)
    segs = segs[::-1]  # scrambled input order must be preserved
    dist = compute_toplists_spark(spark, S, space, segs, 2)
    for r, seg in enumerate(segs):
        assert dist.row(seg) == r
