"""Vectorized cost matrices vs the scalar NDCG reference implementation."""
import numpy as np
import pytest

from repro.core import ndcg
from repro.core.segcost import (
    ALL_METRICS,
    allpair_costs,
    costs_for_segments,
    object_pair_dist,
    pointwise_costs,
)
from repro.core.kseg import all_segments
from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists, dcg_weights, object_segments
from repro.core.types import Explanation


def _setup(seed=0, n=14, eps=6):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 50, (eps, n))
    labels = [Explanation.of(k=i) for i in range(eps)]
    space = ExplanationSpace(labels, ["k"])
    obj_tl = compute_toplists(S, space, object_segments(n), 3, use_gv=False)
    segs = all_segments(range(n))
    cen_tl = compute_toplists(S, space, segs, 3, use_gv=False)
    return S, space, obj_tl, cen_tl, segs


def _scalar_cost(S, obj_tl, cen_tl, seg, metric):
    """Reference |P|*var via the per-pair scalar implementation."""
    s, e = seg
    ids_c = cen_tl.top_ids(seg)
    base = metric.lstrip("S")
    total = 0.0
    for x in range(s, e):
        ids_o = obj_tl.top_ids((x, x + 1))
        d = ndcg.dist_variant(S, seg, ids_c, (x, x + 1), ids_o, base)
        total += d * d if metric.startswith("S") else d
    return total


@pytest.mark.parametrize("metric", ["tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pointwise_matches_scalar_reference(metric, seed):
    S, space, obj_tl, cen_tl, segs = _setup(seed)
    costs = pointwise_costs(S, obj_tl, cen_tl, [metric])[metric]
    for row, seg in enumerate(segs):
        ref = _scalar_cost(S, obj_tl, cen_tl, seg, metric)
        assert costs[row] == pytest.approx(ref, abs=1e-9), f"segment {seg}"


def _worst_lists(S, tl):
    """``tl``'s segments with each list replaced by the m smallest-gamma
    nodes, so a foreign list's DCG can beat a segment's own (NDCG clips)."""
    m = tl.m
    d = S[:, tl.segments[:, 1]] - S[:, tl.segments[:, 0]]  # (nodes, R)
    ids = np.argsort(np.abs(d), axis=0, kind="stable")[:m].T
    cols = np.arange(len(tl.segments))[:, None]
    gammas = np.abs(d.T[cols, ids])
    signs = np.sign(d.T[cols, ids]).astype(np.int8)
    return TopLists(m, tl.segments, ids, gammas, signs, gammas @ dcg_weights(m))


def _case(name):
    """(S, obj_tl, cen_tl, segs) for inputs that exercise the kernel's edges."""
    rng = np.random.default_rng(11)
    n, m, positions, max_len = 14, 3, range(14), None
    S = rng.uniform(0, 50, (6, n))
    labels = [Explanation.of(k=i) for i in range(6)]
    attrs = ["k"]
    if name == "sketch_positions":
        positions = [0, 3, 4, 7, 11, 13]
    elif name == "max_len":
        max_len = 3
    elif name == "m_over_nodes":
        S, labels, m = S[:2], labels[:2], 5
    elif name == "zero_columns":
        # Objects (3, 4) and (8, 9) are flat for every node, and so are the
        # centroids (2, 5), (6, 10) and (5, 11): IDCG 0 in both directions.
        S[:, 4] = S[:, 3]
        S[:, 9] = S[:, 8]
        S[:, 5] = S[:, 2]
        S[:, 10] = S[:, 6]
        S[:, 11] = S[:, 5]
    elif name == "tied_gammas":
        S = rng.integers(0, 3, (6, n)).astype(float)
    elif name == "multi_attribute":
        # Only order-2 candidates: every order-1 prefix is a closure node
        # with a zero row.
        labels = [Explanation.of(a=a, b=b) for a in "xy" for b in "uvw"]
        attrs = ["a", "b"]
    space = ExplanationSpace(labels, attrs)
    S_al = space.align(S, labels)
    obj_tl = compute_toplists(S_al, space, object_segments(n), m, use_gv=False)
    segs = all_segments(positions, max_len=max_len)
    cen_tl = compute_toplists(S_al, space, segs, m, use_gv=False)
    if name == "worst_centroid_lists":
        cen_tl = _worst_lists(S_al, cen_tl)
    elif name == "worst_object_lists":
        obj_tl = _worst_lists(S_al, obj_tl)
    return S_al, obj_tl, cen_tl, segs


CASES = [
    "sketch_positions",
    "max_len",
    "m_over_nodes",
    "zero_columns",
    "tied_gammas",
    "multi_attribute",
    "worst_centroid_lists",
    "worst_object_lists",
]


@pytest.mark.parametrize("metric", ["tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2"])
@pytest.mark.parametrize("case", CASES)
def test_pointwise_edge_inputs_match_scalar_reference(metric, case):
    S, obj_tl, cen_tl, segs = _case(case)
    costs = pointwise_costs(S, obj_tl, cen_tl, [metric])[metric]
    assert costs.shape == (len(segs),)
    for row, seg in enumerate(segs):
        ref = _scalar_cost(S, obj_tl, cen_tl, seg, metric)
        assert costs[row] == pytest.approx(ref, abs=1e-9), f"segment {seg}"


def test_edge_inputs_reach_their_edges():
    """The edge cases above really contain what they are named after."""
    _, obj_tl, cen_tl, _ = _case("m_over_nodes")
    assert (obj_tl.ids == -1).any() and (cen_tl.ids == -1).any()
    _, obj_tl, cen_tl, _ = _case("zero_columns")
    assert (obj_tl.idcg == 0).any() and (cen_tl.idcg == 0).any()
    S, obj_tl, _, _ = _case("multi_attribute")
    assert (np.abs(S).sum(axis=1) == 0).any()
    _, _, cen_tl, _ = _case("tied_gammas")
    g = cen_tl.gammas
    assert ((g[:, :-1] == g[:, 1:]) & (g[:, 1:] > 0)).any()


def test_pointwise_segment_order_invariant():
    """Costs follow the rows of ``cen_tl``, whatever their order."""
    S, obj_tl, cen_tl, segs = _case("sketch_positions")
    perm = np.random.default_rng(0).permutation(len(segs))
    shuffled = TopLists(
        cen_tl.m,
        cen_tl.segments[perm],
        cen_tl.ids[perm],
        cen_tl.gammas[perm],
        cen_tl.signs[perm],
        cen_tl.idcg[perm],
    )
    a = pointwise_costs(S, obj_tl, cen_tl, ["tse"])["tse"]
    b = pointwise_costs(S, obj_tl, shuffled, ["tse"])["tse"]
    assert b == pytest.approx(a[perm], abs=1e-12)


def test_pointwise_no_segments():
    S, obj_tl, cen_tl, _ = _case("max_len")
    rows = (cen_tl.segments, cen_tl.ids, cen_tl.gammas, cen_tl.signs, cen_tl.idcg)
    empty = TopLists(3, *(a[:0] for a in rows))
    assert pointwise_costs(S, obj_tl, empty, ["tse"])["tse"].shape == (0,)


@pytest.mark.parametrize("seed", [0, 1])
def test_object_pair_dist_matches_scalar(seed):
    S, space, obj_tl, _, _ = _setup(seed, n=10)
    M = object_pair_dist(S, obj_tl)
    n_obj = S.shape[1] - 1
    for x in range(n_obj):
        for y in range(n_obj):
            ox, oy = (x, x + 1), (y, y + 1)
            ref = ndcg.dist_tse(S, oy, obj_tl.top_ids(oy), ox, obj_tl.top_ids(ox))
            assert M[y, x] == pytest.approx(ref, abs=1e-9)


def test_object_pair_dist_properties():
    S, space, obj_tl, _, _ = _setup(3, n=12)
    M = object_pair_dist(S, obj_tl)
    assert np.allclose(M, M.T)
    assert np.allclose(np.diag(M), 0.0)
    assert (M >= -1e-12).all() and (M <= 1.0 + 1e-12).all()


def test_allpair_costs_match_direct_block_sum():
    S, space, obj_tl, cen_tl, segs = _setup(4, n=12)
    M = object_pair_dist(S, obj_tl)
    costs = allpair_costs(M, segs)
    for c, (s, e) in zip(costs, segs):
        block = M[s:e, s:e].sum()
        assert c == pytest.approx(block / (e - s))


def test_costs_for_segments_dispatch():
    S, space, obj_tl, cen_tl, segs = _setup(5, n=10)
    out = costs_for_segments(S, obj_tl, cen_tl, ALL_METRICS)
    assert set(out) == set(ALL_METRICS)
    for mt, arr in out.items():
        assert arr.shape == (len(segs),)
        assert np.isfinite(arr).all()
        assert (arr >= -1e-9).all()


def test_unit_segment_cost_zero():
    """An object is its own centroid: dist 0, so cost 0 for every metric."""
    S, space, obj_tl, cen_tl, segs = _setup(6, n=8)
    out = costs_for_segments(S, obj_tl, cen_tl, ALL_METRICS)
    for mt, arr in out.items():
        for row, (s, e) in enumerate(segs):
            if e - s == 1:
                assert arr[row] == pytest.approx(0.0, abs=1e-9), mt


def test_pointwise_rejects_allpair():
    S, space, obj_tl, cen_tl, segs = _setup(0, n=6)
    with pytest.raises(ValueError):
        pointwise_costs(S, obj_tl, cen_tl, ["allpair"])
