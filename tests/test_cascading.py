"""Cascading Analysts DP: exactness against exhaustive enumeration of the
cascading selection space, structural validity, guess-and-verify, and the
batched kernel against the scalar reference."""
import itertools

import numpy as np
import pytest

from repro.core.cascading import (
    CAPlan,
    guess_verify_batched,
    topm_guess_verify,
    topm_nonoverlapping,
)
from repro.core.space import ExplanationSpace
from repro.core.types import Explanation, pairwise_non_overlapping

_ROOT = -1


def brute_force_best(space: ExplanationSpace, gamma, m: int) -> float:
    """Max total gamma over *every* cascading selection, by exhaustive
    enumeration of selection sets (exponential; test-only)."""

    def selections(nid, q):
        out = {frozenset()}
        if nid != _ROOT and space.takeable[nid] and q >= 1:
            out.add(frozenset([nid]))
        kid_map = space.root_children if nid == _ROOT else space.children[nid]
        for kids in kid_map.values():
            combos = {frozenset()}
            for k in kids:
                subs = selections(k, q)
                combos = {
                    c | s for c in combos for s in subs if len(c | s) <= q
                }
            out |= combos
        return out

    return max(sum(gamma[i] for i in s) for s in selections(_ROOT, m))


def random_labels(rng, attrs, n_vals, max_order, p_keep):
    labels = []
    for r in range(1, max_order + 1):
        for combo in itertools.combinations(attrs, r):
            for vals in itertools.product(range(n_vals), repeat=r):
                if rng.random() < p_keep:
                    labels.append(Explanation(tuple(zip(combo, vals))))
    return labels or [Explanation.of(A0=0)]


def random_instance(seed: int, n_attrs=3, n_vals=2, max_order=2, p_keep=0.7):
    rng = np.random.default_rng(seed)
    attrs = [f"A{i}" for i in range(n_attrs)]
    labels = random_labels(rng, attrs, n_vals, max_order, p_keep)
    space = ExplanationSpace(labels, attrs)
    gamma = np.zeros(space.n_nodes)
    gamma[space.candidate_ids()] = rng.integers(0, 50, space.n_candidates).astype(float)
    return space, gamma


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ca_matches_brute_force(seed, m):
    space, gamma = random_instance(seed)
    res = topm_nonoverlapping(space, gamma, m)
    assert res.total == pytest.approx(brute_force_best(space, gamma, m))


@pytest.mark.parametrize("seed", range(20))
def test_ca_selection_is_valid(seed):
    space, gamma = random_instance(seed, n_attrs=3, n_vals=3, max_order=3)
    m = 3
    res = topm_nonoverlapping(space, gamma, m)
    assert len(res.ids) <= m
    assert len(set(res.ids)) == len(res.ids)
    chosen = [space.explanations[i] for i in res.ids]
    assert pairwise_non_overlapping(chosen)
    for i in res.ids:
        assert space.takeable[i]
    # Reported total equals sum of the chosen gammas.
    assert res.total == pytest.approx(sum(gamma[i] for i in res.ids))
    # Best array is monotone in quota and starts at 0.
    assert res.best[0] == 0.0
    assert all(res.best[q] <= res.best[q + 1] + 1e-12 for q in range(m))


def test_single_attribute_is_topm_by_gamma():
    labels = [Explanation.of(state=f"s{i}") for i in range(10)]
    space = ExplanationSpace(labels, ["state"])
    rng = np.random.default_rng(0)
    gamma = rng.random(space.n_nodes) * 100
    res = topm_nonoverlapping(space, gamma, 3)
    expected = sorted(gamma, reverse=True)[:3]
    assert sorted(res.gammas, reverse=True) == pytest.approx(expected)


def test_parent_vs_children_drilldown():
    """CA drills down when the children beat the parent, and not otherwise."""
    labels = [
        Explanation.of(a=1),
        Explanation.of(a=1, b=1),
        Explanation.of(a=1, b=2),
    ]
    space = ExplanationSpace(labels, ["a", "b"])
    g = np.zeros(space.n_nodes)
    g[space.id_of[Explanation.of(a=1)]] = 10.0
    g[space.id_of[Explanation.of(a=1, b=1)]] = 7.0
    g[space.id_of[Explanation.of(a=1, b=2)]] = 6.0
    res = topm_nonoverlapping(space, g, 2)
    assert res.total == pytest.approx(13.0)  # children 7+6 beat parent 10
    res1 = topm_nonoverlapping(space, g, 1)
    assert res1.total == pytest.approx(10.0)  # with one quota the parent wins
    assert [space.explanations[i] for i in res1.ids] == [Explanation.of(a=1)]


def test_overlapping_candidates_never_coselected():
    """{a=1} and {b=1} overlap (no shared attr) so cannot both be chosen even
    though their summed gamma is maximal."""
    labels = [Explanation.of(a=1), Explanation.of(b=1), Explanation.of(a=2)]
    space = ExplanationSpace(labels, ["a", "b"])
    g = np.zeros(space.n_nodes)
    g[space.id_of[Explanation.of(a=1)]] = 10.0
    g[space.id_of[Explanation.of(b=1)]] = 9.0
    g[space.id_of[Explanation.of(a=2)]] = 1.0
    res = topm_nonoverlapping(space, g, 2)
    assert res.total == pytest.approx(11.0)
    chosen = {space.explanations[i] for i in res.ids}
    assert chosen == {Explanation.of(a=1), Explanation.of(a=2)}


def test_non_takeable_nodes_never_selected():
    space0 = ExplanationSpace(
        [Explanation.of(a=1, b=1), Explanation.of(a=1, b=2)], ["a", "b"]
    )
    g = np.full(space0.n_nodes, 5.0)
    g[space0.id_of[Explanation.of(a=1)]] = 100.0  # closure node: not takeable
    res = topm_nonoverlapping(space0, g, 2)
    assert space0.id_of[Explanation.of(a=1)] not in res.ids
    assert res.total == pytest.approx(10.0)


def test_zero_gamma_yields_empty_selection():
    space, _ = random_instance(0)
    res = topm_nonoverlapping(space, np.zeros(space.n_nodes), 3)
    assert res.ids == []
    assert res.total == 0.0


def test_gamma_length_validated():
    space, gamma = random_instance(1)
    with pytest.raises(ValueError):
        topm_nonoverlapping(space, gamma[:-1], 2)


class TestGuessVerify:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("m_bar0", [2, 4, 30])
    def test_matches_full_ca(self, seed, m_bar0):
        space, gamma = random_instance(seed, n_attrs=3, n_vals=3, max_order=3)
        full = topm_nonoverlapping(space, gamma, 3)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=m_bar0)
        assert gv.total == pytest.approx(full.total)
        # ids live in the full space
        for i in gv.ids:
            assert 0 <= i < space.n_nodes and space.takeable[i]

    def test_large_flat_instance(self):
        """Many near-tied candidates force the verification bound to work."""
        labels = [Explanation.of(k=f"v{i}") for i in range(200)]
        space = ExplanationSpace(labels, ["k"])
        rng = np.random.default_rng(3)
        gamma = rng.uniform(9.0, 10.0, space.n_nodes)
        full = topm_nonoverlapping(space, gamma, 3)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=4)
        assert gv.total == pytest.approx(full.total)

    def test_m_bar_larger_than_candidates(self):
        space, gamma = random_instance(2)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=10_000)
        full = topm_nonoverlapping(space, gamma, 3)
        assert gv.total == pytest.approx(full.total)


# --- batched kernel -------------------------------------------------------

M_VALUES = [1, 2, 3, 5]


def tied_instance(seed, R=12, n_attrs=3, n_vals=3, max_order=3, p_keep=0.6, hi=5):
    """Random space of order <= max_order (labels in shuffled order) and an
    (nodes, R) gamma matrix of small integers: many zeros and ties."""
    rng = np.random.default_rng(seed)
    attrs = [f"A{i}" for i in range(n_attrs)]
    labels = random_labels(rng, attrs, n_vals, max_order, p_keep)
    rng.shuffle(labels)
    space = ExplanationSpace(labels, attrs)
    gamma = rng.integers(0, hi, (space.n_nodes, R)).astype(float)
    return space, gamma


def _row(ids_row):
    return [int(i) for i in ids_row if i >= 0]


class TestBatched:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("m", M_VALUES)
    def test_matches_scalar_reference(self, seed, m):
        space, gamma = tied_instance(seed)
        res = CAPlan(space).run(gamma, m)
        for r in range(gamma.shape[1]):
            ref = topm_nonoverlapping(space, gamma[:, r], m)
            assert _row(res.ids[r]) == ref.ids
            np.testing.assert_array_equal(res.best[r], ref.best)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("m", M_VALUES)
    def test_matches_brute_force_on_small_spaces(self, seed, m):
        space, gamma = tied_instance(seed, n_attrs=2, n_vals=2, max_order=2, p_keep=0.8)
        assert space.n_nodes <= 8
        res = CAPlan(space).run(gamma, m)
        for r in range(gamma.shape[1]):
            assert res.best[r, m] == pytest.approx(brute_force_best(space, gamma[:, r], m))

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("m", M_VALUES)
    def test_rows_are_valid_selections(self, seed, m):
        space, gamma = tied_instance(seed, hi=50)
        res = CAPlan(space).run(gamma, m)
        for r in range(gamma.shape[1]):
            ids = _row(res.ids[r])
            assert (res.ids[r, len(ids):] == -1).all()  # padding only at the end
            assert len(set(ids)) == len(ids) <= m
            assert all(space.takeable[i] and gamma[i, r] > 0 for i in ids)
            assert pairwise_non_overlapping([space.explanations[i] for i in ids])
            assert sum(gamma[i, r] for i in ids) == pytest.approx(res.best[r, m])
            # tie rule: gamma descending, then node id ascending
            keys = [(-gamma[i, r], i) for i in ids]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(10))
    def test_independent_of_chunking_and_segment_order(self, seed):
        space, gamma = tied_instance(seed, R=30)
        plan = CAPlan(space)
        whole = plan.run(gamma, 3)
        perm = np.random.default_rng(seed).permutation(gamma.shape[1])
        shuffled = plan.run(gamma[:, perm], 3)
        np.testing.assert_array_equal(shuffled.ids, whole.ids[perm])
        np.testing.assert_array_equal(shuffled.best, whole.best[perm])
        parts = [plan.run(gamma[:, lo : lo + 7], 3) for lo in range(0, 30, 7)]
        np.testing.assert_array_equal(np.vstack([p.ids for p in parts]), whole.ids)
        np.testing.assert_array_equal(np.vstack([p.best for p in parts]), whole.best)

    def test_tie_order_is_gamma_then_id(self):
        space = ExplanationSpace([Explanation.of(k=i) for i in range(5)], ["k"])
        gamma = np.array([1.0, 5.0, 5.0, 0.0, 5.0])
        expected = [1, 2, 4]
        assert topm_nonoverlapping(space, gamma, 3).ids == expected
        assert _row(CAPlan(space).run(gamma[:, None], 3).ids[0]) == expected

    def test_zero_nodes(self):
        space = ExplanationSpace([], ["a"])
        res = CAPlan(space).run(np.zeros((0, 4)), 3)
        np.testing.assert_array_equal(res.ids, np.full((4, 3), -1))
        np.testing.assert_array_equal(res.best, np.zeros((4, 4)))
        gv = guess_verify_batched(space, np.zeros((0, 4)), 3)
        np.testing.assert_array_equal(gv.ids, res.ids)

    def test_shape_and_m_validated(self):
        space, gamma = tied_instance(0)
        with pytest.raises(ValueError):
            CAPlan(space).run(gamma[:-1], 3)
        with pytest.raises(ValueError):
            CAPlan(space).run(gamma, 0)


class TestBatchedGuessVerify:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("m", M_VALUES)
    @pytest.mark.parametrize("m_bar0", [1, 4, 30])
    def test_matches_scalar_guess_verify(self, seed, m, m_bar0):
        space, gamma = tied_instance(seed)
        res = guess_verify_batched(space, gamma, m, m_bar0)
        for r in range(gamma.shape[1]):
            ref = topm_guess_verify(space, gamma[:, r], m, m_bar0)
            assert _row(res.ids[r]) == ref.ids
            np.testing.assert_array_equal(res.best[r], ref.best)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("m", M_VALUES)
    def test_head_mask_equals_full_space(self, seed, m):
        space, gamma = tied_instance(seed)
        full = CAPlan(space).run(gamma, m)
        gv = guess_verify_batched(space, gamma, m, m_bar0=2)
        np.testing.assert_array_equal(gv.best, full.best)
        # With distinct gammas the optimum is unique, so the ids agree too.
        distinct = np.random.default_rng(seed).random(gamma.shape)
        np.testing.assert_array_equal(
            guess_verify_batched(space, distinct, m, m_bar0=2).ids,
            CAPlan(space).run(distinct, m).ids,
        )

    def test_large_flat_instance(self):
        """Near-tied candidates make several segments need extra rounds."""
        space = ExplanationSpace([Explanation.of(k=f"v{i}") for i in range(200)], ["k"])
        gamma = np.random.default_rng(3).uniform(9.0, 10.0, (space.n_nodes, 16))
        gv = guess_verify_batched(space, gamma, 3, m_bar0=4)
        full = CAPlan(space).run(gamma, 3)
        np.testing.assert_array_equal(gv.ids, full.ids)
