"""Drill-down explanation space: closure, children maps, restriction."""
import numpy as np
import pytest

from repro.core.space import ExplanationSpace
from repro.core.types import Explanation


def _space_abc():
    labels = [
        Explanation.of(a=1),
        Explanation.of(a=2),
        Explanation.of(b=1),
        Explanation.of(a=1, b=1),
        Explanation.of(a=1, b=1, c=1),
    ]
    return ExplanationSpace(labels, ["a", "b", "c"]), labels


class TestConstruction:
    def test_candidates_takeable(self):
        space, labels = _space_abc()
        for e in labels:
            assert space.takeable[space.id_of[e]]

    def test_closure_added_non_takeable(self):
        # (a=1,c=1) and (b=1,c=1) and (c=1) appear only as closure prefixes.
        space, _ = _space_abc()
        for e in [
            Explanation.of(a=1, c=1),
            Explanation.of(b=1, c=1),
            Explanation.of(c=1),
        ]:
            nid = space.id_of[e]
            assert not space.takeable[nid]

    def test_n_candidates(self):
        space, labels = _space_abc()
        assert space.n_candidates == len(labels)
        assert space.n_nodes == len(labels) + 3  # three closure prefixes

    def test_input_order_is_id_order(self):
        space, labels = _space_abc()
        for i, e in enumerate(labels):
            assert space.id_of[e] == i

    def test_root_children(self):
        space, _ = _space_abc()
        a_kids = {space.explanations[i] for i in space.root_children["a"]}
        assert a_kids == {Explanation.of(a=1), Explanation.of(a=2)}
        assert Explanation.of(c=1) in {
            space.explanations[i] for i in space.root_children["c"]
        }

    def test_children_links(self):
        space, _ = _space_abc()
        a1 = space.id_of[Explanation.of(a=1)]
        kids_b = {space.explanations[i] for i in space.children[a1]["b"]}
        assert kids_b == {Explanation.of(a=1, b=1)}

    def test_every_multi_order_node_reachable_from_all_parents(self):
        space, _ = _space_abc()
        abc = space.id_of[Explanation.of(a=1, b=1, c=1)]
        parents = [
            space.id_of[Explanation.of(b=1, c=1)],
            space.id_of[Explanation.of(a=1, c=1)],
            space.id_of[Explanation.of(a=1, b=1)],
        ]
        for pid, attr in zip(parents, ["a", "b", "c"]):
            assert abc in space.children[pid][attr]

    def test_topo_children_first(self):
        space, _ = _space_abc()
        pos = {nid: i for i, nid in enumerate(space.topo_desc)}
        for nid in range(space.n_nodes):
            for kids in space.children[nid].values():
                for k in kids:
                    assert pos[k] < pos[nid]

    def test_rejects_unknown_attr(self):
        with pytest.raises(ValueError):
            ExplanationSpace([Explanation.of(z=1)], ["a"])

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            ExplanationSpace([Explanation(())], ["a"])

    def test_duplicate_labels_collapse(self):
        space = ExplanationSpace(
            [Explanation.of(a=1), Explanation.of(a=1)], ["a"]
        )
        assert space.n_nodes == 1


class TestRestrict:
    def test_restrict_keeps_only_selected_takeable(self):
        space, _ = _space_abc()
        keep = [space.id_of[Explanation.of(a=1, b=1, c=1)]]
        sub, old = space.restrict(keep)
        assert sub.n_candidates == 1
        # closure prefixes present but not takeable
        assert sub.n_nodes == 7  # abc + 3 pairs + 3 singles

    def test_restrict_mapping_roundtrip(self):
        space, _ = _space_abc()
        keep = [space.id_of[Explanation.of(a=2)], space.id_of[Explanation.of(b=1)]]
        sub, old = space.restrict(keep)
        for new_id, old_id in enumerate(old):
            assert sub.explanations[new_id] == space.explanations[old_id]

    def test_restrict_gamma_gather(self):
        space, _ = _space_abc()
        gamma = np.arange(space.n_nodes, dtype=float)
        keep = [space.id_of[Explanation.of(a=1, b=1)]]
        sub, old = space.restrict(keep)
        sub_gamma = gamma[old]
        for new_id in range(sub.n_nodes):
            assert sub_gamma[new_id] == gamma[space.id_of[sub.explanations[new_id]]]


class TestAlign:
    def test_rows_move_to_their_nodes(self):
        space, labels = _space_abc()
        S = np.arange(len(labels) * 3, dtype=float).reshape(len(labels), 3)
        # Input order differs from id order: the rows follow their labels.
        perm = [4, 0, 3, 1, 2]
        out = space.align(S[perm], [labels[i] for i in perm])
        assert out.shape == (space.n_nodes, 3)
        for row, e in enumerate(labels):
            np.testing.assert_array_equal(out[space.id_of[e]], S[row])

    def test_closure_nodes_get_zero_rows(self):
        space, labels = _space_abc()
        out = space.align(np.ones((len(labels), 2)), labels)
        closure = ~space.takeable
        assert closure.any()
        assert (out[closure] == 0).all() and (out[space.takeable] == 1).all()

    def test_empty_space(self):
        space = ExplanationSpace([], ["a"])
        assert space.align(np.zeros((0, 4)), []).shape == (0, 4)
