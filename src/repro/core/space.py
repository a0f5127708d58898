"""Drill-down explanation space used by the Cascading Analysts algorithm.

The space holds every candidate explanation plus the *prefix closure*: every
sub-conjunction of a candidate is present as a structural node so a drill-down
path from the root to any candidate exists. Nodes added only for closure are
marked non-``takeable`` (they cannot be returned as explanations, only passed
through while drilling).
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import Explanation


class ExplanationSpace:
    """Candidate explanations arranged as a drill-down DAG.

    Attributes
    ----------
    explanations : list[Explanation]
        All nodes (candidates plus closure prefixes), id = list index.
    takeable : np.ndarray of bool
        Whether the node may be selected as an explanation.
    order : np.ndarray of int
        Conjunction order per node.
    children : list[dict[str, list[int]]]
        ``children[nid][attr]`` = ids refining node ``nid`` with one extra
        predicate on ``attr``.
    root_children : dict[str, list[int]]
        Order-1 nodes grouped by their single attribute.
    parents : list[list[int]]
        ``parents[nid]`` = ids of the nodes one predicate coarser than
        ``nid`` (empty for order 1).

    Both maps are canonical: attributes in ``attrs`` order, ids ascending.
    Cascading Analysts breaks ties by this order, so a restricted space (whose
    ids keep the relative order of the parent space's) breaks them the same
    way as its parent.
    """

    def __init__(
        self,
        labels: Iterable[Explanation | Tuple],
        attrs: Sequence[str],
        takeable: Optional[Iterable[bool]] = None,
    ) -> None:
        cands = [e if isinstance(e, Explanation) else Explanation(tuple(e)) for e in labels]
        take_in = list(takeable) if takeable is not None else [True] * len(cands)
        if len(take_in) != len(cands):
            raise ValueError("takeable mask length mismatch")

        self.attrs: Tuple[str, ...] = tuple(attrs)
        id_of: Dict[Explanation, int] = {}
        explanations: List[Explanation] = []
        take: List[bool] = []

        def add(e: Explanation, t: bool) -> int:
            nid = id_of.get(e)
            if nid is None:
                nid = len(explanations)
                id_of[e] = nid
                explanations.append(e)
                take.append(t)
            elif t:
                take[nid] = True
            return nid

        for e, t in zip(cands, take_in):
            if e.order == 0:
                raise ValueError("order-0 (root) explanation is not a candidate")
            bad = set(e.attrs) - set(self.attrs)
            if bad:
                raise ValueError(f"explanation uses unknown attrs {bad}")
            add(e, t)
        # Prefix closure: every strict sub-conjunction becomes a structural
        # (non-takeable unless independently a candidate) node.
        for e in list(id_of):
            for r in range(1, e.order):
                for sub in itertools.combinations(e.preds, r):
                    add(Explanation(sub), False)

        self.explanations = explanations
        self.id_of = id_of
        self.takeable = np.asarray(take, dtype=bool)
        self.order = np.asarray([e.order for e in explanations], dtype=np.int64)

        children: List[Dict[str, List[int]]] = [dict() for _ in explanations]
        root_children: Dict[str, List[int]] = {}
        self.parents: List[List[int]] = [[] for _ in explanations]
        for nid, e in enumerate(explanations):
            if e.order == 1:
                root_children.setdefault(e.attrs[0], []).append(nid)
            else:
                for a, _ in e.preds:
                    pid = id_of[e.drop(a)]
                    children[pid].setdefault(a, []).append(nid)
                    self.parents[nid].append(pid)
        self._link(children, root_children)

    def _link(
        self, children: List[Dict[str, List[int]]], root_children: Dict[str, List[int]]
    ) -> None:
        def canonical(groups: Dict[str, List[int]]) -> Dict[str, List[int]]:
            return {a: groups[a] for a in self.attrs if groups.get(a)}

        self.children = [canonical(c) for c in children]
        self.root_children = canonical(root_children)
        # Process order: children before parents (descending order).
        self.topo_desc: List[int] = sorted(
            range(len(self.explanations)), key=lambda i: -self.order[i]
        )

    @property
    def n_nodes(self) -> int:
        return len(self.explanations)

    @property
    def n_candidates(self) -> int:
        """Number of takeable candidates (epsilon in the paper)."""
        return int(self.takeable.sum())

    def candidate_ids(self) -> np.ndarray:
        return np.flatnonzero(self.takeable)

    def align(self, S: np.ndarray, labels: Sequence[Explanation]) -> np.ndarray:
        """The series matrix with one row per node, in node-id order: row
        ``r`` of ``S`` (the series of ``labels[r]``) moves to that label's
        node. Closure-only nodes get a zero row (they are non-takeable, their
        gamma is never used)."""
        out = np.zeros((self.n_nodes, S.shape[1]))
        out[[self.id_of[e] for e in labels]] = S
        return out

    def restrict(self, keep_ids: Sequence[int]) -> Tuple["ExplanationSpace", np.ndarray]:
        """Sub-space whose takeable nodes are exactly ``keep_ids``.

        Closure prefixes are re-added (non-takeable). Returns the sub-space and
        ``old_of_new`` mapping each new node id back to the id in this space
        (closure nodes of the subset always exist here too). ``old_of_new`` is
        increasing, so the sub-space keeps this space's id order.

        Used by guess-and-verify: CA restricted to the top-m̄ candidates.
        """
        keep = {int(i) for i in keep_ids}
        nodes, todo = set(keep), list(keep)
        while todo:
            for p in self.parents[todo.pop()]:
                if p not in nodes:
                    nodes.add(p)
                    todo.append(p)
        old = sorted(nodes)
        new_of = {o: i for i, o in enumerate(old)}

        def remap(groups: Dict[str, List[int]]) -> Dict[str, List[int]]:
            return {a: [new_of[k] for k in kids if k in new_of] for a, kids in groups.items()}

        # The links of the sub-space are this space's links among the kept
        # nodes, so it is assembled from them instead of re-derived.
        sub = ExplanationSpace.__new__(ExplanationSpace)
        sub.attrs = self.attrs
        sub.explanations = [self.explanations[o] for o in old]
        sub.id_of = {e: i for i, e in enumerate(sub.explanations)}
        sub.takeable = np.asarray([o in keep for o in old], dtype=bool)
        sub.order = self.order[old]
        sub.parents = [[new_of[p] for p in self.parents[o]] for o in old]
        sub._link([remap(self.children[o]) for o in old], remap(self.root_children))
        return sub, np.asarray(old, dtype=np.int64)
