"""The Cascading Analysts algorithm [Ruhl et al., SIGMOD'18] and
guess-and-verify (paper Sec. 5.2 module b and Sec. 5.3.1).

Finds top-m non-overlapping explanations (Def. 3.5) reachable by recursive
drill-downs: at each node either *take* the node's slice as one explanation, or
*drill down* one dimension and split the remaining quota among that dimension's
values (children with distinct values are pairwise disjoint). Dynamic
programming over (node, quota) is exact within this cascading family.

``best(node, q)`` = max total gamma using at most ``q`` pairwise-disjoint
explanations from refinements of ``node``:

    best(node, q) = max( gamma[node] if takeable and q >= 1,
                         max over attr d not in node:
                             knapsack over children(node, d) of best(child, .) )

We use the "at most m" variant (paper footnote 2); since gamma >= 0 this only
differs from "exactly m" by zero-score padding.

The drill-down tree is the same for every segment; only the gammas change.
:class:`CAPlan` therefore runs one DP over a ``(nodes, R)`` gamma matrix for
R segments at once (the production kernel), and :func:`guess_verify_batched`
runs guess-and-verify on top of it. The scalar :func:`topm_nonoverlapping` and
:func:`topm_guess_verify` are the readable references the kernel is tested
against.

Tie rule (both implementations). A choice worth at least ``best - eps``
counts as tied with the best one, where ``eps`` is the per-segment tolerance
``1e-9 * max(1, sum of the m largest takeable gammas)``. A tied
node prefers *take* over drilling, then the first attribute in the space's
attribute order; a tied knapsack split gives quota to earlier (lower-id)
children first. The selected ids are ranked by gamma descending, then node id
ascending.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import ExplanationSpace

_ROOT = -1
_TAKE = -1  # node decision code of the batched kernel: select the node itself


@dataclass
class CAResult:
    """Top-m non-overlapping explanations for one segment.

    ids are sorted by gamma descending (the "ideal ranked list" for NDCG);
    ``best[q]`` is the optimal total score with quota q (the Best[m'] side
    products that guess-and-verify needs).
    """

    ids: List[int]
    gammas: List[float]
    best: List[float]

    @property
    def total(self) -> float:
        return self.best[-1]


def _tolerance(g: np.ndarray, m: int) -> np.ndarray:
    """Tie tolerance per column of ``g`` (takeable gammas, 0 elsewhere)."""
    if len(g) > m:
        g = np.partition(g, len(g) - m, axis=0)[len(g) - m :]
    return 1e-9 * np.maximum(1.0, g.sum(axis=0))


def _combine(child_best: List[List[float]], m: int) -> List[float]:
    """Quota-knapsack across disjoint children: acc[q] = max split of q."""
    acc = [0.0] * (m + 1)
    for cb in child_best:
        nxt = acc[:]
        for q in range(1, m + 1):
            hi = nxt[q]
            for qc in range(1, q + 1):
                v = acc[q - qc] + cb[qc]
                if v > hi:
                    hi = v
            nxt[q] = hi
        acc = nxt
    return acc


def _node_best(
    space: ExplanationSpace, gamma: np.ndarray, m: int
) -> Tuple[List[List[float]], List[float]]:
    """Bottom-up DP: per-node best arrays plus the root array."""
    n = space.n_nodes
    best: List[List[float]] = [None] * n  # type: ignore[list-item]
    for nid in space.topo_desc:
        take = float(gamma[nid]) if space.takeable[nid] else 0.0
        arr = [0.0] + [take] * m
        for kids in space.children[nid].values():
            comb = _combine([best[k] for k in kids], m)
            for q in range(1, m + 1):
                if comb[q] > arr[q]:
                    arr[q] = comb[q]
        best[nid] = arr
    root = [0.0] * (m + 1)
    for kids in space.root_children.values():
        comb = _combine([best[k] for k in kids], m)
        for q in range(1, m + 1):
            if comb[q] > root[q]:
                root[q] = comb[q]
    return best, root


def _backtrack(
    space: ExplanationSpace,
    gamma: np.ndarray,
    m: int,
    best: List[List[float]],
    root: List[float],
) -> List[int]:
    """Recover one optimal selection by re-deriving argmax choices."""
    # Scale-relative tolerance: gammas can be ~1e6+, where float64 sums carry
    # absolute error far above any fixed 1e-9.
    eps = float(_tolerance(np.where(space.takeable, gamma, 0.0), m))
    out: List[int] = []

    def split(kids: Sequence[int], q: int, target: float) -> Optional[List[Tuple[int, int]]]:
        """Find a quota split across kids achieving ``target`` (re-runs the
        knapsack keeping parent pointers; only called on the optimal path)."""
        accs = [[0.0] * (q + 1)]
        for k in kids:
            prev = accs[-1]
            cur = prev[:]
            for qq in range(1, q + 1):
                for qc in range(1, qq + 1):
                    v = prev[qq - qc] + best[k][qc]
                    if v > cur[qq]:
                        cur[qq] = v
            accs.append(cur)
        if accs[-1][q] < target - eps:
            return None
        # Walk back choosing how much quota each kid consumed.
        alloc: List[Tuple[int, int]] = []
        qq = q
        for i in range(len(kids) - 1, -1, -1):
            prev, cur = accs[i], accs[i + 1]
            done = False
            for qc in range(0, qq + 1):
                cand = prev[qq - qc] + (best[kids[i]][qc] if qc else 0.0)
                if cand >= cur[qq] - eps:
                    if qc:
                        alloc.append((kids[i], qc))
                    qq -= qc
                    done = True
                    break
            if not done:  # pragma: no cover - defensive
                return None
        return alloc

    def visit(nid: int, q: int) -> None:
        if q == 0:
            return
        target = root[q] if nid == _ROOT else best[nid][q]
        if target <= 0.0:
            return
        if nid != _ROOT and space.takeable[nid] and float(gamma[nid]) >= target - eps:
            out.append(nid)
            return
        kid_map = space.root_children if nid == _ROOT else space.children[nid]
        for kids in kid_map.values():
            alloc = split(kids, q, target)
            if alloc is not None:
                for k, qc in alloc:
                    visit(k, qc)
                return
        raise AssertionError("backtrack failed to reproduce DP value")  # pragma: no cover

    visit(_ROOT, m)
    return out


def topm_nonoverlapping(space: ExplanationSpace, gamma: np.ndarray, m: int) -> CAResult:
    """Exact CA: top-(at most)m non-overlapping explanations maximizing sum
    gamma. Scalar reference for :class:`CAPlan`."""
    if len(gamma) != space.n_nodes:
        raise ValueError("gamma must have one entry per space node")
    best, root = _node_best(space, gamma, m)
    ids = _backtrack(space, gamma, m, best, root)
    ids.sort(key=lambda i: (-float(gamma[i]), i))
    return CAResult(ids=ids, gammas=[float(gamma[i]) for i in ids], best=root)


def topm_guess_verify(
    space: ExplanationSpace,
    gamma: np.ndarray,
    m: int,
    m_bar0: int = 30,
) -> CAResult:
    """Guess-and-verify (O1): run CA on the top-m̄ candidates by gamma, then
    check optimality with Eq. 12; double m̄ until verified. Exact.

    Eq. 12: Best[m] >= Best[m'] + sum of the (m-m') largest tail gammas, for
    every 0 <= m' < m — any solution mixing m' head and (m-m') tail
    explanations is dominated, so the restricted answer is globally optimal.
    Scalar reference for :func:`guess_verify_batched`.
    """
    cand = space.candidate_ids()
    chi = cand[np.argsort(-gamma[cand], kind="stable")]  # ranked candidate list
    n_cand = len(chi)
    m_bar = min(m_bar0, n_cand)
    while True:
        head = chi[:m_bar]
        sub, old_of_new = space.restrict(head)
        res = topm_nonoverlapping(sub, gamma[old_of_new], m)
        tail = gamma[chi[m_bar:]]
        tol = 1e-9 * max(1.0, abs(res.best[m]))
        ok = all(
            res.best[m] + tol >= res.best[mp] + float(tail[: m - mp].sum())
            for mp in range(m)
        )
        if ok or m_bar >= n_cand:
            ids = [int(old_of_new[i]) for i in res.ids]
            return CAResult(ids=ids, gammas=res.gammas, best=res.best)
        m_bar = min(2 * m_bar, n_cand)


@dataclass
class BatchResult:
    """Top-m lists of R segments: ``ids[r]`` ranked by the tie rule and padded
    with -1; ``best[r, q]`` is segment r's Best[q]."""

    ids: np.ndarray  # (R, m) int64
    best: np.ndarray  # (R, m + 1) float


@dataclass
class _Level:
    """Parents of one order (the root for order 0) and their child groups.

    Groups are sorted by length, longest first, so the groups that have a
    j-th child are always a prefix: ``kids[j]`` holds those j-th children.
    """

    nodes: np.ndarray  # every node of this order
    parents: np.ndarray  # nodes with at least one child group
    pos: np.ndarray  # index of each parent in ``nodes``
    slot: np.ndarray  # (P, S) group of each parent's s-th attribute; G = none
    gpar: np.ndarray  # (G,) index of each group's parent in ``parents``
    gslot: np.ndarray  # (G,) attribute slot of each group in its parent
    kids: List[np.ndarray]
    # The same child can sit in several groups: the top-down pass sums its
    # quotas over (group, position) edges with one reduceat.
    edge_order: np.ndarray  # edges (kids concatenated over j) sorted by child
    targets: np.ndarray  # distinct children, ascending
    starts: np.ndarray  # first sorted edge of each target


class CAPlan:
    """The drill-down tree of a space, arranged for the batched DP.

    ``run`` evaluates Cascading Analysts for R segments at once: ``best`` is a
    ``(m + 1, nodes, R)`` array filled bottom-up one order at a time, with the
    quota knapsack of every child group of that order advanced child by
    child over all segments. The forward pass records each argmax decision,
    and a top-down pass replays them to recover every segment's selection.
    """

    def __init__(self, space: ExplanationSpace) -> None:
        n = space.n_nodes
        self.n_nodes = n
        self.takeable = space.takeable
        depth = int(space.order.max()) if n else 0
        by_order = [np.array([n])] + [
            np.flatnonzero(space.order == o) for o in range(1, depth + 1)
        ]
        self.leaves = by_order[depth] if depth else np.zeros(0, np.int64)
        self.levels: List[_Level] = []
        for nodes in by_order[:depth]:
            parents, pos, groups = [], [], []
            for i, nid in enumerate(nodes):
                kid_map = space.root_children if nid == n else space.children[nid]
                if kid_map:
                    for s, kids in enumerate(kid_map.values()):
                        groups.append((len(parents), s, kids))
                    parents.append(nid)
                    pos.append(i)
            groups.sort(key=lambda g: -len(g[2]))
            width = 1 + max(g[1] for g in groups)
            slot = np.full((len(parents), width), len(groups))
            for g, (p, s, _) in enumerate(groups):
                slot[p, s] = g
            lens = np.array([len(g[2]) for g in groups])
            kids = [
                np.array([g[2][j] for g in groups[: int((lens > j).sum())]])
                for j in range(int(lens.max()))
            ]
            edges = np.concatenate(kids)
            edge_order = np.argsort(edges, kind="stable")
            targets, starts = np.unique(edges[edge_order], return_index=True)
            self.levels.append(
                _Level(
                    nodes=nodes,
                    parents=np.asarray(parents, dtype=np.int64),
                    pos=np.asarray(pos, dtype=np.int64),
                    slot=slot,
                    gpar=np.array([g[0] for g in groups], dtype=np.int64),
                    gslot=np.array([g[1] for g in groups], dtype=np.int64),
                    kids=kids,
                    edge_order=edge_order,
                    targets=targets,
                    starts=starts,
                )
            )

    def run(
        self, gamma: np.ndarray, m: int, takeable: Optional[np.ndarray] = None
    ) -> BatchResult:
        """Top-m non-overlapping selections for the columns of ``gamma``.

        ``gamma`` is ``(nodes, R)``; ``takeable`` optionally narrows the
        space's takeable mask per segment (``(nodes, R)`` bool), which is how
        guess-and-verify restricts each segment to its head.
        """
        n, R = self.n_nodes, gamma.shape[1]
        if gamma.shape[0] != n:
            raise ValueError("gamma must have one row per space node")
        if not 1 <= m <= 127:  # quota decisions are int8
            raise ValueError("m must be in [1, 127]")
        ok = self.takeable[:, None]
        if takeable is not None:
            ok = ok & takeable
        g = np.where(ok, gamma, 0.0)
        eps = _tolerance(g, m)
        best = np.zeros((m + 1, n + 1, R))
        best[1:, :n] = g
        choices: List[np.ndarray] = [None] * len(self.levels)  # type: ignore[list-item]
        splits: List[List[np.ndarray]] = [None] * len(self.levels)  # type: ignore[list-item]
        for o in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[o]
            acc = np.zeros((m + 1, len(lv.gpar) + 1, R))  # last group: none
            splits[o] = []
            for kids in lv.kids:
                a = acc[:, : len(kids)]
                kid_best = best[:, kids]
                dec = np.zeros((m + 1, len(kids), R), dtype=np.int8)
                for q in range(m, 0, -1):  # descending: a[q - qc] still old
                    cand = a[q::-1] + kid_best[: q + 1]  # quota qc to this kid
                    v = cand.max(axis=0)
                    tied = cand >= v - eps
                    for qc in range(q, -1, -1):  # the smallest tied quota wins
                        np.copyto(dec[q], qc, where=tied[qc])
                    a[q] = v
                splits[o].append(dec)
            own = best[:, lv.parents]
            combs = [acc[:, lv.slot[:, s]] for s in range(lv.slot.shape[1])]
            v = own.copy()
            for comb in combs:
                np.maximum(v, comb, out=v)
            thr = v - eps
            choice = np.zeros(v.shape, dtype=np.int8)
            for s in range(len(combs) - 1, -1, -1):  # the first tied slot wins
                np.copyto(choice, s, where=combs[s] >= thr)
            if o:
                choice[ok[lv.parents][None] & (own >= thr)] = _TAKE
            best[:, lv.parents] = v
            choices[o] = choice

        # Top-down: replay the decisions from the root's full quota.
        quota = np.zeros((n + 1, R), dtype=np.intp)
        quota[n] = m
        cols = np.arange(R)
        picked_nodes, picked_cols = [], []

        def visit(nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            q = quota[nodes]
            active = best[q, nodes[:, None], cols] > 0.0
            return q, active

        for o, lv in enumerate(self.levels):
            q, active = visit(lv.nodes)
            take = active.copy()
            qp = q[lv.pos]
            ch = choices[o][qp, np.arange(len(lv.parents))[:, None], cols]
            take[lv.pos] &= ch == _TAKE
            rem = np.where(
                active[lv.pos][lv.gpar] & (ch[lv.gpar] == lv.gslot[:, None]),
                qp[lv.gpar],
                0,
            )
            edge_quota = np.empty((len(lv.edge_order), R), dtype=np.int8)
            end = len(lv.edge_order)
            for kids, dec in zip(reversed(lv.kids), reversed(splits[o])):
                a = len(kids)
                qc = np.take_along_axis(dec, rem[None, :a], axis=0)[0]
                edge_quota[end - a : end] = qc
                end -= a
                rem[:a] -= qc
            quota[lv.targets] = np.add.reduceat(
                edge_quota[lv.edge_order], lv.starts, axis=0
            )
            r, c = np.nonzero(take)
            picked_nodes.append(lv.nodes[r])
            picked_cols.append(c)
        q, active = visit(self.leaves)
        r, c = np.nonzero(active)
        picked_nodes.append(self.leaves[r])
        picked_cols.append(c)

        nodes = np.concatenate(picked_nodes).astype(np.int64)
        rows = np.concatenate(picked_cols)
        order = np.lexsort((nodes, -gamma[nodes, rows], rows))
        nodes, rows = nodes[order], rows[order]
        counts = np.bincount(rows, minlength=R)
        rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        ids = np.full((R, m), -1, dtype=np.int64)
        ids[rows, rank] = nodes
        return BatchResult(ids=ids, best=best[:, n].T.copy())


def _head(g: np.ndarray, k: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per column of ``g`` (candidates x segments): the mask of its top-k
    candidates, ties going to lower rows as in a stable sort, and the values
    of the next m, descending (zero-padded)."""
    n = len(g)
    tail = np.zeros((m, g.shape[1]))
    if k >= n:
        return np.ones(g.shape, dtype=bool), tail
    t_pos = n - k  # ascending position of the k-th largest value
    lo = max(0, t_pos - m)
    part = np.partition(g, list(range(lo, t_pos + 1)), axis=0)
    tail[: t_pos - lo] = part[lo:t_pos][::-1]
    t = part[t_pos]
    above = g > t
    at = g == t
    need = k - above.sum(axis=0)
    head = above | at
    cut = np.flatnonzero(at.sum(axis=0) > need)  # columns with ties at t
    if cut.size:
        at_c = at[:, cut]
        head[:, cut] = above[:, cut] | (at_c & (np.cumsum(at_c, axis=0) <= need[cut]))
    return head, tail


def guess_verify_batched(
    space: ExplanationSpace, gamma: np.ndarray, m: int, m_bar0: int = 30
) -> BatchResult:
    """Guess-and-verify (O1) for the columns of ``gamma``, exact.

    Each round restricts the space once to the union of the segments' heads
    (their top-m̄ candidates), runs :class:`CAPlan` with a per-segment head
    mask, and checks Eq. 12 for all segments at once; segments that fail are
    retried with m̄ doubled. Same answers as :func:`topm_guess_verify`.
    """
    R = gamma.shape[1]
    cand = space.candidate_ids()
    ids = np.full((R, m), -1, dtype=np.int64)
    best = np.zeros((R, m + 1))
    todo = np.arange(R)
    m_bar = min(m_bar0, len(cand))
    while todo.size:
        head, tail = _head(gamma[np.ix_(cand, todo)], m_bar, m)
        used = head.any(axis=1)
        sub, old_of_new = space.restrict(cand[used])
        in_head = np.zeros((sub.n_nodes, len(todo)), dtype=bool)
        in_head[np.searchsorted(old_of_new, cand[used])] = head[used]
        res = CAPlan(sub).run(gamma[np.ix_(old_of_new, todo)], m, in_head)
        # Eq. 12 with the m largest tail gammas of each segment.
        tail_sum = np.vstack([np.zeros(len(todo)), np.cumsum(tail, axis=0)])
        top = res.best[:, m]
        tol = 1e-9 * np.maximum(1.0, np.abs(top))
        verified = np.ones(len(todo), dtype=bool)
        for mp in range(m):
            verified &= top + tol >= res.best[:, mp] + tail_sum[m - mp]
        done = verified | (m_bar >= len(cand))
        ids[todo[done]] = np.append(old_of_new, -1)[res.ids[done]]  # -1 stays
        best[todo[done]] = res.best[done]
        todo = todo[~done]
        m_bar = min(2 * m_bar, len(cand))
    return BatchResult(ids=ids, best=best)
