"""Per-segment top-explanation lists (pipeline module b output).

For every segment (s, e) we run the Cascading Analysts algorithm on the
gamma vector ``|S[:, e] - S[:, s]|`` and store the ranked ids, gammas, signs
and the ideal DCG. Lists are padded to length m with id = -1 / gamma = 0.

The segments go through the batched kernel of :mod:`repro.core.cascading` in
chunks sized to a fixed memory budget. ``_toplist_row`` keeps the scalar
per-segment path as the test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.cascading import (
    CAPlan,
    guess_verify_batched,
    topm_guess_verify,
    topm_nonoverlapping,
)
from repro.core.space import ExplanationSpace

Segment = Tuple[int, int]

# Working memory of one kernel chunk; the chunk's segment count follows from
# the space size and m (see ``_chunk_rows``).
_CHUNK_BYTES = 64 << 20


def dcg_weights(m: int) -> np.ndarray:
    """1/log2(r+1) for 1-based ranks 1..m."""
    return 1.0 / np.log2(np.arange(1, m + 1) + 1.0)


@dataclass
class TopLists:
    """Ranked top-m lists for a set of segments, column-aligned by rank."""

    m: int
    segments: np.ndarray  # (R, 2) int
    ids: np.ndarray  # (R, m) int, -1 padded
    gammas: np.ndarray  # (R, m) float
    signs: np.ndarray  # (R, m) int8 (0 on padding)
    idcg: np.ndarray  # (R,) float

    def row(self, seg: Segment) -> int:
        """Row of segment ``seg``; KeyError when it has none."""
        hit = np.flatnonzero(
            (self.segments[:, 0] == seg[0]) & (self.segments[:, 1] == seg[1])
        )
        if not len(hit):
            raise KeyError(tuple(seg))
        return int(hit[0])

    def top_ids(self, seg: Segment) -> List[int]:
        r = self.row(seg)
        return [int(i) for i in self.ids[r] if i >= 0]


def _chunk_rows(n_nodes: int, m: int) -> int:
    """Segments per kernel chunk. On the full space the DP peaks at about
    five (m+1)-deep float64 values per node and segment (``best``, the
    knapsack accumulator and its temporaries); guess-and-verify works on a
    smaller restricted space and stays below that."""
    return max(1, _CHUNK_BYTES // ((n_nodes + 1) * (m + 1) * 40))


def compute_toplists(
    S: np.ndarray,
    space: ExplanationSpace,
    segments: np.ndarray | Iterable[Segment],
    m: int,
    use_gv: bool = True,
    m_bar0: int = 30,
) -> TopLists:
    """Run CA (optionally with guess-and-verify) for every segment, locally,
    with the batched kernel over chunks of segments. ``segments`` is an
    (R, 2) array (as :func:`repro.core.kseg.all_segments` returns) or any
    iterable of (s, e) pairs."""
    if not isinstance(segments, np.ndarray):
        segments = list(segments)
    segs = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    R = len(segs)
    ids = np.full((R, m), -1, dtype=np.int64)
    gammas = np.zeros((R, m))
    signs = np.zeros((R, m), dtype=np.int8)
    plan = None if use_gv else CAPlan(space)
    step = _chunk_rows(space.n_nodes, m)
    for lo in range(0, R, step):
        rows = slice(lo, lo + step)
        d = S[:, segs[rows, 1]] - S[:, segs[rows, 0]]
        g = np.abs(d)
        res = guess_verify_batched(space, g, m, m_bar0) if use_gv else plan.run(g, m)
        ids[rows] = res.ids
        # Padding ids (-1) pick an appended zero row.
        pad = np.zeros((1, d.shape[1]))
        cols = np.arange(d.shape[1])[:, None]
        gammas[rows] = np.vstack([g, pad])[res.ids, cols]
        signs[rows] = np.sign(np.vstack([d, pad]))[res.ids, cols]
    idcg = (gammas * dcg_weights(m)).sum(axis=1)
    return TopLists(m=m, segments=segs, ids=ids, gammas=gammas, signs=signs, idcg=idcg)


def _toplist_row(
    S: np.ndarray,
    space: ExplanationSpace,
    seg: Segment,
    m: int,
    use_gv: bool,
    m_bar0: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One segment's padded (ids, gammas, signs) by the scalar reference CA
    (test oracle for :func:`compute_toplists`)."""
    s, e = seg
    d = S[:, e] - S[:, s]
    g = np.abs(d)
    res = (
        topm_guess_verify(space, g, m, m_bar0)
        if use_gv
        else topm_nonoverlapping(space, g, m)
    )
    ids = np.full(m, -1, dtype=np.int64)
    gammas = np.zeros(m)
    signs = np.zeros(m, dtype=np.int8)
    for r, nid in enumerate(res.ids[:m]):
        ids[r] = nid
        gammas[r] = g[nid]
        signs[r] = np.sign(d[nid])
    return ids, gammas, signs


def object_segments(n: int) -> List[Segment]:
    """The n-1 atomic objects [p_x, p_{x+1}] (Sec. 4.1.1)."""
    return [(x, x + 1) for x in range(n - 1)]
