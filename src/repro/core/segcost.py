"""Vectorized within-segment cost matrices (pipeline module c).

For a centroid segment P = [p_s, p_e] the DP needs the *weighted* variance
``|P| * var(P) = sum over objects o_x in P of dist(o_x, P)`` (Eq. 7 times the
segment length). This module computes that sum for every centroid segment at
once, for all eight metric variants of Sec. 4.2.2:

- ``tse``     dist = 1 - (NDCG(cen, E*(obj)) + NDCG(obj, E*(cen))) / 2   (Eq. 6)
- ``dist1``   dist = 1 - NDCG(cen, E*(obj))                              (Eq. 8)
- ``dist2``   dist = 1 - NDCG(obj, E*(cen))                              (Eq. 9)
- ``allpair`` |P| * var = (1/|P|) * sum over object pairs of dist_tse    (Eq. 10)
- ``Stse``/``Sdist1``/``Sdist2``/``Sallpair``: squared-distance variants. The
  paper's "change the second term in the distance metric to its l2 norm" is
  under-specified; we interpret the S-family as using dist^2 in the variance
  (mean squared deviation instead of mean absolute), documented in DESIGN.md.

Pairwise metrics run in one kernel, :func:`pointwise_costs`, which loops over
the n-1 atomic objects rather than over centroids: every centroid holding an
object is one dense block of the (P, P) table over the segments' endpoints,
so each object costs a few numpy operations whatever the number of
centroids. The same kernel serves all position pairs (the pipeline), the
length-bounded segments of sketch phase I and arbitrary segment lists.

The scalar-reference implementation lives in :mod:`repro.core.ndcg`; tests
assert equality between the two.
"""
from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.core.kseg import segment_cells
from repro.core.toplists import TopLists, dcg_weights

Segment = Tuple[int, int]

PAIRWISE_METRICS = ("tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2")
ALLPAIR_METRICS = ("allpair", "Sallpair")
ALL_METRICS = PAIRWISE_METRICS + ALLPAIR_METRICS


def object_deltas(S: np.ndarray) -> np.ndarray:
    """eps x (n-1) signed deltas of the atomic objects [p_x, p_{x+1}]."""
    return S[:, 1:] - S[:, :-1]


def _safe_gather(vec: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """vec[ids] with -1 padding mapped to 0.0."""
    safe = np.where(ids >= 0, ids, 0)
    out = vec[safe]
    out[ids < 0] = 0.0
    return out


def pointwise_costs(
    S: np.ndarray,
    obj_tl: TopLists,
    cen_tl: TopLists,
    metrics: Sequence[str] = ("tse",),
) -> Dict[str, np.ndarray]:
    """``|P|*var(P)`` per centroid row of ``cen_tl`` for each pairwise metric.

    One dense pass per atomic object x: the centroids containing x are the
    position pairs (i, j) with ``pos[i] <= x < pos[j]`` (and no longer than
    the longest segment of ``cen_tl``), a contiguous block of the (P, P)
    table over the segments' endpoints. Both NDCG directions are computed for
    the whole block and ``dist`` (``dist**2`` for the S-metrics) is added into
    a (P, P) accumulator, read out in ``cen_tl.segments`` order. Block cells
    that are not segments are computed too and never read.

    Relevance is rectified as ``max(tau * delta, 0)``: ``|delta|`` when the
    effect agrees with tau, else 0; a -1 (padding) id gathers an appended
    zero row, so it adds nothing.
    """
    bad = set(metrics) - set(PAIRWISE_METRICS)
    if bad:
        raise ValueError(f"not pairwise metrics: {bad}")
    segs = cen_tl.segments
    if not len(segs):
        return {mt: np.zeros(0) for mt in metrics}
    pos = np.unique(segs)
    rows, cols = segment_cells(pos, segs)
    span = int((segs[:, 1] - segs[:, 0]).max())
    P, m = len(pos), cen_tl.m
    w = dcg_weights(m)

    # Centroid lists as (P, P, m) tables; cells that are not segments keep
    # id -1 and IDCG 0.
    cen_ids = np.full((P, P, m), -1, dtype=np.intp)
    cen_ids[rows, cols] = cen_tl.ids
    cen_signs = np.zeros((P, P, m), dtype=np.int8)
    cen_signs[rows, cols] = cen_tl.signs
    cen_idcg = np.zeros((P, P))
    cen_idcg[rows, cols] = cen_tl.idcg

    zero = np.zeros((1, S.shape[1]))
    S_pos = np.vstack([S, zero])[:, pos]  # (nodes + 1, P)
    D_obj = np.vstack([object_deltas(S), zero[:, 1:]]).T  # (n - 1, nodes + 1)

    # Object x's block: start rows [lo, mid), end columns [mid, hi).
    xs = np.arange(pos[0], pos[-1])
    los = np.searchsorted(pos, xs + 1 - span)
    mids = np.searchsorted(pos, xs, side="right")
    his = np.searchsorted(pos, xs + span, side="right")

    acc = {mt: np.zeros((P, P)) for mt in metrics}
    for x, lo, mid, hi in zip(xs, los, mids, his):
        block = (slice(lo, mid), slice(mid, hi))
        # Direction 1, NDCG(centroid, E*(o_x)): x's list on every block delta.
        A = S_pos[obj_tl.ids[x]]  # (m, P)
        delta = A[:, None, mid:hi] - A[:, lo:mid, None]  # (m, I, J)
        rel = np.maximum(delta * obj_tl.signs[x][:, None, None], 0.0)
        dcg = np.tensordot(w, rel, axes=1)
        idcg = cen_idcg[block]
        n_cen = np.ones_like(dcg)
        flat = idcg <= 0.0
        n_cen[~flat] = np.clip(dcg[~flat] / idcg[~flat], 0.0, 1.0)

        # Direction 2, NDCG(o_x, E*(centroid)): every block list on x's deltas.
        idcg_x = float(obj_tl.idcg[x])
        if idcg_x > 0.0:
            rel = np.maximum(D_obj[x][cen_ids[block]] * cen_signs[block], 0.0)
            n_obj = np.clip((rel @ w) / idcg_x, 0.0, 1.0)
        else:
            n_obj = np.ones_like(dcg)

        base = {
            "tse": 1.0 - (n_cen + n_obj) / 2.0,
            "dist1": 1.0 - n_cen,
            "dist2": 1.0 - n_obj,
        }
        for mt in metrics:
            d = base[mt.lstrip("S")]
            acc[mt][block] += d * d if mt.startswith("S") else d
    return {mt: acc[mt][rows, cols] for mt in metrics}


def object_pair_dist(
    S: np.ndarray, obj_tl: TopLists, squared: bool = False
) -> np.ndarray:
    """(n-1) x (n-1) matrix of dist_tse between every pair of atomic objects."""
    Dobj = object_deltas(S)
    n_obj = Dobj.shape[1]
    m = obj_tl.m
    w = dcg_weights(m)
    M = np.zeros((n_obj, n_obj))
    for y in range(n_obj):
        d_y = Dobj[:, y]
        # NDCG(o_y, E*(o_x)) for all x: query fixed at y, doc lists vary.
        g = np.abs(_safe_gather(d_y, obj_tl.ids))
        rect = (np.sign(_safe_gather(d_y, obj_tl.ids)) == obj_tl.signs) & (
            obj_tl.ids >= 0
        )
        dcg_y = ((g * rect) * w).sum(axis=1)
        idcg_y = float(obj_tl.idcg[y])
        n_y = np.ones(n_obj) if idcg_y <= 0 else np.clip(dcg_y / idcg_y, 0.0, 1.0)
        # NDCG(o_x, E*(o_y)) for all x: doc list fixed at y's list.
        ids_y = obj_tl.ids[y]
        safe = np.where(ids_y >= 0, ids_y, 0)
        d_at = Dobj[safe].copy()  # (m, n_obj)
        d_at[ids_y < 0] = 0.0
        g2 = np.abs(d_at)
        rect2 = (np.sign(d_at) == obj_tl.signs[y][:, None]) & (ids_y >= 0)[:, None]
        dcg_x = w @ (g2 * rect2)
        n_x = np.where(
            obj_tl.idcg > 0.0,
            np.clip(dcg_x / np.where(obj_tl.idcg > 0.0, obj_tl.idcg, 1.0), 0.0, 1.0),
            1.0,
        )
        M[y] = 1.0 - (n_y + n_x) / 2.0
    M = (M + M.T) / 2.0  # dist is symmetric (Eq. 6); average out float noise
    return M * M if squared else M


def allpair_costs(
    pair_dist: np.ndarray, segments: Iterable[Segment]
) -> np.ndarray:
    """``|P|*var(P)`` under Eq. 10 for each segment, via 2-D prefix sums.

    var = average of dist over all ordered object pairs in P, so
    ``|P|*var = (sum of the |P| x |P| block) / |P|``.
    """
    n_obj = pair_dist.shape[0]
    P = np.zeros((n_obj + 1, n_obj + 1))
    P[1:, 1:] = pair_dist.cumsum(axis=0).cumsum(axis=1)
    out = []
    for s, e in segments:
        ln = e - s
        block = P[e, e] - P[s, e] - P[e, s] + P[s, s]
        out.append(block / ln)
    return np.asarray(out)


def costs_for_segments(
    S: np.ndarray,
    obj_tl: TopLists,
    cen_tl: TopLists,
    metrics: Sequence[str],
) -> Dict[str, np.ndarray]:
    """Dispatch: pairwise metrics via ``pointwise_costs``, allpair via prefix sums."""
    out: Dict[str, np.ndarray] = {}
    pw = [mt for mt in metrics if mt in PAIRWISE_METRICS]
    if pw:
        out.update(pointwise_costs(S, obj_tl, cen_tl, pw))
    for mt in metrics:
        if mt in ALLPAIR_METRICS:
            M = object_pair_dist(S, obj_tl, squared=mt.startswith("S"))
            out[mt] = allpair_costs(M, [tuple(seg) for seg in cen_tl.segments])
    return out
