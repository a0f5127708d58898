"""End-to-end TSExplain (paper Sec. 5.2 pipeline, Fig. 7).

Two entry points:

- :func:`explain_series` — the algorithmic core over a pre-pivoted eps x n
  matrix (module a output). All optimizations (filter, guess-and-verify,
  sketching), the K-Segmentation DP, and the elbow selection of K live here.
- :func:`explain_relation` — the full Spark path: relation DataFrame →
  GROUPING SETS cube (Catalyst) → matrix → ``explain_series``.

Spark computes the cube; everything after it runs in the driver. The
Cascading Analysts stage (object lists, sketch phase I, phase II) is one
batched DP pass per chunk of segments (:mod:`repro.core.cascading`), so no
stage ships per-segment work to executors.

Stage timings are recorded for the latency tables (Fig. 15/16/17):
``precompute`` (cube/pivot/filter/space build), ``ca`` (the Cascading-Analysts
top lists of the objects and of the phase-II segments), ``sketch`` (sketch
phase I: its own top lists, costs and DP; 0 when the sketch is off),
``kseg`` (cost matrices, DP, elbow).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elbow import kneedle
from repro.core.filtering import DEFAULT_RATIO, support_mask
from repro.core.kseg import (
    DPResult,
    Segment,
    all_segments,
    build_cost_matrix,
    dp_segment,
    segments_of_cuts,
)
from repro.core.segcost import ALL_METRICS, costs_for_segments
from repro.core.sketch import select_sketch
from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists, object_segments
from repro.core.types import Explanation


@dataclass
class Config:
    """TSExplain knobs. Defaults = the paper's fully-optimized system; set
    ``use_filter = use_gv = use_sketch = False`` for VanillaTSExplain."""

    m: int = 3
    beta_max: int = 3
    k_max: int = 20
    K: Optional[int] = None  # None => elbow-selected
    metric: str = "tse"
    use_filter: bool = True
    filter_ratio: float = DEFAULT_RATIO
    use_gv: bool = True
    use_sketch: bool = True
    smooth_window: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("m", "beta_max", "k_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"Config.{name} must be >= 1, got {getattr(self, name)}")
        if self.K is not None and self.K < 1:
            raise ValueError(f"Config.K must be >= 1 or None, got {self.K}")
        if self.metric not in ALL_METRICS:
            raise ValueError(
                f"Config.metric must be one of {ALL_METRICS}, got {self.metric!r}"
            )


@dataclass
class SegmentResult:
    """One output segment with its ranked top explanations."""

    start: int
    end: int
    start_t: object
    end_t: object
    explanations: List[Tuple[str, int, float]]  # (label, tau, gamma)


@dataclass
class ExplainResult:
    """Evolving explanations (Def. 3.7) plus diagnostics."""

    n: int
    epsilon: int
    filtered_epsilon: int
    K: int
    cuts: List[int]
    total_variance: float
    curve: List[float]  # K-variance curve, K = 1..k_max
    segments: List[SegmentResult]
    timings: Dict[str, float] = field(default_factory=dict)
    positions: List[int] = field(default_factory=list)


def moving_average(S: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average per row (the paper's smoothing for fuzzy data)."""
    if window <= 1:
        return S
    kernel = np.ones(window) / window
    pad = window // 2
    padded = np.pad(S, ((0, 0), (pad, pad)), mode="edge")
    out = np.apply_along_axis(lambda r: np.convolve(r, kernel, "valid"), 1, padded)
    return out[:, : S.shape[1]]


def segment_results(
    space: ExplanationSpace, tl: TopLists, segments: Sequence[Segment], times: Sequence
) -> List[SegmentResult]:
    """One SegmentResult per (s, e) in ``segments``, with its top list from
    ``tl`` as (label, sign, gamma) triples."""
    out: List[SegmentResult] = []
    for s, e in segments:
        row = tl.row((s, e))
        expl = [
            (space.explanations[int(j)].label, int(sg), float(g))
            for j, g, sg in zip(tl.ids[row], tl.gammas[row], tl.signs[row])
            if j >= 0
        ]
        out.append(SegmentResult(s, e, times[s], times[e], expl))
    return out


def explain_series(
    S: np.ndarray,
    labels: Sequence[Explanation],
    attrs: Sequence[str],
    total: np.ndarray,
    cfg: Config = Config(),
    times: Optional[Sequence] = None,
) -> ExplainResult:
    """Run K-Segmentation + evolving explanations over a series matrix.

    When no explanation survives (no candidates, or the filter drops them
    all), the answer is one segment over the whole series with no
    explanations. A series shorter than 2 points raises ValueError.
    """
    S = np.asarray(S, dtype=float)
    total = np.asarray(total, dtype=float)
    if not (np.isfinite(S).all() and np.isfinite(total).all()):
        raise ValueError("S and total must be finite (found NaN or inf)")
    n = S.shape[1]
    if n < 2:
        raise ValueError(
            f"explain_series needs a series of at least 2 points, got length {n}"
        )
    times = list(times) if times is not None else list(range(n))
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()

    if cfg.smooth_window:
        S = moving_average(S, cfg.smooth_window)
        total = moving_average(total[None, :], cfg.smooth_window)[0]

    epsilon = len(labels)
    if cfg.use_filter:
        mask = support_mask(S, total, cfg.filter_ratio)
        S = S[mask]
        labels = [e for e, k in zip(labels, mask) if k]
    filtered_epsilon = len(labels)
    space = ExplanationSpace(labels, attrs)
    S_al = space.align(S, labels)
    timings["precompute"] = time.perf_counter() - t0
    if not space.n_nodes:
        return _unexplained(n, epsilon, times, timings)

    # --- module (b): top-explanations per segment -------------------------
    t0 = time.perf_counter()
    obj_tl = compute_toplists(S_al, space, object_segments(n), cfg.m, cfg.use_gv)
    timings["ca"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if cfg.use_sketch:
        positions = select_sketch(
            S_al, space, obj_tl, cfg.m, metric=cfg.metric, use_gv=cfg.use_gv
        )
    else:
        positions = list(range(n))
    timings["sketch"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    segments = all_segments(positions)
    cen_tl = compute_toplists(S_al, space, segments, cfg.m, cfg.use_gv)
    timings["ca"] += time.perf_counter() - t0

    # --- module (c): costs, DP, elbow -------------------------------------
    t0 = time.perf_counter()
    costs = costs_for_segments(S_al, obj_tl, cen_tl, [cfg.metric])[cfg.metric]
    C = build_cost_matrix(positions, cen_tl.segments, costs)
    dp: DPResult = dp_segment(C, positions, cfg.k_max)
    K = cfg.K if cfg.K is not None else kneedle(dp.curve())
    K = max(1, min(K, max(k for k in dp.cuts)))
    cuts = dp.cuts[K]
    timings["kseg"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    return ExplainResult(
        n=n,
        epsilon=epsilon,
        filtered_epsilon=filtered_epsilon,
        K=K,
        cuts=cuts,
        total_variance=float(dp.totals[K]),
        curve=dp.curve(),
        segments=segment_results(space, cen_tl, segments_of_cuts(cuts, n), times),
        timings=timings,
        positions=[int(p) for p in positions],
    )


def _unexplained(
    n: int, epsilon: int, times: List, timings: Dict[str, float]
) -> ExplainResult:
    """The answer for an empty explanation space: K=1, no explanations."""
    timings.update(ca=0.0, sketch=0.0, kseg=0.0)
    timings["total"] = sum(timings.values())
    return ExplainResult(
        n=n,
        epsilon=epsilon,
        filtered_epsilon=0,
        K=1,
        cuts=[],
        total_variance=0.0,
        curve=[0.0],
        segments=[SegmentResult(0, n - 1, times[0], times[n - 1], [])],
        timings=timings,
        positions=[0, n - 1],
    )


def explain_relation(
    df,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    cfg: Config = Config(),
) -> ExplainResult:
    """Full Spark path: Catalyst GROUPING SETS cube → matrix → explain."""
    from repro.core.precompute import series_matrix

    t0 = time.perf_counter()
    sm = series_matrix(df, time_col, attrs, measure_expr, agg, cfg.beta_max)
    spark_time = time.perf_counter() - t0
    res = explain_series(sm.S, sm.labels, attrs, sm.total, cfg, times=sm.times)
    res.timings["precompute"] += spark_time
    res.timings["total"] += spark_time
    return res
