"""Outside-in layer trace of ``explain_relation``.

The pipeline runs its real control flow; the tracer only replaces the module
attributes through which it reaches each ``repro.core`` layer with timing
wrappers, and restores them afterwards. Spans are parent-linked, carry the id
of the ``explain_relation`` call they belong to, and stay in memory until the
run writes them out.

Two blind spots, both by design of PySpark rather than of the tracer:

- The Arrow collect inside ``precompute.series_matrix`` cannot be caught by
  patching ``DataFrame.toPandas`` in PySpark 4.1, so Spark execution and
  collect appear as the self time of ``series_matrix``.
- Cascading Analysts calls made inside Spark Python workers (phase II via
  ``spark_ca``) never pass through wrappers in this process; that layer is
  reported as segments shipped, not CA calls.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import pipeline, precompute, sketch, space, spark_ca, toplists

ROOT = "explain_relation"

Note = Callable[[tuple, Any], Dict[str, float]]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    call: int
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _n(key: str, fn: Callable[[tuple, Any], float]) -> Note:
    return lambda args, out: {key: float(fn(args, out))}


# (owner, attribute, span name, counters recorded from (args, result)).
# The pipeline binds most layers into its own namespace at import, so those
# are patched on ``pipeline`` (and on ``sketch`` for phase I); the functions
# that look up module globals at call time are patched at their home module.
_PATCHES: List[Tuple[Any, str, str, Optional[Note]]] = [
    (precompute, "series_matrix", "precompute.series_matrix", None),
    (precompute, "candidate_series", "precompute.cube_plan", None),
    (precompute, "to_matrix", "precompute.pivot", _n("rows", lambda a, o: len(a[0]))),
    (
        pipeline,
        "support_mask",
        "filtering.support_mask",
        lambda a, o: {"kept": float(o.sum()), "candidates": float(len(o))},
    ),
    (
        pipeline,
        "ExplanationSpace",
        "space.build",
        lambda a, o: {"nodes": float(o.n_nodes), "candidates": float(o.n_candidates)},
    ),
    (space.ExplanationSpace, "restrict", "space.restrict", _n("head", lambda a, o: len(a[1]))),
    (pipeline, "compute_toplists", "toplists.compute", _n("segments", lambda a, o: len(o.segments))),
    (pipeline, "select_sketch", "sketch.select", None),
    (sketch, "all_segments", "sketch.all_segments", None),
    (sketch, "compute_toplists", "sketch.phase1_ca", _n("segments", lambda a, o: len(o.segments))),
    (sketch, "costs_for_segments", "sketch.phase1_segcost", None),
    (sketch, "build_cost_matrix", "sketch.phase1_cost_matrix", None),
    (sketch, "dp_segment", "sketch.phase1_dp", None),
    (
        spark_ca,
        "compute_toplists_spark",
        "spark_ca.phase2",
        _n("segments", lambda a, o: len(o.segments)),
    ),
    (toplists, "topm_guess_verify", "cascading.guess_verify", None),
    (toplists, "topm_nonoverlapping", "cascading.exact", None),
    (pipeline, "all_segments", "kseg.all_segments", None),
    (
        pipeline,
        "costs_for_segments",
        "segcost.costs",
        _n("centroids", lambda a, o: len(next(iter(o.values())))),
    ),
    (pipeline, "build_cost_matrix", "kseg.cost_matrix", None),
    (pipeline, "dp_segment", "kseg.dp", None),
    (pipeline, "kneedle", "elbow.kneedle", None),
]


class Tracer:
    """Collects the spans of traced calls while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._call = -1
        self._saved: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, self._call, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def traced(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` with one root span per call; call ids count from 0."""

        def run():
            self._call += 1
            with self.span(ROOT):
                return fn()

        return run

    def _wrap(self, fn, name: str, note: Optional[Note]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    sp.attrs.update(note(args, out))
                return out

        return traced

    def install(self) -> None:
        for owner, attr, name, note in _PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


# name -> unit of every per-layer metric, in report order.
UNITS: Dict[str, str] = {
    "precompute.cube_plan_s": "s",
    "precompute.collect_s": "s",
    "precompute.pivot_s": "s",
    "precompute.cube_rows": "count",
    "filtering.support_mask_s": "s",
    "filtering.kept_share": "fraction",
    "space.build_s": "s",
    "space.nodes": "count",
    "space.closure_nodes": "count",
    "space.restrict_s": "s",
    "space.restrict_calls": "count",
    "cascading.calls": "count",
    "cascading.gv_rounds_per_call": "rounds/call",
    "cascading.gv_mean_head": "explanations",
    "toplists.object_s": "s",
    "toplists.object_segments": "count",
    "toplists.phase2_local_s": "s",
    "sketch.select_s": "s",
    "sketch.phase1_ca_s": "s",
    "sketch.phase1_segcost_s": "s",
    "sketch.phase1_segments": "count",
    "sketch.positions": "count",
    "spark_ca.phase2_s": "s",
    "spark_ca.segments": "count",
    "segcost.costs_s": "s",
    "segcost.centroids": "count",
    "kseg.all_segments_s": "s",
    "kseg.cost_matrix_s": "s",
    "kseg.dp_s": "s",
    "elbow.kneedle_s": "s",
    "pipeline.other_s": "s",
    "trace.overhead_s": "s",
}


def call_metrics(spans: List[Span], positions: int) -> Dict[str, float]:
    """Per-layer values of one traced call (all spans share its call id).

    ``positions`` is the number of cutting positions phase II used, taken
    from the call's result (the sketch, or every point when it is off).
    """
    root = next(s for s in spans if s.name == ROOT)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name: str) -> float:
        return sum(s.dur for s in by_name.get(name, []))

    def count(name: str) -> float:
        return float(len(by_name.get(name, [])))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in by_name.get(name, []))

    # The pipeline's own compute_toplists calls: object lists first, then
    # phase II when it runs locally instead of on Spark.
    ca_calls = sorted(by_name.get("toplists.compute", []), key=lambda s: s.start)
    obj, local2 = ca_calls[:1], ca_calls[1:]

    gv = by_name.get("cascading.guess_verify", [])
    restrict_by_parent: Dict[int, List[Span]] = {}
    for s in by_name.get("space.restrict", []):
        restrict_by_parent.setdefault(s.parent, []).append(s)
    gv_rounds = [len(restrict_by_parent.get(s.id, [])) for s in gv]
    gv_heads = [
        max(restrict_by_parent[s.id], key=lambda r: r.start).attrs["head"]
        for s in gv
        if s.id in restrict_by_parent
    ]

    filtered = "filtering.support_mask" in by_name
    return {
        "precompute.cube_plan_s": dur("precompute.cube_plan"),
        "precompute.collect_s": dur("precompute.series_matrix")
        - dur("precompute.cube_plan")
        - dur("precompute.pivot"),
        "precompute.pivot_s": dur("precompute.pivot"),
        "precompute.cube_rows": attr("precompute.pivot", "rows"),
        "filtering.support_mask_s": dur("filtering.support_mask"),
        "filtering.kept_share": attr("filtering.support_mask", "kept")
        / attr("filtering.support_mask", "candidates")
        if filtered
        else 1.0,
        "space.build_s": dur("space.build"),
        "space.nodes": attr("space.build", "nodes"),
        "space.closure_nodes": attr("space.build", "nodes")
        - attr("space.build", "candidates"),
        "space.restrict_s": dur("space.restrict"),
        "space.restrict_calls": count("space.restrict"),
        "cascading.calls": count("cascading.guess_verify") + count("cascading.exact"),
        "cascading.gv_rounds_per_call": statistics.fmean(gv_rounds) if gv_rounds else 0.0,
        "cascading.gv_mean_head": statistics.fmean(gv_heads) if gv_heads else 0.0,
        "toplists.object_s": sum(s.dur for s in obj),
        "toplists.object_segments": sum(s.attrs["segments"] for s in obj),
        "toplists.phase2_local_s": sum(s.dur for s in local2),
        "sketch.select_s": dur("sketch.select"),
        "sketch.phase1_ca_s": dur("sketch.phase1_ca"),
        "sketch.phase1_segcost_s": dur("sketch.phase1_segcost"),
        "sketch.phase1_segments": attr("sketch.phase1_ca", "segments"),
        "sketch.positions": float(positions),
        "spark_ca.phase2_s": dur("spark_ca.phase2"),
        "spark_ca.segments": attr("spark_ca.phase2", "segments"),
        "segcost.costs_s": dur("segcost.costs"),
        "segcost.centroids": attr("segcost.costs", "centroids"),
        "kseg.all_segments_s": dur("kseg.all_segments"),
        "kseg.cost_matrix_s": dur("kseg.cost_matrix"),
        "kseg.dp_s": dur("kseg.dp"),
        "elbow.kneedle_s": dur("elbow.kneedle"),
        "pipeline.other_s": root.dur
        - sum(s.dur for s in spans if s.parent == root.id),
    }
