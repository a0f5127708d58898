"""The benchmark's layer tracer (``perfbench/layers.py``) wraps program
functions by module attribute name. Every target must keep resolving, and the
pipeline must keep reaching its layers through them, or traced benchmark runs
lose layers silently."""
import importlib.util
import sys
from pathlib import Path

from repro.core.pipeline import Config, explain_series
from repro.datasets import synthetic

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    name = "perfbench_layers"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _LAYERS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_patch_targets_resolve():
    layers = _layers()
    for owner, attr, name, _ in layers._PATCHES:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_pipeline_reaches_traced_layers():
    layers = _layers()
    sd = synthetic.generate(n=60, snr_db=45, seed=3)
    tracer = layers.Tracer()
    call = tracer.traced(
        lambda: explain_series(sd.S, sd.labels, list(sd.attrs), sd.total, Config())
    )
    tracer.install()
    try:
        res = call()
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {
        "filtering.support_mask",
        "space.build",
        "space.restrict",
        "toplists.compute",
        "sketch.select",
        "sketch.phase1_ca",
        "sketch.phase1_segcost",
        "segcost.costs",
        "kseg.dp",
        "elbow.kneedle",
    } <= names
    metrics = layers.call_metrics(tracer.spans, len(res.positions))
    assert metrics["toplists.object_segments"] == sd.S.shape[1] - 1
    assert metrics["toplists.phase2_local_s"] > 0
    assert metrics["cascading.calls"] == 0  # CA runs batched, not per segment
    P = len(res.positions)
    assert P < sd.S.shape[1]  # the sketch shrank phase II
    assert metrics["segcost.centroids"] == P * (P - 1) // 2
    assert metrics["sketch.phase1_segcost_s"] > 0


def test_relation_reaches_precompute_layers(spark):
    """``explain_relation`` builds its matrix through the traced module (a)
    names; the pivot span counts every collected cube row."""
    from repro.core.pipeline import explain_relation
    from repro.core.precompute import candidate_series

    layers = _layers()
    sd = synthetic.generate(n=30, snr_db=45, seed=5)
    df = spark.createDataFrame(sd.relation_sum())
    tracer = layers.Tracer()
    call = tracer.traced(
        lambda: explain_relation(df, "T", ["category"], "sales", "sum", Config(K=2))
    )
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    spans = {s.name: s for s in tracer.spans}
    assert {"precompute.series_matrix", "precompute.cube_plan", "precompute.pivot"} <= set(spans)
    cube_rows = candidate_series(df, "T", ["category"], "sales").count()
    assert spans["precompute.pivot"].attrs["rows"] == cube_rows
    metrics = layers.call_metrics(tracer.spans, 2)
    assert metrics["precompute.cube_rows"] == cube_rows
