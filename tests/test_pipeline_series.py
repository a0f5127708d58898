"""Matrix-path end-to-end pipeline: recovery of planted segmentations."""
import dataclasses
import time

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import Config, ExplainResult, explain_series, moving_average
from repro.core.types import Explanation
from repro.datasets import synthetic


def _planted(n=60, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    a = np.where(t < 20, 100 + 5 * t, 200 - 2 * (t - 20))
    a[40:] = a[39]
    b = np.where(t < 40, 50 + t, 90 + 6 * (t - 40))
    c = np.full(n, 30.0)
    S = np.vstack([a, b, c]) + rng.normal(0, noise, (3, n))
    labels = [Explanation.of(cat=x) for x in "abc"]
    return S, labels, S.sum(axis=0)


class TestPlantedRecovery:
    def test_exact_k(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=3, use_sketch=False))
        assert res.K == 3
        assert all(abs(c - g) <= 2 for c, g in zip(res.cuts, [20, 40]))

    def test_auto_k(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config())
        assert res.K == 3

    def test_segment_explanations(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=3, use_sketch=False))
        top1 = [seg.explanations[0] for seg in res.segments]
        assert top1[0][0] == "cat=a" and top1[0][1] == 1
        assert top1[1][0] == "cat=a" and top1[1][1] == -1
        assert top1[2][0] == "cat=b" and top1[2][1] == 1

    @pytest.mark.parametrize("use_sketch", [False, True])
    @pytest.mark.parametrize("use_gv", [False, True])
    def test_optimizations_preserve_recovery(self, use_sketch, use_gv):
        S, labels, total = _planted()
        res = explain_series(
            S, labels, ["cat"], total,
            Config(K=3, use_sketch=use_sketch, use_gv=use_gv),
        )
        assert all(abs(c - g) <= 3 for c, g in zip(res.cuts, [20, 40]))

    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_generator_recovery(self, seed):
        sd = synthetic.generate(n=80, snr_db=45, seed=seed)
        res = explain_series(
            sd.S, sd.labels, list(sd.attrs), sd.total,
            Config(K=sd.gt_k, use_filter=False, use_sketch=False),
        )
        for g in sd.gt_cuts:
            assert min(abs(c - g) for c in res.cuts) <= 3, (res.cuts, sd.gt_cuts)


class TestResultContract:
    def test_result_fields(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=2, use_sketch=False))
        assert isinstance(res, ExplainResult)
        assert res.n == 60
        assert res.epsilon == 3
        assert len(res.cuts) == res.K - 1
        assert len(res.segments) == res.K
        assert len(res.curve) <= Config().k_max
        assert set(res.timings) >= {"precompute", "ca", "sketch", "kseg", "total"}
        assert res.total_variance >= 0

    def test_sketch_timed_apart_from_ca(self, monkeypatch):
        """Sketch phase I is its own stage: the time spent in
        ``select_sketch`` lands in ``timings["sketch"]``, not in ``ca``."""
        select = pipeline.select_sketch

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return select(*args, **kwargs)

        monkeypatch.setattr(pipeline, "select_sketch", slow)
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=2))
        assert res.timings["sketch"] >= 0.2
        assert res.timings["ca"] < 0.2
        off = explain_series(S, labels, ["cat"], total, Config(K=2, use_sketch=False))
        assert off.timings["sketch"] < 0.01

    def test_segments_tile_domain(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=4, use_sketch=False))
        assert res.segments[0].start == 0
        assert res.segments[-1].end == res.n - 1
        for a, b in zip(res.segments, res.segments[1:]):
            assert a.end == b.start

    def test_k_clamped_when_too_large(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=50, use_sketch=False))
        assert res.K <= Config().k_max

    def test_curve_decreasing(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(use_sketch=False))
        curve = res.curve
        assert all(curve[i] >= curve[i + 1] - 1e-9 for i in range(len(curve) - 1))

    def test_filter_reduces_epsilon(self):
        S, labels, total = _planted()
        # add a negligible 4th slice
        S2 = np.vstack([S, np.full(60, 1e-4)])
        labels2 = labels + [Explanation.of(cat="tiny")]
        res = explain_series(S2, labels2, ["cat"], total, Config(K=2))
        assert res.epsilon == 4
        assert res.filtered_epsilon == 3

    def test_times_passthrough(self):
        S, labels, total = _planted()
        times = [f"d{i}" for i in range(60)]
        res = explain_series(
            S, labels, ["cat"], total, Config(K=2, use_sketch=False), times=times
        )
        assert res.segments[0].start_t == "d0"
        assert res.segments[-1].end_t == "d59"


class TestMovingAverage:
    def test_identity_window(self):
        S = np.random.default_rng(0).random((2, 10))
        np.testing.assert_array_equal(moving_average(S, 1), S)

    def test_constant_preserved(self):
        S = np.full((1, 20), 7.0)
        np.testing.assert_allclose(moving_average(S, 5), S)

    def test_shape_preserved(self):
        S = np.random.default_rng(0).random((3, 17))
        assert moving_average(S, 4).shape == S.shape

    def test_smoothing_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(0, 1, (1, 500))
        sm = moving_average(S, 7)
        assert sm.std() < S.std() * 0.6


class TestDegenerateInput:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(m=0),
            dict(K=0),
            dict(k_max=0),
            dict(beta_max=0),
            dict(metric="no-such-metric"),
            dict(K=-1),
        ],
    )
    def test_config_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            Config(**kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["S", "total"])
    def test_non_finite_input_rejected(self, bad, where):
        S, labels, total = _planted()
        if where == "S":
            S = S.copy()
            S[1, 7] = bad
        else:
            total = total.copy()
            total[7] = bad
        with pytest.raises(ValueError, match="finite"):
            explain_series(S, labels, ["cat"], total, Config(K=2))

    @pytest.mark.parametrize(
        "cfg",
        [Config(), Config(use_filter=False, use_sketch=False)],
        ids=["filtered", "unfiltered"],
    )
    def test_all_zero_input(self, cfg):
        S = np.zeros((3, 30))
        labels = [Explanation.of(cat=x) for x in "abc"]
        res = explain_series(S, labels, ["cat"], S.sum(axis=0), cfg)
        assert res.K == 1 and res.cuts == []
        assert [(g.start, g.end, g.explanations) for g in res.segments] == [(0, 29, [])]

    def test_filter_dropping_every_row(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(filter_ratio=2.0))
        assert res.filtered_epsilon == 0
        assert res.K == 1 and res.cuts == [] and res.total_variance == 0.0
        assert len(res.segments) == 1
        seg = res.segments[0]
        assert (seg.start, seg.end, seg.explanations) == (0, 59, [])

    def test_length_one_rejected(self):
        S, labels, total = _planted()
        with pytest.raises(ValueError, match="length 1"):
            explain_series(S[:, :1], labels, ["cat"], total[:1], Config())

    @pytest.mark.parametrize(
        "cfg", [Config(), Config(use_sketch=False)], ids=["sketch", "exact"]
    )
    def test_length_two(self, cfg):
        S, labels, total = _planted()
        res = explain_series(S[:, :2], labels, ["cat"], total[:2], cfg)
        assert res.K == 1 and res.cuts == []
        assert [(g.start, g.end) for g in res.segments] == [(0, 1)]
        assert res.segments[0].explanations

    @pytest.mark.parametrize(
        "cfg", [Config(), Config(use_sketch=False)], ids=["sketch", "exact"]
    )
    def test_length_three(self, cfg):
        S, labels, total = _planted()
        res = explain_series(S[:, :3], labels, ["cat"], total[:3], cfg)
        assert 1 <= res.K <= 2 and len(res.cuts) == res.K - 1
        assert all(0 < c < 2 for c in res.cuts)
        assert res.segments[0].start == 0 and res.segments[-1].end == 2


METAMORPHIC_CONFIGS = pytest.mark.parametrize(
    "cfg", [Config(), Config(use_sketch=False)], ids=["default", "exact"]
)


def _random_series(seed, n=80, eps=8, integer=False):
    """Random walks per label; float draws are tie-free with probability 1."""
    rng = np.random.default_rng(seed)
    steps = (
        rng.integers(-50, 51, (eps, n)).astype(float)
        if integer
        else rng.normal(0.0, 20.0, (eps, n))
    )
    S = 1000.0 + steps.cumsum(axis=1)
    labels = [Explanation.of(cat=f"c{i}") for i in range(eps)]
    return S, labels, S.sum(axis=0)


def _lists(res):
    return [(g.start, g.end, g.explanations) for g in res.segments]


class TestMetamorphic:
    """Transformations of the input that must not change the answer."""

    @METAMORPHIC_CONFIGS
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scaling_by_power_of_two(self, cfg, seed):
        S, labels, total = _random_series(seed)
        a = explain_series(S, labels, ["cat"], total, cfg)
        b = explain_series(4.0 * S, labels, ["cat"], 4.0 * total, cfg)
        assert (a.K, a.cuts, a.positions) == (b.K, b.cuts, b.positions)
        assert a.total_variance == b.total_variance
        scaled = [
            (s, e, [(lb, tau, 4.0 * g) for lb, tau, g in ex])
            for s, e, ex in _lists(a)
        ]
        assert _lists(b) == scaled

    @METAMORPHIC_CONFIGS
    @pytest.mark.parametrize("seed", [2, 3])
    def test_label_row_permutation(self, cfg, seed):
        S, labels, total = _random_series(seed)
        perm = np.random.default_rng(seed).permutation(len(labels))
        a = explain_series(S, labels, ["cat"], total, cfg)
        b = explain_series(S[perm], [labels[i] for i in perm], ["cat"], total, cfg)
        assert (a.K, a.cuts) == (b.K, b.cuts)

    @METAMORPHIC_CONFIGS
    @pytest.mark.parametrize("seed", [4, 5])
    def test_per_row_constant_without_filter(self, cfg, seed):
        # Integer-valued series: adding integer constants keeps every delta
        # exact, so even tied gammas stay tied.
        S, labels, total = _random_series(seed, integer=True)
        shift = np.random.default_rng(seed).integers(-500, 5000, (len(labels), 1))
        cfg = dataclasses.replace(cfg, use_filter=False)
        a = explain_series(S, labels, ["cat"], total, cfg)
        b = explain_series(S + shift, labels, ["cat"], total + shift.sum(), cfg)
        assert (a.K, a.cuts) == (b.K, b.cuts)
