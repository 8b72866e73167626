"""Parity and property suite for the incremental label cache.

The label cache (``repro.serving.label_cache`` + ``repro.core.relabel``)
is an execution accelerator, not a model change: a spliced relabel must
be **bit-identical** to relabelling the same window from scratch under
the same frozen parameters — same squared pool errors, same smoothed
labels, same classifier memory, same forecasts — on both the per-stream
and the batched path. This suite pins that contract:

* kernel bit tests: :func:`windowed_label_sums` equals a strict
  left-to-right scalar accumulation, and its bits are independent of
  the ``[lo, hi)`` range requested — the property that makes boundary
  recomputation safe;
* hypothesis splice-parity over overlapping, disjoint, and shrinking
  window geometries, per-stream and batched vs loop;
* fleet-level storm parity: a fleet whose cache splices and one whose
  cache is emptied before every retrain round produce identical
  forecasts tick for tick;
* invalidation: config/params fingerprint mismatches miss (and drop the
  stale tail), stream removal drops the tail;
* persistence: cache tails survive a save/load round trip and the
  restored fleet keeps splicing.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.core.relabel import (
    CachedLabels,
    plan_splice,
    relabel_group,
    windowed_label_sums,
)
from repro.serving import (
    BatchedTrainEngine,
    FleetConfig,
    LabelCache,
    PredictionFleet,
    config_fingerprint,
    params_fingerprint,
)
from repro.traces.synthetic import ar1_series



def _fleet_config(**overrides):
    defaults = dict(
        lar=LARConfig(window=5),
        min_train=20,
        qa_threshold=2.0,
        audit_window=8,
        audit_interval=4,
        retrain_window=40,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _memory_rows(predictor):
    clf = predictor._classifier
    return clf._X.copy(), clf._y.copy(), dict(clf._label_counts)


def _assert_results_identical(a, b):
    """Two RelabelResults carry the same bits everywhere it matters."""
    assert np.array_equal(a.sq, b.sq)
    assert np.array_equal(a.labels, b.labels)
    xa, ya, ca = _memory_rows(a.predictor)
    xb, yb, cb = _memory_rows(b.predictor)
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)
    assert ca == cb
    fa, fb = a.predictor.forecast(), b.predictor.forecast()
    assert fa.value == fb.value
    assert fa.predictor_label == fb.predictor_label


class TestWindowedLabelSums:
    def test_matches_scalar_left_to_right_accumulation(self):
        rng = np.random.default_rng(0)
        sq = rng.random((2, 40, 3))
        smooth = 7
        half = smooth // 2
        out = np.empty_like(sq)
        windowed_label_sums(sq, smooth, 0, 40, out)
        for s in range(2):
            for i in range(40):
                for m in range(3):
                    acc = 0.0
                    for j in range(max(i - half, 0), min(i + smooth - half, 40)):
                        acc += sq[s, j, m]
                    assert out[s, i, m] == acc

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        smooth=st.integers(min_value=1, max_value=12),
        bounds=st.tuples(
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=1, max_value=30),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_subrange_bits_independent_of_requested_range(
        self, seed, smooth, bounds
    ):
        """out[:, i] depends only on the window contents — computing a
        subrange must reproduce the full range's bits exactly (the
        property splice boundary recomputation relies on)."""
        lo, hi = min(bounds), max(bounds)
        if lo == hi:
            hi = lo + 1
        sq = np.random.default_rng(seed).random((2, 30, 3))
        full = np.empty_like(sq)
        windowed_label_sums(sq, smooth, 0, 30, full)
        partial = np.full_like(sq, np.nan)
        windowed_label_sums(sq, smooth, lo, hi, partial)
        assert np.array_equal(partial[:, lo:hi], full[:, lo:hi])


class TestPlanSplice:
    def test_backward_shift_is_a_miss(self):
        assert plan_splice(10, 50, 5, 50, 5) is None

    def test_disjoint_windows_are_a_miss(self):
        assert plan_splice(0, 50, 50, 50, 5) is None
        assert plan_splice(0, 50, 80, 50, 5) is None

    def test_same_start_reuses_leading_edge_labels(self):
        plan = plan_splice(0, 50, 0, 60, 6)
        assert plan.delta == 0 and plan.reuse == 50
        # Shared left edge: cached rows clipped identically, so label
        # reuse starts at frame 0; only the right boundary recomputes.
        assert plan.label_lo == 0
        assert plan.label_hi == 50 - (6 - 3)

    def test_shifted_window_recomputes_both_boundaries(self):
        plan = plan_splice(0, 50, 10, 50, 6)
        assert plan.delta == 10 and plan.reuse == 40
        assert plan.label_lo == 3
        assert plan.label_hi == 40 - 3

    def test_shrinking_window_caps_reuse(self):
        plan = plan_splice(0, 50, 5, 20, 4)
        assert plan.reuse == 20  # the whole (smaller) new window

    @given(
        old_start=st.integers(min_value=0, max_value=100),
        n_old=st.integers(min_value=1, max_value=100),
        delta=st.integers(min_value=-50, max_value=150),
        n_new=st.integers(min_value=1, max_value=100),
        smooth=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_are_always_consistent(
        self, old_start, n_old, delta, n_new, smooth
    ):
        plan = plan_splice(old_start, n_old, old_start + delta, n_new, smooth)
        if plan is None:
            assert delta < 0 or min(n_old - delta, n_new) <= 0
            return
        assert 0 <= plan.label_lo <= plan.label_hi <= plan.reuse
        assert 0 < plan.reuse <= min(n_old - plan.delta, n_new)
        # Cached slice indices stay inside the cached tail.
        assert plan.delta + plan.reuse <= n_old


class TestPerStreamSpliceParity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stride=st.integers(min_value=0, max_value=100),
        n_new=st.integers(min_value=30, max_value=80),
        smooth=st.sampled_from([1, 2, 6, 10]),
    )
    @settings(max_examples=25, deadline=None)
    def test_spliced_relabel_bit_identical_to_full(
        self, seed, stride, n_new, smooth
    ):
        """Overlapping, disjoint, and shrinking geometries all reduce
        to the same bits as a cold full relabel."""
        series = 10.0 + 3.0 * ar1_series(200, phi=0.85, seed=seed)
        predictor = OnlineLARPredictor(
            LARConfig(window=5), label_smoothing=smooth
        ).train(series[:80])
        warm = predictor.relabel(series[:80], start=0)
        tail = CachedLabels(0, warm.sq, warm.labels)
        predictor = warm.predictor
        window = series[stride : stride + n_new]
        full = predictor.relabel(window, start=stride)
        spliced = predictor.relabel(window, start=stride, cached=tail)
        _assert_results_identical(full, spliced)
        assert full.reused == 0
        plan = plan_splice(0, 75, stride, n_new - 5, smooth)
        if plan is None:
            assert spliced.reused == 0
        else:
            assert spliced.reused == plan.reuse
            assert spliced.labels_reused == plan.label_hi - plan.label_lo

    def test_relabel_returns_a_new_predictor_with_frozen_params(self):
        series = 10.0 + 3.0 * ar1_series(120, phi=0.85, seed=3)
        predictor = OnlineLARPredictor(LARConfig(window=5)).train(series[:80])
        result = predictor.relabel(series[40:120], start=40)
        assert result.predictor is not predictor
        old_norm = predictor._runner.pipeline.normalizer
        new_norm = result.predictor._runner.pipeline.normalizer
        assert new_norm.mean == old_norm.mean
        assert new_norm.std == old_norm.std
        old_ar = predictor._runner.pool[1]
        new_ar = result.predictor._runner.pool[1]
        assert np.array_equal(new_ar.coefficients_, old_ar.coefficients_)
        assert params_fingerprint(result.predictor) == params_fingerprint(
            predictor
        )


class TestBatchedMatchesPerStream:
    def test_mixed_geometry_burst_bit_identical_to_loop(self):
        """One burst mixing cache hits with different deltas, a miss,
        a disjoint tail, and two window lengths: the batched engine
        groups them by (length, geometry) and every stream still
        carries the per-stream bits."""
        config = _fleet_config(label_smoothing=6, retrain_window=None)
        engine = BatchedTrainEngine(config)
        n = 6
        series = [
            10.0 + 3.0 * ar1_series(220, phi=0.85, seed=s) for s in range(n)
        ]
        predictors = engine.train_many([s[:80] for s in series])
        warm = engine.relabel_many(
            [(predictors[i], series[i][:80], 0, None) for i in range(n)]
        )
        tails = [CachedLabels(0, r.sq, r.labels) for r in warm]
        predictors = [r.predictor for r in warm]
        tasks = [
            (predictors[0], series[0][20:100], 20, tails[0]),   # delta 20
            (predictors[1], series[1][40:120], 40, tails[1]),   # delta 40
            (predictors[2], series[2][20:100], 20, None),       # miss
            (predictors[3], series[3][100:180], 100, tails[3]),  # disjoint
            (predictors[4], series[4][20:80], 20, tails[4]),    # shorter
            (predictors[5], series[5][20:100], 20, tails[5]),   # delta 20
        ]
        batched = engine.relabel_many(tasks)
        for result, (predictor, window, start, cached) in zip(batched, tasks):
            loop = predictor.relabel(window, start=start, cached=cached)
            _assert_results_identical(result, loop)
        assert batched[0].reused > 0 and batched[5].reused > 0
        assert batched[2].reused == 0
        assert batched[3].reused == 0  # no shared frames

    def test_group_rows_independent_of_stack_size(self):
        """Stream-count position independence: a stream's (sq, labels)
        rows carry the same bits whether it is relabelled alone or
        stacked with others (the claim the relabel kernels are built
        on — the stacked-matmul AR kernel notably lacks it)."""
        predictors = []
        histories = []
        for s in range(3):
            series = 10.0 + 3.0 * ar1_series(90, phi=0.85, seed=100 + s)
            predictors.append(
                OnlineLARPredictor(LARConfig(window=5)).train(series)
            )
            histories.append(series)
        def params(subset):
            runners = [predictors[i]._runner for i in subset]
            return dict(
                norm_means=np.array(
                    [r.pipeline.normalizer.mean for r in runners]
                ),
                norm_stds=np.array(
                    [r.pipeline.normalizer.std for r in runners]
                ),
                ar_phi=np.stack([r.pool[1].coefficients_ for r in runners]),
                ar_means=np.array([r.pool[1].mean_ for r in runners]),
                window=5,
                smooth=10,
                sw_window=runners[0].pool[2].window,
            )
        stacked = relabel_group(
            np.stack([histories[i] for i in range(3)]), **params(range(3))
        )
        for s in range(3):
            alone = relabel_group(histories[s][None], **params([s]))
            assert np.array_equal(stacked[2][s], alone[2][0])  # sq
            assert np.array_equal(stacked[3][s], alone[3][0])  # labels


def _drifting_feeds(names, n):
    """Two drift storms per stream, each a run of abrupt level shifts
    a few audit intervals apart: every jump re-breaches the QA, so a
    storm schedules a *cluster* of closely-spaced retrains over heavily
    overlapping windows — exactly the access pattern the cache serves.
    (A slow ramp would not do: the online learning path absorbs it
    without ever breaching.)"""
    feeds = {}
    third = n // 3
    for i, name in enumerate(names):
        series = 10.0 + 2.0 * ar1_series(n, phi=0.9, seed=7 * i + 1)
        for storm in (third, 2 * third):
            for j in range(3):
                series[storm + 10 * j :] += 15.0
        feeds[name] = series
    return feeds


def _serve(fleet, feeds, ticks, *, forget_labels=False):
    """Serve *ticks* ticks; with *forget_labels*, empty the fleet's label
    cache before every ingest (and so before every retrain round), so
    each relabel misses and relabels its full window."""
    out = []
    for t in range(ticks):
        out.append(
            {n: (fc.value, fc.predictor_label)
             for n, fc in fleet.forecast_all().items()}
        )
        if forget_labels:
            fleet._label_cache.clear()
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    return out


def _serve_until_cached(fleet, feeds, max_ticks, names=None):
    """Serve ticks until the named streams (default: any one stream)
    hold a cache tail; returns the next tick index. Tails are transient
    state — a later cold retrain (low-overlap window) legitimately
    drops them — so lifecycle tests act at a moment the cache is known
    to be populated instead of assuming a storm's tails survive to an
    arbitrary endpoint."""
    for t in range(max_ticks):
        fleet.forecast_all()
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
        if names is None:
            if len(fleet._label_cache) > 0:
                return t + 1
        elif all(
            fleet._label_cache.tail(name) is not None for name in names
        ):
            return t + 1
    pytest.fail("the storm never populated the label cache")


class TestFleetStormParity:
    def test_cache_on_equals_cache_off_tick_for_tick(self):
        names = ["a", "b", "c"]
        ticks = 150
        feeds = _drifting_feeds(names, ticks)
        on = PredictionFleet(_fleet_config(), streams=names, telemetry=True)
        off = PredictionFleet(_fleet_config(), streams=names)
        assert _serve(on, feeds, ticks) == _serve(
            off, feeds, ticks, forget_labels=True
        )
        retrains = on.metrics().total_retrains
        assert retrains == off.metrics().total_retrains
        assert retrains > 0
        # The parity is only meaningful if the cache actually spliced.
        snap = on.telemetry.registry.snapshot()
        hits = snap["repro_fleet_label_cache_hits_total"]["series"][0]["value"]
        assert hits > 0

    def test_batched_equals_loop_with_cache_on(self):
        names = ["a", "b", "c"]
        ticks = 150
        feeds = _drifting_feeds(names, ticks)
        batched = PredictionFleet(_fleet_config(), streams=names)
        loop = PredictionFleet(_fleet_config(), streams=names)
        out_b = []
        out_l = []
        for t in range(ticks):
            out_b.append(
                {n: fc.value for n, fc in batched.forecast_all().items()}
            )
            out_l.append(
                {n: fc.value
                 for n, fc in loop.forecast_all(batched=False).items()}
            )
            values = {name: feeds[name][t] for name in names}
            batched.ingest(values)
            loop.ingest(values, batched=False)
        assert out_b == out_l

    def test_policy_off_refits_cold_every_time(self):
        """min_relabel_overlap=None is the legacy behavior: no stream
        ever relabels incrementally and the cache stays empty."""
        names = ["a", "b"]
        ticks = 150
        feeds = _drifting_feeds(names, ticks)
        fleet = PredictionFleet(
            _fleet_config(min_relabel_overlap=None),
            streams=names,
            telemetry=True,
        )
        _serve(fleet, feeds, ticks)
        assert fleet.metrics().total_retrains > 0
        assert len(fleet._label_cache) == 0
        snap = fleet.telemetry.registry.snapshot()
        assert (
            snap["repro_fleet_label_cache_hits_total"]["series"][0]["value"]
            == 0
        )


class TestInvalidation:
    def _tail_args(self):
        rng = np.random.default_rng(1)
        return rng.random((20, 3)), rng.integers(1, 4, size=20)

    def test_lookup_on_empty_cache_is_a_cold_miss(self):
        cache = LabelCache()
        assert cache.lookup("s", "cfg", "params") == (None, "cold")

    def test_config_fingerprint_mismatch_drops_the_tail(self):
        cache = LabelCache()
        sq, labels = self._tail_args()
        cache.store("s", 10, sq, labels, "cfg-a", "p-1")
        cached, reason = cache.lookup("s", "cfg-b", "p-1")
        assert cached is None and reason == "config"
        assert cache.tail("s") is None  # stale rows can never splice

    def test_params_fingerprint_mismatch_drops_the_tail(self):
        cache = LabelCache()
        sq, labels = self._tail_args()
        cache.store("s", 10, sq, labels, "cfg", "p-1")
        cached, reason = cache.lookup("s", "cfg", "p-2")
        assert cached is None and reason == "params"
        assert cache.tail("s") is None

    def test_matching_lookup_returns_the_stored_rows(self):
        cache = LabelCache()
        sq, labels = self._tail_args()
        cache.store("s", 10, sq, labels, "cfg", "p-1")
        cached, reason = cache.lookup("s", "cfg", "p-1")
        assert reason is None
        assert cached.start == 10
        assert np.array_equal(cached.sq, sq)
        assert np.array_equal(cached.labels, labels)

    def test_config_fingerprint_tracks_labelling_relevant_knobs(self):
        base = _fleet_config()
        fp = config_fingerprint(base)
        assert fp == config_fingerprint(_fleet_config())  # deterministic
        assert fp != config_fingerprint(_fleet_config(label_smoothing=11))
        assert fp != config_fingerprint(
            _fleet_config(lar=LARConfig(window=6))
        )
        assert fp != config_fingerprint(_fleet_config(lar=LARConfig(k=5)))
        assert fp != config_fingerprint(
            _fleet_config(lar=LARConfig(window=5, ar_order=3))
        )
        # Knobs that do not affect labelling leave the fingerprint alone.
        assert fp == config_fingerprint(_fleet_config(qa_threshold=9.0))
        assert fp == config_fingerprint(_fleet_config(max_memory=None))

    def test_params_fingerprint_tracks_the_frozen_fit(self):
        series = 10.0 + 3.0 * ar1_series(120, phi=0.85, seed=5)
        a = OnlineLARPredictor(LARConfig(window=5)).train(series[:80])
        same = OnlineLARPredictor(LARConfig(window=5)).train(series[:80])
        other = OnlineLARPredictor(LARConfig(window=5)).train(series[40:120])
        assert params_fingerprint(a) == params_fingerprint(same)
        assert params_fingerprint(a) != params_fingerprint(other)
        # A relabel keeps the frozen parameters, so the fingerprint
        # survives it — the property that lets tails roll forward.
        relabelled = a.relabel(series[20:100], start=20).predictor
        assert params_fingerprint(relabelled) == params_fingerprint(a)

    def test_stream_removal_drops_the_tail(self):
        names = ["a", "b"]
        feeds = _drifting_feeds(names, 150)
        fleet = PredictionFleet(_fleet_config(), streams=names)
        _serve_until_cached(fleet, feeds, 150, names=["a"])
        assert fleet._label_cache.tail("a") is not None
        fleet.remove_stream("a")
        assert fleet._label_cache.tail("a") is None
        fleet.add_stream("a")
        # The re-added stream starts from scratch: no fit window on
        # record, so its next (re)train refits cold.
        assert fleet._streams["a"].params_window is None


class TestCachePersistence:
    def _stormed_fleet(self, names, feeds):
        """A fleet served to a moment the cache holds at least one tail."""
        fleet = PredictionFleet(_fleet_config(), streams=names)
        tick = _serve_until_cached(fleet, feeds, 150)
        return fleet, tick

    def test_tails_survive_the_round_trip(self):
        names = ["a", "b"]
        feeds = _drifting_feeds(names, 200)
        fleet, tick = self._stormed_fleet(names, feeds)
        with tempfile.TemporaryDirectory() as directory:
            fleet.save(directory)
            restored = PredictionFleet.load(directory)
        restored_tails = 0
        for name in names:
            tail = fleet._label_cache.tail(name)
            back = restored._label_cache.tail(name)
            if tail is None:
                assert back is None
                continue
            restored_tails += 1
            assert back.start == tail.start
            assert np.array_equal(back.sq, tail.sq)
            assert np.array_equal(back.labels, tail.labels)
            assert back.config_fp == tail.config_fp
            assert back.params_fp == tail.params_fp
            assert (
                restored._streams[name].params_window
                == fleet._streams[name].params_window
            )
        assert restored_tails > 0
        # The restored fleet keeps making the original's splice
        # decisions: serving the same continuation produces identical
        # forecasts through the next storm's retrains.
        assert [
            {n: fc.value for n, fc in out.items()}
            for out in _serve_more(fleet, feeds, tick, 200)
        ] == [
            {n: fc.value for n, fc in out.items()}
            for out in _serve_more(restored, feeds, tick, 200)
        ]

    def test_edited_manifest_config_invalidates_the_tails(self):
        """Fingerprints persist as written: a manifest edited to a
        different labelling config misses instead of splicing rows
        computed under the old one."""
        names = ["a", "b"]
        feeds = _drifting_feeds(names, 200)
        fleet, _ = self._stormed_fleet(names, feeds)
        with tempfile.TemporaryDirectory() as directory:
            fleet.save(directory)
            manifest_path = Path(directory) / "fleet.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["config"]["label_smoothing"] += 1
            manifest_path.write_text(json.dumps(manifest))
            restored = PredictionFleet.load(directory)
        missed = 0
        for name in names:
            tail = restored._label_cache.tail(name)
            if tail is None:
                continue
            cached, reason = restored._label_cache.lookup(
                name, restored._config_fp, tail.params_fp
            )
            assert cached is None and reason == "config"
            missed += 1
        assert missed > 0


def _serve_more(fleet, feeds, start, stop):
    out = []
    for t in range(start, stop):
        out.append(fleet.forecast_all())
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    return out


@pytest.mark.slow
class TestDeepSpliceParity:
    """The same parity property at a search depth too slow for every
    run (``-m slow``; CI runs it in its own step)."""

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        stride=st.integers(min_value=0, max_value=150),
        n_new=st.integers(min_value=8, max_value=120),
        smooth=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=200, deadline=None)
    def test_spliced_relabel_bit_identical_to_full(
        self, seed, stride, n_new, smooth
    ):
        series = 10.0 + 3.0 * ar1_series(300, phi=0.85, seed=seed)
        predictor = OnlineLARPredictor(
            LARConfig(window=5), label_smoothing=smooth
        ).train(series[:100])
        warm = predictor.relabel(series[:100], start=0)
        tail = CachedLabels(0, warm.sq, warm.labels)
        predictor = warm.predictor
        window = series[stride : stride + n_new]
        full = predictor.relabel(window, start=stride)
        spliced = predictor.relabel(window, start=stride, cached=tail)
        _assert_results_identical(full, spliced)
