"""Asynchronous retraining: bit-parity with sync, staleness, failure.

The contract under test: a model trained asynchronously on its
submission-tick snapshot and integrated after replaying the in-flight
ticks is **bit-identical** to one trained synchronously at the
submission tick and served since. Full sync/async fleets diverge in
their *QA trajectories* (async audits the old model while the burst
flies), so the parity pin works on clones: one saved fleet restored
twice — once per mode — retrained once, then driven through the same
ticks.

Bursts run through an inline executor (futures resolved at submission,
drained at the normal boundaries) so every test is deterministic and
pool-free; one slow test exercises the real process pool end to end.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.obs import Telemetry
from repro.obs.flight import AnomalyTrigger
from repro.serving import BatchedTrainEngine, FleetConfig, PredictionFleet
from repro.serving import retrain
from repro.serving.retrain import _chunk_bounds
from tests.conftest import inline_pool
# The parity assertions reuse the trainer suite's field-by-field model
# comparator.
from tests.test_serving_trainer import _assert_same_model, _histories

# ---------------------------------------------------------------------------
# harness


def _config(**overrides):
    """Small, fast fleet that still exercises retrains."""
    defaults = dict(
        min_train=40,
        label_smoothing=5,
        max_memory=64,
        history_limit=128,
        qa_threshold=1.2,
        audit_window=16,
        audit_interval=4,
        retrain_window=80,
        auto_retrain=False,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _values(names, t, rng, *, shift=0.0):
    return {
        n: 10.0
        + 3.0 * np.sin(t / 7.0 + i)
        + (shift if i % 2 == 0 else 0.0)
        + rng.normal(0.0, 0.4)
        for i, n in enumerate(names)
    }


def _drive(fleet, names, ticks, rng, *, shift=0.0, start=0):
    for t in range(start, start + ticks):
        fleet.forecast_all()
        fleet.ingest(_values(names, t, rng, shift=shift))


@contextmanager
def _broken_pool():
    """Every burst future raises BrokenProcessPool at drain time."""

    def broken_submit(fn, /, *args, workers=None):
        future: Future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    original = retrain.pool_submit
    retrain.pool_submit = broken_submit
    try:
        yield
    finally:
        retrain.pool_submit = original


def _due_fleet(tmp_path, *, seed=42, shift=20.0, n=6, telemetry=None,
               **overrides):
    """Build a fleet, drive it into a drift storm, persist the moment
    retrains are due, and return (directory, due names, rng state)."""
    names = [f"s{i}" for i in range(n)]
    fleet = PredictionFleet(_config(**overrides), streams=names)
    rng = np.random.default_rng(seed)
    _drive(fleet, names, 60, rng)
    fleet.run_pending_retrains()  # initial trains
    for t in range(60, 120):
        fleet.forecast_all()
        fleet.ingest(_values(names, t, rng, shift=shift if t > 90 else 0.0))
    # Weak storms (hypothesis picks the magnitude) may need more ticks
    # before QA breaches; keep the shift on until something is due.
    t = 120
    while not fleet.pending_retrains and t < 280:
        fleet.forecast_all()
        fleet.ingest(_values(names, t, rng, shift=shift))
        t += 1
    assert fleet.pending_retrains, "drift storm failed to mark retrains due"
    directory = tmp_path / "fleet"
    fleet.save(directory)
    return directory, names, fleet.pending_retrains


def _load_async(directory, *, telemetry=None, **config_overrides):
    fleet = PredictionFleet.load(directory, telemetry=telemetry)
    fleet.config = dataclasses.replace(
        fleet.config, retrain_mode="async", **config_overrides
    )
    return fleet


def _events(fleet, kind):
    snapshot = fleet.telemetry.events.snapshot()
    return [e for e in snapshot["events"] if e["kind"] == kind]


# ---------------------------------------------------------------------------
# the parity pin


class TestAsyncSyncBitParity:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shift=st.floats(min_value=10.0, max_value=40.0),
        inflight_ticks=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=8, deadline=None)
    def test_integrated_model_matches_sync_retrain_plus_replay(
        self, tmp_path_factory, seed, shift, inflight_ticks
    ):
        """The tentpole contract, across hypothesis-chosen drift storms:
        async = train(snapshot at T) + observe_many(in-flight ticks)
        must equal sync = train at T + serve since, bit for bit."""
        tmp_path = tmp_path_factory.mktemp("parity")
        directory, names, due = _due_fleet(
            tmp_path, seed=seed, shift=shift
        )
        sync = PredictionFleet.load(directory)
        with inline_pool():
            async_fleet = _load_async(directory)
            sync.run_pending_retrains()  # swaps now
            async_fleet.run_pending_retrains()  # submits, returns
            assert async_fleet._retrain.inflight == len(due)
            rng = np.random.default_rng(seed + 1)
            for t in range(120, 120 + inflight_ticks):
                vals = _values(names, t, rng, shift=shift)
                sync.forecast_all()
                sync.ingest(vals)
                async_fleet.forecast_all()
                async_fleet.ingest(dict(vals))
            integrated = async_fleet.drain_retrains(wait=True)
        assert sorted(integrated) == sorted(due)
        assert async_fleet._retrain.inflight == 0
        for name in due:
            _assert_same_model(
                async_fleet._streams[name].predictor,
                sync._streams[name].predictor,
                name=name,
            )
        fa = sync.forecast_all()
        fb = async_fleet.forecast_all()
        for name in names:
            assert fa[name].value == fb[name].value, name
            assert fa[name].predictor_label == fb[name].predictor_label, name

    def test_unbatched_path_parity(self, tmp_path):
        """Per-stream (non-stacked) bursts carry the same bits."""
        directory, names, due = _due_fleet(tmp_path)
        sync = PredictionFleet.load(directory)
        with inline_pool():
            async_fleet = _load_async(directory)
            sync.run_pending_retrains(batched=False)
            async_fleet.run_pending_retrains(batched=False)
            rng = np.random.default_rng(99)
            for t in range(120, 130):
                vals = _values(names, t, rng, shift=20.0)
                sync.forecast_all()
                sync.ingest(vals)
                async_fleet.forecast_all()
                async_fleet.ingest(dict(vals))
            integrated = async_fleet.drain_retrains(wait=True)
        assert sorted(integrated) == sorted(due)
        for name in due:
            _assert_same_model(
                async_fleet._streams[name].predictor,
                sync._streams[name].predictor,
                name=name,
            )

    @pytest.mark.parametrize("batched", [True, False])
    def test_landed_replay_on_engine_rows_or_per_stream(
        self, tmp_path, monkeypatch, batched
    ):
        """A batched drain replays the in-flight ticks of engine-served
        streams on the engine's rows, without a per-stream
        observe_many(); a per-stream drain replays them through it.
        Both leave the models, and the ticks after, bit-identical to the
        sync twin."""
        directory, names, due = _due_fleet(tmp_path)
        sync = PredictionFleet.load(directory)
        replays = []
        observe_many = OnlineLARPredictor.observe_many

        def counted(predictor, values):
            replays.append(len(values))
            return observe_many(predictor, values)

        with inline_pool():
            async_fleet = _load_async(directory)
            sync.run_pending_retrains()
            async_fleet.run_pending_retrains()
            rng = np.random.default_rng(5)
            for t in range(120, 131):
                vals = _values(names, t, rng, shift=20.0)
                sync.forecast_all()
                sync.ingest(vals)
                async_fleet.forecast_all()
                async_fleet.ingest(dict(vals))
            monkeypatch.setattr(OnlineLARPredictor, "observe_many", counted)
            integrated = async_fleet.run_pending_retrains(batched=batched)
            monkeypatch.undo()
        assert sorted(integrated) == sorted(due)
        engine = async_fleet._engine
        if batched:
            assert replays == []
            assert all(engine.serves(name) for name in due)
        else:
            assert replays == [11] * len(due)
        for name in due:
            a = async_fleet._streams[name].predictor
            s = sync._streams[name].predictor
            _assert_same_model(a, s, name=name)
            assert a.windows_learned_online == s.windows_learned_online
            np.testing.assert_array_equal(
                np.stack(a._recent_sq), np.stack(s._recent_sq), err_msg=name
            )
        for t in range(131, 140):
            vals = _values(names, t, rng, shift=20.0)
            fa, fb = sync.forecast_all(), async_fleet.forecast_all()
            for name in due:
                assert fa[name] == fb[name], (name, t)
            sync.ingest(vals)
            async_fleet.ingest(dict(vals))


# ---------------------------------------------------------------------------
# cold-group chunking


class TestChunkBounds:
    def test_even_split(self):
        assert _chunk_bounds(32) == [(0, 32)]
        assert _chunk_bounds(40) == [(0, 20), (20, 40)]
        assert _chunk_bounds(64) == [(0, 32), (32, 64)]

    def test_uneven_extra_rows_go_first(self):
        assert _chunk_bounds(65) == [(0, 22), (22, 44), (44, 65)]

    def test_bounds_cover_exactly(self):
        for n in (1, 7, 31, 33, 100, 250, 500):
            bounds = _chunk_bounds(n)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            sizes = [hi - lo for lo, hi in bounds]
            assert len(bounds) == -(-n // retrain._COLD_CHUNK_STREAMS)
            assert max(sizes) <= retrain._COLD_CHUNK_STREAMS
            assert max(sizes) - min(sizes) <= 1


def _partition(n_rows, cuts):
    """``[lo, hi)`` ranges covering *n_rows* split at *cuts*."""
    edges = [0, *sorted(c for c in cuts if 0 < c < n_rows), n_rows]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


class TestChunkedColdGroups:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        cuts=st.sets(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=3
        ),
        pca=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_train_fit_is_partition_invariant(self, seed, cuts, pca):
        """Any contiguous row partition reproduces the unpartitioned
        bits — the property chunked cold groups rely on: each future
        runs ``_compute_train_group`` on its row chunk."""
        n = 6
        lar = LARConfig(window=5, n_components=2 if pca else None)
        engine = BatchedTrainEngine(_config(lar=lar))
        stacked = np.stack(_histories(n, length=90, seed=seed))
        full = engine._compute_train_group(stacked)
        parts = [
            engine._compute_train_group(stacked[lo:hi])
            for lo, hi in _partition(n, cuts)
        ]
        for field in full._fields:
            whole = getattr(full, field)
            pieces = [getattr(p, field) for p in parts]
            if whole is None:
                assert all(p is None for p in pieces), field
            else:
                np.testing.assert_array_equal(
                    np.concatenate(pieces, axis=0), whole, err_msg=field
                )

    def test_initial_trains_go_out_in_chunks(self):
        """40 streams due at once leave as two 20-stream futures, both
        integrate at the first tick boundary after they land, and the
        fleet ends bit-identical to a sync fleet that trained them
        together."""
        names = [f"s{i:02d}" for i in range(40)]
        overrides = dict(qa_threshold=50.0)
        sync = PredictionFleet(_config(**overrides), streams=names)
        fleet = PredictionFleet(
            _config(retrain_mode="async", **overrides), streams=names
        )
        rng = np.random.default_rng(3)
        ticks = [_values(names, t, rng) for t in range(48)]
        with inline_pool() as calls:
            for vals in ticks[:40]:
                sync.ingest(vals)
                fleet.ingest(dict(vals))
            assert sync.run_pending_retrains() == tuple(names)
            assert fleet.run_pending_retrains() == ()
            assert [kind for _, kind, _ in calls] == [retrain.COLD] * 2
            assert fleet._retrain.inflight == 40
            integrated = []
            for vals in ticks[40:]:
                sync.forecast_all()
                sync.ingest(vals)
                fleet.forecast_all()
                fleet.ingest(dict(vals))
                integrated.append(fleet.run_pending_retrains())
        assert integrated[0] == tuple(names)
        assert all(not names_ for names_ in integrated[1:])
        assert fleet._retrain.inflight == 0
        for name in names:
            _assert_same_model(
                fleet._streams[name].predictor,
                sync._streams[name].predictor,
                name=name,
            )
        fa = sync.forecast_all()
        fb = fleet.forecast_all()
        assert fa == fb


# ---------------------------------------------------------------------------
# staleness guards


class TestStalenessGuards:
    def test_mid_flight_removal_drops_result(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory, telemetry=Telemetry())
            fleet.run_pending_retrains()
            removed = due[0]
            fleet.remove_stream(removed)
            integrated = fleet.drain_retrains(wait=True)
        assert removed not in integrated
        assert sorted(integrated) == sorted(due[1:])
        assert removed not in fleet._streams
        dropped = _events(fleet, "retrain_dropped")
        assert [e["stream"] for e in dropped] == [removed]
        assert dropped[0]["data"]["reason"] == "removed"

    def test_remove_and_re_add_drops_stale_epoch(self, tmp_path):
        """A same-named stream added after removal is a new generation;
        the old burst's result must never land on it."""
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory, telemetry=Telemetry())
            fleet.run_pending_retrains()
            victim = due[0]
            fleet.remove_stream(victim)
            fleet.add_stream(victim)
            integrated = fleet.drain_retrains(wait=True)
        assert victim not in integrated
        dropped = _events(fleet, "retrain_dropped")
        assert [e["stream"] for e in dropped] == [victim]
        assert dropped[0]["data"]["reason"] == "stale"
        # The re-added stream is untouched: fresh warm-up, no model.
        assert fleet._streams[victim].predictor is None

    def test_inflight_stream_never_rescheduled(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory)
            fleet.run_pending_retrains()
            pipe = fleet._retrain
            for name in due:
                assert pipe.blocks(name, fleet._streams[name].epoch)
            # In-flight streams keep serving and cannot re-enter the due
            # queue, however hard they keep breaching.
            rng = np.random.default_rng(7)
            for t in range(120, 140):
                fleet.forecast_all()
                fleet.ingest(_values(names, t, rng, shift=25.0))
                assert not any(n in fleet.pending_retrains for n in due)
            fleet.drain_retrains(wait=True)
        assert all(not pipe.blocks(n, fleet._streams[n].epoch) for n in due)


# ---------------------------------------------------------------------------
# budgets and the due-counter fast path


class TestBudgetsAndDueCounter:
    def test_budget_defers_in_async_mode(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        assert len(due) >= 2
        with inline_pool():
            fleet = _load_async(directory, telemetry=Telemetry())
            fleet.run_pending_retrains(budget=1)
            assert fleet._retrain.inflight == 1
            # Deferred streams stay due, narrated as deferrals.
            assert len(fleet.pending_retrains) == len(due) - 1
            deferred = _events(fleet, "retrain_deferred")
            assert sorted(e["stream"] for e in deferred) == sorted(due[1:])
            # Next rounds pick them up in due order; every round defers
            # whatever its budget passed over, so the aggregate is the
            # triangular sum, not len(due) - 1.
            while fleet.pending_retrains:
                fleet.run_pending_retrains(budget=1)
                fleet.drain_retrains(wait=True)
            fleet.drain_retrains(wait=True)
        assert fleet.metrics().deferred_retrains == sum(range(len(due)))
        for name in due:
            assert fleet._streams[name].retrain_count >= 1

    def test_due_counter_tracks_scan(self, tmp_path):
        """The O(1) fast-path counter never drifts from the O(S) scan."""
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory)
            queue = fleet._retrain
            assert queue.due_count == len(fleet.pending_retrains) == len(due)
            fleet.run_pending_retrains()
            assert queue.due_count == len(fleet.pending_retrains) == 0
            rng = np.random.default_rng(3)
            for t in range(120, 160):
                fleet.forecast_all()
                fleet.ingest(_values(names, t, rng, shift=25.0))
                assert queue.due_count == len(fleet.pending_retrains)
            fleet.drain_retrains(wait=True)
            for t in range(160, 200):
                fleet.forecast_all()
                fleet.ingest(_values(names, t, rng, shift=25.0))
                assert queue.due_count == len(fleet.pending_retrains)

    def test_empty_fleet_fast_path(self):
        fleet = PredictionFleet(_config())
        assert fleet.pending_retrains == ()
        assert fleet.run_pending_retrains() == ()


# ---------------------------------------------------------------------------
# persistence: flush-on-save


class TestPersistenceFlush:
    def test_save_flushes_inflight_bursts(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory)
            fleet.run_pending_retrains()
            rng = np.random.default_rng(11)
            _drive(fleet, names, 8, rng, shift=20.0, start=120)
            assert fleet._retrain.inflight == len(due)
            flushed_dir = tmp_path / "flushed"
            fleet.save(flushed_dir)  # drains wait=True first
            assert fleet._retrain.inflight == 0
        restored = PredictionFleet.load(flushed_dir)
        # The restored fleet carries the integrated models and forecasts
        # exactly as the flushed original does.
        assert restored.config.retrain_mode == "async"
        fa = fleet.forecast_all()
        fb = restored.forecast_all()
        for name in names:
            assert fa[name].value == fb[name].value, name
        # Restored predictors drop the training-time snapshot, so the
        # comparison is the persisted surface: history and forecasts.
        for name in due:
            np.testing.assert_array_equal(
                restored._streams[name].predictor.recent_history(),
                fleet._streams[name].predictor.recent_history(),
                err_msg=name,
            )
        assert restored._retrain.due_count == len(restored.pending_retrains)

    def test_config_round_trip(self, tmp_path):
        fleet = PredictionFleet(_config(retrain_mode="async"))
        fleet.save(tmp_path / "cfg")
        restored = PredictionFleet.load(tmp_path / "cfg")
        assert restored.config.retrain_mode == "async"


# ---------------------------------------------------------------------------
# broken pool: graceful degradation


class TestBrokenPoolDegradation:
    def test_requeues_and_retrains_synchronously(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        sync = PredictionFleet.load(directory)
        sync.run_pending_retrains()
        hook_errors = []
        from repro.parallel.pool_exec import (
            register_pool_failure_hook,
            unregister_pool_failure_hook,
        )

        register_pool_failure_hook(hook_errors.append)
        try:
            with _broken_pool():
                fleet = _load_async(directory, telemetry=Telemetry())
                fleet.run_pending_retrains()
                assert fleet._retrain.inflight == len(due)
                integrated = fleet.drain_retrains(wait=True)
        finally:
            unregister_pool_failure_hook(hook_errors.append)
        # The lost burst fell back to an immediate synchronous round...
        assert sorted(integrated) == sorted(due)
        assert fleet._retrain.inflight == 0
        assert not fleet.pending_retrains
        failures = _events(fleet, "pool_failure")
        assert len(failures) == 1
        assert failures[0]["data"]["streams"] == len(due)
        # ...the pool-failure hooks fired...
        assert len(hook_errors) == 1
        assert isinstance(hook_errors[0], BrokenProcessPool)
        # ...and the models are the ones sync mode would have produced
        # (no ticks flew between submission and the broken drain).
        for name in due:
            _assert_same_model(
                fleet._streams[name].predictor,
                sync._streams[name].predictor,
                name=name,
            )

    def test_anomaly_trigger_dumps_on_broken_pool(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        tel = Telemetry(flight=True)
        with _broken_pool():
            fleet = _load_async(directory, telemetry=tel)
            with AnomalyTrigger(tmp_path / "dumps", tel) as trigger:
                fleet.run_pending_retrains()
                fleet.drain_retrains(wait=True)
                assert len(trigger.dumps) == 1
                assert "broken_pool" in trigger.dumps[0].name

    def test_removed_stream_not_requeued_after_failure(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        with _broken_pool():
            fleet = _load_async(directory, telemetry=Telemetry())
            fleet.run_pending_retrains()
            fleet.remove_stream(due[0])
            integrated = fleet.drain_retrains(wait=True)
        assert sorted(integrated) == sorted(due[1:])
        dropped = _events(fleet, "retrain_dropped")
        assert [e["stream"] for e in dropped] == [due[0]]
        assert dropped[0]["data"]["reason"] == "removed"


# ---------------------------------------------------------------------------
# a failed sync round (also the broken-pool fallback)


class TestFailedSyncRound:
    @pytest.mark.parametrize("batched", [True, False])
    def test_failed_round_integrates_nothing(
        self, tmp_path, monkeypatch, batched
    ):
        """A unit that raises leaves every stream as it was: the same
        model objects, retrain counts and due queue. The retry then
        trains what a clean sync clone trains."""
        directory, names, due = _due_fleet(tmp_path)
        fleet = PredictionFleet.load(directory)
        before = {
            name: (state.predictor, state.retrain_count)
            for name, state in fleet._streams.items()
        }
        if batched:
            def fail(self, histories):
                raise RuntimeError("stacked kernel failed")

            monkeypatch.setattr(
                BatchedTrainEngine, "_compute_train_group", fail
            )
        else:
            train = OnlineLARPredictor.train
            trains = []

            def fail_second(self, history):
                trains.append(history)
                if len(trains) == 2:
                    raise RuntimeError("second per-stream train failed")
                return train(self, history)

            monkeypatch.setattr(OnlineLARPredictor, "train", fail_second)
        with pytest.raises(RuntimeError):
            fleet.run_pending_retrains(batched=batched)
        for name, state in fleet._streams.items():
            predictor, retrain_count = before[name]
            assert state.predictor is predictor, name
            assert state.retrain_count == retrain_count, name
        assert fleet.pending_retrains == due
        monkeypatch.undo()
        clean = PredictionFleet.load(directory)
        assert fleet.run_pending_retrains(batched=batched) == due
        assert clean.run_pending_retrains(batched=batched) == due
        for name in due:
            _assert_same_model(
                fleet._streams[name].predictor,
                clean._streams[name].predictor,
                name=name,
            )


# ---------------------------------------------------------------------------
# events and the inflight gauge


class TestObservability:
    def test_lifecycle_events_and_gauge(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        with inline_pool():
            fleet = _load_async(directory, telemetry=Telemetry())
            fleet.run_pending_retrains()
            submitted = _events(fleet, "retrain_submitted")
            assert sorted(e["stream"] for e in submitted) == sorted(due)
            assert fleet.metrics().inflight_retrains == len(due)
            rng = np.random.default_rng(5)
            _drive(fleet, names, 6, rng, shift=20.0, start=120)
            fleet.drain_retrains(wait=True)
        integrated = _events(fleet, "retrain_integrated")
        assert sorted(e["stream"] for e in integrated) == sorted(due)
        for event in integrated:
            assert event["data"]["replayed"] == 6
            assert event["data"]["retrain"] is True
        assert fleet.metrics().inflight_retrains == 0

    def test_sync_mode_never_submits_to_the_pool(self, tmp_path):
        directory, names, due = _due_fleet(tmp_path)
        fleet = PredictionFleet.load(directory)
        with inline_pool() as calls:
            assert fleet.run_pending_retrains() == due
            assert fleet.drain_retrains(wait=True) == ()
        assert calls == []
        assert fleet.metrics().inflight_retrains == 0


# ---------------------------------------------------------------------------
# the real pool, end to end


@pytest.mark.slow
class TestRealPool:
    def test_async_fleet_serves_and_integrates(self, tmp_path):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 cores for a worker pool")
        directory, names, due = _due_fleet(tmp_path)
        fleet = _load_async(
            directory, telemetry=Telemetry(), auto_retrain=True
        )
        rng = np.random.default_rng(17)
        for t in range(120, 420):
            fleet.forecast_all()
            fleet.ingest(_values(names, t, rng, shift=20.0))
            if _events(fleet, "retrain_integrated"):
                break
        fleet.drain_retrains(wait=True)
        integrated = _events(fleet, "retrain_integrated")
        assert integrated, "no async burst landed within 300 ticks"
        assert fleet._retrain.inflight == 0

    @pytest.mark.parametrize("batched", [True, False])
    def test_real_pool_matches_sync_clone(self, tmp_path, batched):
        """Unit inputs and results pickled through real workers carry
        the sync round's bits, for stacked and per-stream units."""
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 cores for a worker pool")
        directory, names, due = _due_fleet(tmp_path)
        sync = PredictionFleet.load(directory)
        async_fleet = _load_async(directory)
        sync.run_pending_retrains(batched=batched)
        async_fleet.run_pending_retrains(batched=batched)
        rng = np.random.default_rng(23)
        for t in range(120, 130):
            vals = _values(names, t, rng, shift=20.0)
            sync.forecast_all()
            sync.ingest(vals)
            async_fleet.forecast_all()
            async_fleet.ingest(dict(vals))
        integrated = async_fleet.drain_retrains(wait=True)
        assert sorted(integrated) == sorted(due)
        for name in due:
            _assert_same_model(
                async_fleet._streams[name].predictor,
                sync._streams[name].predictor,
                name=name,
            )
        assert async_fleet.forecast_all() == sync.forecast_all()
