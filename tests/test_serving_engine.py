"""Bit-exactness and cost tests for the batched fleet tick engine.

The engine (:mod:`repro.serving.engine`) is an execution strategy, not a
model change: ``batched=True`` must produce *bit-identical* results to
the per-stream loop (``batched=False``) — same forecasts, same learned
labels, same QA audits, same classifier memory. These tests drive two
fleets through identical feeds, one per path, and compare everything.
"""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.learn.knn import KNNClassifier
from repro.learn.voting import _VECTOR_VOTE_MAX_K, majority_vote
from repro.serving import FleetConfig, PredictionFleet
from repro.serving.engine import _DEAD_KEY


def _drive(config, feed_fn, ticks, *, forecast_every=1, names=None):
    """Run batched and loop fleets through the same feed, asserting parity."""
    names = names or [f"s{i}" for i in range(6)]
    batched = PredictionFleet(config, streams=names)
    loop = PredictionFleet(config, streams=names)
    for t in range(ticks):
        vals = feed_fn(t, names)
        if forecast_every and t % forecast_every == 0:
            fa = batched.forecast_all(batched=True)
            fb = loop.forecast_all(batched=False)
            assert fa == fb, f"forecast mismatch at tick {t}"
        la = batched.ingest(vals, batched=True)
        lb = loop.ingest(vals, batched=False)
        assert la == lb, f"learned-label mismatch at tick {t}"
    return batched, loop


def _assert_same_state(batched, loop):
    """Deep equality of every per-stream serving artifact."""
    assert batched.metrics() == loop.metrics()
    for name in batched.stream_names:
        sa, sb = batched._streams[name], loop._streams[name]
        assert sa.qa.audits == sb.qa.audits, name
        assert tuple(sa.qa._sq_errors) == tuple(sb.qa._sq_errors), name
        assert sa.qa._sq_sum == sb.qa._sq_sum, name
        assert sa.qa.state_dict() == sb.qa.state_dict(), name
        pa, pb = sa.predictor, sb.predictor
        assert (pa is None) == (pb is None), name
        if pa is None:
            continue
        np.testing.assert_array_equal(
            pa.recent_history(), pb.recent_history(), err_msg=name
        )
        ca, cb = pa._classifier, pb._classifier
        np.testing.assert_array_equal(ca._X, cb._X, err_msg=name)
        np.testing.assert_array_equal(ca._y, cb._y, err_msg=name)


def _assert_ring_invariants(fleet):
    """Each attached row's live slots mirror its classifier; the rest
    are dead: ``+inf`` squared norm and the dead-slot tie key."""
    engine = fleet._engine
    engine.prepare()
    cap = engine._mem_cap
    for entry in engine._rows:
        clf, row = entry.classifier, entry.row
        lo, hi = clf.discarded_total_, clf.appended_total_
        assert (engine._mem_lo[row], engine._mem_hi[row]) == (lo, hi)
        slots = np.arange(lo, hi) % cap
        np.testing.assert_array_equal(
            engine._mem_abs[row, slots], np.arange(lo, hi), err_msg=entry.name
        )
        np.testing.assert_array_equal(engine._mem_x[row, slots], clf._X)
        np.testing.assert_array_equal(engine._mem_y[row, slots], clf._y)
        np.testing.assert_array_equal(
            engine._mem_bb[row, slots], np.einsum("ij,ij->i", clf._X, clf._X)
        )
        dead = np.ones(cap, dtype=bool)
        dead[slots] = False
        assert (engine._mem_abs[row, dead] == _DEAD_KEY).all(), entry.name
        assert np.isposinf(engine._mem_bb[row, dead]).all(), entry.name


def _walk_feed(seed=0, drift=0.05, noise=0.15):
    rng = np.random.default_rng(seed)
    state = {}

    def feed(t, names):
        for n in names:
            state[n] = (
                state.get(n, float(rng.standard_normal()))
                + noise * float(rng.standard_normal())
                + drift
            )
        return dict(state)

    return feed


class TestBatchedParity:
    def test_forecasts_labels_audits_and_memory_match(self):
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(config, _walk_feed(seed=1), 160)
        _assert_same_state(batched, loop)

    def test_parity_through_drift_and_retrains(self):
        """Regime shifts force QA breaches; parity must survive the
        retrain → new predictor → engine re-attach cycle."""
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        rng = np.random.default_rng(2)
        state = {}

        def feed(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                state[n] = (
                    state.get(n, 0.0)
                    + 0.2 * float(rng.standard_normal()) + drift
                )
            return dict(state)

        batched, loop = _drive(config, feed, 280)
        assert batched.metrics().total_retrains > 0  # the point of the test
        _assert_same_state(batched, loop)

    def test_parity_on_constant_streams_with_exact_ties(self):
        """Constant and alternating streams produce duplicate feature
        rows, i.e. exact distance ties — where nondeterministic top-k
        selection would first diverge."""
        config = FleetConfig(qa_threshold=50.0)

        def feed(t, names):
            out = {}
            for i, n in enumerate(names):
                out[n] = 1.0 if i % 2 == 0 else float(t % 2)
            return out

        batched, loop = _drive(config, feed, 150)
        _assert_same_state(batched, loop)

    def test_ingest_without_prior_forecast(self):
        """ingest must recompute stale pendings batched, identically."""
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(
            config, _walk_feed(seed=3), 140, forecast_every=0
        )
        _assert_same_state(batched, loop)

    def test_subset_forecasts_match(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(6)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=4)
        for t in range(130):
            vals = feed(t, names)
            subset = names[t % 3 :: 2]
            assert batched.forecast_all(subset, batched=True) == (
                loop.forecast_all(subset, batched=False)
            ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(batched, loop)

    def test_parity_with_pca_disabled(self):
        config = FleetConfig(
            lar=LARConfig(n_components=None), qa_threshold=4.0
        )
        batched, loop = _drive(config, _walk_feed(seed=5), 120)
        _assert_same_state(batched, loop)

    def test_ineligible_pool_falls_back_identically(self):
        """Extended-pool streams can't be stacked; the batched entry
        points must transparently serve them through the loop."""
        config = FleetConfig(
            lar=LARConfig(extended_pool=True), qa_threshold=4.0
        )
        batched, loop = _drive(config, _walk_feed(seed=6), 110)
        engine = batched._engine
        assert engine is not None
        assert not any(engine.serves(n) for n in batched.stream_names)
        _assert_same_state(batched, loop)

    def test_stream_add_remove_mid_serve(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(5)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=7)
        live = list(names)
        for t in range(170):
            if t == 90:
                for fleet in (batched, loop):
                    fleet.remove_stream("s1")
                    fleet.add_stream("s9")
                live.remove("s1")
                live.append("s9")
            vals = {n: v for n, v in feed(t, live).items() if n in live}
            assert batched.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(batched, loop)

    def test_parity_with_overflowing_spikes(self):
        """A finite 1e200 spike overflows squared distances to +inf (and
        NaN). Dead ring slots, which the per-stream memory never holds,
        must still lose every tie to those live rows."""
        config = FleetConfig(min_train=64, max_memory=24, auto_retrain=False)
        names = [f"s{i}" for i in range(60)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=12)
        served = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(140):
                vals = feed(t, names)
                for i, name in enumerate(names):
                    if t == 90 + i % 20:
                        vals[name] = 1e200
                fa = batched.forecast_all(batched=True)
                assert fa == loop.forecast_all(batched=False), t
                served += len(fa)
                assert batched.ingest(vals, batched=True) == (
                    loop.ingest(vals, batched=False)
                ), t
                batched.run_pending_retrains(batched=True)
                loop.run_pending_retrains(batched=False)
        assert served == len(names) * (140 - config.min_train)
        _assert_same_state(batched, loop)

    def test_save_load_roundtrip_continues_identically(self, tmp_path):
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(config, _walk_feed(seed=8), 120)
        batched.save(tmp_path / "fleet")
        restored = PredictionFleet.load(tmp_path / "fleet")
        feed = _walk_feed(seed=9)
        names = list(restored.stream_names)
        for t in range(40):
            vals = feed(t, names)
            assert restored.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert restored.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(restored, loop)


class TestMemoryRing:
    """The engine's stacked k-NN memory ring: sized by the live count
    after eviction, with dead slots encoded in the mirror itself."""

    def test_invariants_through_retrain_removal_and_out_of_band_edits(self):
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
            auto_retrain=False,
        )
        names = [f"s{i}" for i in range(6)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        rng = np.random.default_rng(13)
        state = {}
        live = list(names)

        def tick(t):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in live:
                state[n] = (
                    state.get(n, 0.0) + 0.2 * float(rng.standard_normal())
                    + drift
                )
            vals = {n: state[n] for n in live}
            assert batched.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
            _assert_ring_invariants(batched)
            batched.run_pending_retrains(batched=True)
            loop.run_pending_retrains(batched=False)
            _assert_ring_invariants(batched)

        for t in range(200):
            tick(t)
        assert batched.metrics().total_retrains > 0
        # max_memory=24 in a 32-slot ring: every row carries dead slots.
        assert batched._engine._mem_cap == 32
        for fleet in (batched, loop):
            fleet.remove_stream("s2")
        live.remove("s2")
        tick(200)
        # Out of band: retire rows, then append rows the engine never saw.
        for fleet in (batched, loop):
            fleet._streams["s4"].predictor._classifier.discard_oldest(5)
        _assert_ring_invariants(batched)
        for fleet in (batched, loop):
            clf = fleet._streams["s4"].predictor._classifier
            clf.partial_fit(clf._X[:3] + 0.5, clf._y[:3])
            # Past max_memory: the next learn step evicts several rows.
            clf = fleet._streams["s5"].predictor._classifier
            clf.partial_fit(clf._X[:4] - 0.5, clf._y[:4])
        _assert_ring_invariants(batched)
        for t in range(201, 230):
            tick(t)
        # Past the ring's capacity on the last row: the sync widens the
        # ring after it has already synced every other row.
        engine = batched._engine
        last = engine._rows[-1].name
        for fleet in (batched, loop):
            clf = fleet._streams[last].predictor._classifier
            n = engine._mem_cap - clf.n_samples_ + 1
            clf.partial_fit(clf._X[:n] + 0.25, clf._y[:n])
        _assert_ring_invariants(batched)
        assert engine._mem_cap == 64
        for t in range(230, 240):
            tick(t)
        _assert_same_state(batched, loop)

    def test_full_memory_keeps_ring_at_max_memory(self):
        """Eviction frees the oldest slot before the new row needs one,
        so memories held at max_memory=128 fit a 128-slot ring."""
        config = FleetConfig(max_memory=128, min_train=160, qa_threshold=50.0)
        names = [f"s{i}" for i in range(6)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=14)
        for t in range(200):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        engine = fleet._engine
        assert len(engine._rows) == len(names)
        assert all(e.classifier.n_samples_ == 128 for e in engine._rows)
        assert engine._mem_cap == 128
        _assert_ring_invariants(fleet)


class TestBatchedCost:
    """Per-tick cost guards: the batched path must not degenerate into
    the per-stream loop it replaces."""

    def _warm_fleet(self, n_streams=8, ticks=70):
        config = FleetConfig(qa_threshold=50.0)
        names = [f"s{i}" for i in range(n_streams)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=10)
        for t in range(ticks):
            fleet.ingest(feed(t, names))
        assert fleet.metrics().n_trained == n_streams
        return fleet, feed, names

    def test_batched_forecast_makes_no_per_stream_calls(self, monkeypatch):
        fleet, feed, names = self._warm_fleet()
        calls = {"forecast": 0, "kneighbors": 0}
        orig_fc = OnlineLARPredictor.forecast
        orig_kn = KNNClassifier.kneighbors

        def counting_fc(self):
            calls["forecast"] += 1
            return orig_fc(self)

        def counting_kn(self, X):
            calls["kneighbors"] += 1
            return orig_kn(self, X)

        monkeypatch.setattr(OnlineLARPredictor, "forecast", counting_fc)
        monkeypatch.setattr(KNNClassifier, "kneighbors", counting_kn)
        out = fleet.forecast_all(batched=True)
        assert len(out) == len(names)
        assert calls == {"forecast": 0, "kneighbors": 0}

    def test_batched_ingest_makes_no_per_stream_queries(self, monkeypatch):
        fleet, feed, names = self._warm_fleet()
        fleet.forecast_all(batched=True)
        calls = {"n": 0}

        def counting(self, *a, **kw):
            calls["n"] += 1
            raise AssertionError("per-stream query on the batched path")

        monkeypatch.setattr(KNNClassifier, "kneighbors", counting)
        monkeypatch.setattr(OnlineLARPredictor, "forecast", counting)
        monkeypatch.setattr(OnlineLARPredictor, "observe", counting)
        learned = fleet.ingest(feed(99, names), batched=True)
        assert set(learned) == set(names)
        assert calls["n"] == 0

    def test_engine_memory_ring_stays_synced_incrementally(self):
        """Steady-state ticks must not trigger full memory reloads."""
        fleet, feed, names = self._warm_fleet()
        fleet.forecast_all(batched=True)
        fleet.ingest(feed(98, names), batched=True)
        engine = fleet._engine
        reloads = {"n": 0}
        orig = type(engine)._reload_memory

        def counting_reload(self, entry):
            reloads["n"] += 1
            return orig(self, entry)

        type(engine)._reload_memory = counting_reload
        try:
            for t in range(100, 110):
                fleet.forecast_all(batched=True)
                fleet.ingest(feed(t, names), batched=True)
        finally:
            type(engine)._reload_memory = orig
        assert reloads["n"] == 0


class TestGatherFree:
    """The gather-free fast path: full-fleet ticks read slices of the
    stacked tensors and stop allocating in steady state."""

    def test_contiguous_rows_select_as_slice(self):
        fleet = PredictionFleet(
            FleetConfig(qa_threshold=50.0), streams=["a", "b", "c"]
        )
        feed = _walk_feed(seed=5)
        for t in range(70):
            fleet.ingest(feed(t, ["a", "b", "c"]), batched=True)
        engine = fleet._engine
        full = np.arange(len(engine._rows), dtype=np.intp)
        assert engine._selector(full) == slice(0, len(engine._rows))
        gappy = np.array([0, 2], dtype=np.intp)
        assert engine._selector(gappy) is gappy

    def test_steady_state_tick_recycles_scratch(self):
        """After one warm tick, further ticks reuse the same scratch
        arrays — the allocation-free property the tentpole claims.

        ``max_memory`` bounds the memories so the mirror capacity (and
        with it the distance-kernel scratch shapes) has plateaued by
        the time the check runs.
        """
        config = FleetConfig(qa_threshold=50.0, max_memory=32)
        names = [f"s{i}" for i in range(8)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=7)
        for t in range(70):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        engine = fleet._engine
        before = {k: id(v) for k, v in engine._scratch.items()}
        assert before  # the warm ticks populated the scratch table
        for t in range(70, 75):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        after = {k: id(v) for k, v in engine._scratch.items()}
        assert before == after

    def test_qa_ineligible_stream_falls_back(self):
        """A stream whose assuror is a subclass must stay on the
        per-stream loop — and still produce identical results."""
        from repro.core.qa import PredictionQualityAssuror

        class CustomQA(PredictionQualityAssuror):
            pass

        config = FleetConfig(qa_threshold=4.0)
        names = ["a", "b", "c"]
        fast = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        for fleet in (fast, loop):
            state = fleet._streams["b"]
            custom = CustomQA(
                config.qa_threshold,
                audit_window=config.audit_window,
                audit_interval=config.audit_interval,
                on_breach=state.qa.on_breach,
            )
            state.qa = custom
        feed = _walk_feed(seed=9)
        for t in range(120):
            vals = feed(t, names)
            fa = fast.forecast_all(batched=True)
            fb = loop.forecast_all(batched=False)
            assert fa == fb
            assert fast.ingest(vals, batched=True) == loop.ingest(
                vals, batched=False
            )
        assert not fast._engine.serves("b")
        assert fast._engine.serves("a")
        _assert_same_state(fast, loop)


class TestMixedPaths:
    """Per-stream mutations of engine-served streams. Each bumps the
    predictor's ``version`` counter, and the engine reloads the whole
    row: tail, label smoothing, normalizer, PCA and AR parameters."""

    def test_unbatched_ticks_keep_parity(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(6)]
        mixed = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=1)
        served = 0
        for t in range(200):
            vals = feed(t, names)
            fa = mixed.forecast_all(batched=True)
            assert fa == loop.forecast_all(batched=False), t
            served += len(fa)
            assert mixed.ingest(vals, batched=t % 7 != 0) == (
                loop.ingest(vals, batched=False)
            ), t
        assert served == 816
        _assert_same_state(mixed, loop)

    def test_in_place_retrain_reloads_row(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(6)]
        feed = _walk_feed(seed=1)
        batched, loop = _drive(config, feed, 120, names=names)
        for fleet in (batched, loop):
            predictor = fleet._streams["s2"].predictor
            predictor.retrain(predictor.recent_history(96))
        served = 0
        for t in range(120, 160):
            vals = feed(t, names)
            fa = batched.forecast_all(batched=True)
            assert fa == loop.forecast_all(batched=False), t
            served += len(fa)
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        assert served == 240
        _assert_same_state(batched, loop)


class TestFleetOrderedRows:
    """Engine rows follow fleet order, so a full-fleet tick reads
    slices of the stacked tensors, whatever happened to membership."""

    def _serve(self, config, names, values_at, ticks, check_from, edit=None):
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        selectors = []
        for t in range(ticks):
            if edit is not None:
                edit(t, batched)
                edit(t, loop)
            vals = values_at(t, batched.stream_names)
            engine = batched._engine
            if t >= check_from and engine is not None:
                features = engine._features

                def recording(sel, frames, features=features):
                    selectors.append(sel)
                    return features(sel, frames)

                engine._features = recording
            fa = batched.forecast_all(batched=True)
            assert fa == loop.forecast_all(batched=False), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
            if t >= check_from and engine is not None:
                del engine._features
                served = [
                    n for n in batched.stream_names if engine.serves(n)
                ]
                assert [e.name for e in engine._rows] == served, t
                assert [e.row for e in engine._rows] == list(
                    range(len(served))
                ), t
        assert selectors
        assert all(isinstance(sel, slice) for sel in selectors)
        _assert_same_state(batched, loop)
        return batched

    def test_rows_stay_ordered_through_retrains(self):
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        rng = np.random.default_rng(2)
        state = {}

        def values_at(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                state[n] = (
                    state.get(n, 0.0)
                    + 0.2 * float(rng.standard_normal()) + drift
                )
            return dict(state)

        fleet = self._serve(
            config, [f"s{i}" for i in range(6)], values_at, 240, 70
        )
        assert fleet.metrics().total_retrains > 0

    def test_rows_stay_ordered_after_remove_and_add(self):
        config = FleetConfig(qa_threshold=4.0)
        feed = _walk_feed(seed=7)

        def edit(t, fleet):
            if t == 90:
                fleet.remove_stream("s1")
                fleet.add_stream("s9")

        def values_at(t, live):
            return {n: v for n, v in feed(t, live).items() if n in live}

        names = [f"s{i}" for i in range(5)]
        fleet = self._serve(config, names, values_at, 170, 70, edit)
        assert fleet._engine.serves("s9")

    def test_rows_follow_fleet_order_after_out_of_order_train(self):
        config = FleetConfig(qa_threshold=4.0, max_retrains_per_tick=1)
        feed = _walk_feed(seed=11)
        names = ["a", "b", "c", "d"]

        def values_at(t, live):
            vals = feed(t, names)
            # d starts reporting first, then c, then everyone: they
            # become due, and train, in the reverse of fleet order.
            joined = names[3:] if t < 6 else names[2:] if t < 12 else names
            return {n: vals[n] for n in joined}

        fleet = self._serve(config, names, values_at, 110, 0)
        assert [e.name for e in fleet._engine._rows] == names


class TestVectorizedMajorityVote:
    def _reference(self, labels):
        """The original scalar rule: max count, then earliest first
        occurrence (== nearest neighbour among tied counts)."""
        out = np.empty(labels.shape[0], dtype=np.int64)
        for i, row in enumerate(labels):
            values, counts = np.unique(row, return_counts=True)
            best = counts.max()
            tied = values[counts == best]
            if tied.shape[0] == 1:
                out[i] = tied[0]
            else:
                first = min(
                    np.flatnonzero(row == v)[0] for v in tied
                )
                out[i] = row[first]
        return out

    def test_matches_reference_on_random_votes(self):
        rng = np.random.default_rng(11)
        for k in (1, 3, 5, 9):
            labels = rng.integers(1, 4, size=(500, k))
            np.testing.assert_array_equal(
                majority_vote(labels), self._reference(labels)
            )

    def test_large_k_fallback_matches(self):
        rng = np.random.default_rng(12)
        k = _VECTOR_VOTE_MAX_K + 3
        labels = rng.integers(1, 6, size=(40, k))
        np.testing.assert_array_equal(
            majority_vote(labels), self._reference(labels)
        )
