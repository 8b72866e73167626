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
        assert (sa.qa.audits_total, sa.qa.breaches_total) == (
            sb.qa.audits_total, sb.qa.breaches_total
        ), name
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
    """Each attached row's live slots hold its checked-out classifier's
    rows; the rest are dead: ``+inf`` coordinates and the dead-slot tie
    key."""
    engine = fleet._engine
    engine.sync()
    cap = engine._mem_cap
    for entry in engine._rows:
        engine.checkout(entry)
        clf, row = entry.predictor._classifier, entry.row
        lo, hi = clf.discarded_total_, clf.appended_total_
        assert (engine._mem_lo[row], engine._mem_hi[row]) == (lo, hi)
        slots = np.arange(lo, hi) % cap
        np.testing.assert_array_equal(
            engine._mem_abs[row, slots], np.arange(lo, hi), err_msg=entry.name
        )
        np.testing.assert_array_equal(engine._mem_x[row, :, slots], clf._X)
        np.testing.assert_array_equal(engine._mem_y[row, slots], clf._y)
        dead = np.ones(cap, dtype=bool)
        dead[slots] = False
        assert (engine._mem_abs[row, dead] == _DEAD_KEY).all(), entry.name
        assert np.isposinf(engine._mem_x[row, :, dead]).all(), entry.name


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

    def test_parity_with_pca_disabled_at_sixteen_features(self):
        """Window 16 with PCA off: 16-D memories of a three-level feed,
        full of equidistant rows, where the engine and the loop vote
        alike only if they compute every distance with the same bits."""
        config = FleetConfig(
            lar=LARConfig(window=16, n_components=None), min_train=200
        )
        rng = np.random.default_rng(3)

        def feed(t, names):
            return {n: float(rng.integers(0, 3)) for n in names}

        names = [f"s{i}" for i in range(12)]
        batched, loop = _drive(config, feed, 700, names=names)
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

    def test_overflowing_error_raises_like_the_loop(self):
        """A finite value can still overflow a normalized error (a huge
        value on a near-constant stream). The batched ingest then raises
        at the same stream as the loop, with the streams before it in
        the tick processed and the ones after it untouched."""
        from repro.exceptions import ConfigurationError

        config = FleetConfig(qa_threshold=50.0)
        names = ["a", "b", "c"]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=3)

        def values(t):
            vals = feed(t, names)
            vals["b"] = 1.0 + 1e-9 * (t % 2)  # a tiny fitted sigma
            return vals

        for t in range(90):
            vals = values(t)
            if t == 80:
                vals["b"] = 1e308
            for fleet, path in ((batched, True), (loop, False)):
                fleet.forecast_all(batched=path)
                if t == 80:
                    with np.errstate(over="ignore"), pytest.raises(
                        ConfigurationError, match="non-finite"
                    ):
                        fleet.ingest(vals, batched=path)
                else:
                    fleet.ingest(vals, batched=path)
        assert batched._engine.serves("b")
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

        def detach(*edited):
            # Writers detach: the next sync reloads each row whole.
            for name in edited:
                batched._engine.detach(batched._streams[name]._entry)

        # Out of band: retire rows, then append rows the engine never saw.
        detach("s4")
        for fleet in (batched, loop):
            fleet._streams["s4"].predictor._classifier.discard_oldest(5)
        _assert_ring_invariants(batched)
        detach("s4", "s5")
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
        # ring when it reloads that row, after every other row.
        engine = batched._engine
        last = engine._rows[-1].name
        detach(last)
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
        live = engine._mem_hi[: len(names)] - engine._mem_lo[: len(names)]
        assert (live == 128).all()
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
        """Steady-state ticks must not trigger full row reloads."""
        fleet, feed, names = self._warm_fleet()
        fleet.forecast_all(batched=True)
        fleet.ingest(feed(98, names), batched=True)
        engine = fleet._engine
        reloads = {"n": 0}
        orig = type(engine)._load_row

        def counting_reload(self, entry):
            reloads["n"] += 1
            return orig(self, entry)

        type(engine)._load_row = counting_reload
        try:
            for t in range(100, 110):
                fleet.forecast_all(batched=True)
                fleet.ingest(feed(t, names), batched=True)
        finally:
            type(engine)._load_row = orig
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


class TestMixedPaths:
    """Per-stream reads and writes of engine-served streams. A per-stream
    tick detaches each stream it writes, and the engine reloads the
    whole row at its next sync: tail, label smoothing, normalizer, PCA
    and AR parameters."""

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

    def test_single_stream_forecasts_between_batched_ingests(self):
        """A per-stream forecast of ``s1`` checks it out, and the batched
        ingest then audits that object forecast, as the loop does;
        ``forecast("s4")`` is served from its engine row instead."""
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(6)]
        mixed = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=3)
        for t in range(160):
            vals = feed(t, names)
            if t >= 70 and t % 3 == 0:
                ref = loop.forecast_all(("s1", "s4"), batched=False)
                assert mixed.forecast_all(("s1",), batched=False) == (
                    {"s1": ref["s1"]}
                ), t
                assert mixed.forecast("s4") == ref["s4"], t
            elif t % 3 == 1:
                assert mixed.forecast_all(batched=True) == (
                    loop.forecast_all(batched=False)
                ), t
            assert mixed.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        assert all(mixed._engine.serves(n) for n in names)
        _assert_same_state(mixed, loop)
        for name in names:
            # Members first picked between two check-outs join the
            # histogram in the order the loop inserted them.
            assert list(mixed._streams[name].selections) == list(
                loop._streams[name].selections
            ), name

    def test_selection_scrapes_mid_serve(self):
        """A registry read checks every stream out for its selection
        counters; later batched ticks keep counting from there."""
        from repro.obs import Telemetry

        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(5)]
        mixed = PredictionFleet(config, streams=names, telemetry=Telemetry())
        loop = PredictionFleet(config, streams=names, telemetry=Telemetry())

        def selections(fleet):
            for family in fleet.telemetry.registry.families():
                if family.name == "repro_fleet_selections_total":
                    return {
                        labels: child.value
                        for labels, child in family.children.items()
                    }
            return {}

        feed = _walk_feed(seed=5)
        for t in range(150):
            vals = feed(t, names)
            assert mixed.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            mixed.ingest(vals, batched=True)
            loop.ingest(vals, batched=False)
            if t % 25 == 0:
                assert selections(mixed) == selections(loop), t
        scraped = selections(mixed)
        assert scraped == selections(loop)
        assert sum(scraped.values()) == len(names) * (150 - 64)
        # Span metrics differ per path by design; the streams must not.
        assert mixed.metrics().streams == loop.metrics().streams

    def test_scrapes_from_other_threads_while_ticking(self):
        """Scrape threads check streams out while the fleet ticks and
        retrains; the engine's lock keeps them from interleaving a tick,
        so the fleet still ends where the loop does. The stale-entry
        interleaving is pinned deterministically by
        ``test_stale_entry_check_out_after_a_retrain_swap``."""
        import sys
        import threading

        from repro.obs import Telemetry

        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        names = [f"s{i}" for i in range(8)]
        mixed = PredictionFleet(config, streams=names, telemetry=Telemetry())
        loop = PredictionFleet(config, streams=names)
        rng = np.random.default_rng(6)
        level = {}

        def feed(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                level[n] = (
                    level.get(n, 0.0) + 0.2 * float(rng.standard_normal())
                    + drift
                )
            return dict(level)

        stop = threading.Event()
        scrapes = []

        def scrape():
            while not stop.wait(0.0002):
                mixed.telemetry.registry.families()
                scrapes.append(1)

        # More scrape threads than cores, switching often.
        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for scraper in scrapers:
                scraper.start()
            for t in range(280):
                vals = feed(t, names)
                assert mixed.forecast_all(batched=True) == (
                    loop.forecast_all(batched=False)
                ), t
                mixed.ingest(vals, batched=True)
                loop.ingest(vals, batched=False)
        finally:
            stop.set()
            for scraper in scrapers:
                scraper.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(scraper.is_alive() for scraper in scrapers)
        assert scrapes
        assert mixed.metrics().total_retrains > 0
        assert mixed.metrics().streams == loop.metrics().streams
        for name in names:
            pa = mixed._streams[name].predictor
            pb = loop._streams[name].predictor
            np.testing.assert_array_equal(
                pa.recent_history(), pb.recent_history(), err_msg=name
            )
            np.testing.assert_array_equal(
                pa._classifier._X, pb._classifier._X, err_msg=name
            )

    def test_remove_and_re_add_the_same_name(self):
        """A removed stream's deferred ticks go with it: the re-added
        stream under the same name warms up from scratch."""
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(5)]
        mixed = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=9)
        for t in range(220):
            if t == 100:
                for fleet in (mixed, loop):
                    fleet.remove_stream("s2")
                    fleet.add_stream("s2")
            vals = feed(t, names)
            assert mixed.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert mixed.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        assert mixed._engine.serves("s2")
        by_name = {m.name: m for m in mixed.metrics().streams}
        assert by_name["s2"].ticks == 120
        _assert_same_state(mixed, loop)

    def test_save_mid_serve_then_keep_serving(self, tmp_path):
        """save() checks every stream out; the fleet keeps serving on
        the engine afterwards, and the directory equals the loop's."""
        import json

        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        names = [f"s{i}" for i in range(6)]
        rng = np.random.default_rng(2)
        level = {}

        def feed(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                level[n] = (
                    level.get(n, 0.0) + 0.2 * float(rng.standard_normal())
                    + drift
                )
            return dict(level)

        mixed, loop = _drive(config, feed, 130, names=names)
        mixed.save(tmp_path / "mixed")
        loop.save(tmp_path / "loop")
        manifests = [
            json.loads((tmp_path / side / "fleet.json").read_text())
            for side in ("mixed", "loop")
        ]
        assert manifests[0] == manifests[1]
        for t in range(130, 190):
            vals = feed(t, names)
            assert mixed.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert mixed.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        assert mixed.metrics().total_retrains > 0
        _assert_same_state(mixed, loop)
        _assert_same_state(
            PredictionFleet.load(tmp_path / "mixed"),
            PredictionFleet.load(tmp_path / "loop"),
        )

    def test_stale_entry_check_out_after_a_retrain_swap(self):
        """A reader can hold a stream's engine entry from before a
        retrain (a scrape thread reads ``state._entry`` unlocked). Once
        the retrained model owns the row, checking the old entry out
        leaves the row alone: its deferred ticks belong to the new
        model."""
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        names = [f"s{i}" for i in range(4)]
        rng = np.random.default_rng(2)
        level = {}

        def feed(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                level[n] = (
                    level.get(n, 0.0) + 0.2 * float(rng.standard_normal())
                    + drift
                )
            return dict(level)

        mixed = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        held = {}
        stale = 0
        for t in range(280):
            vals = feed(t, names)
            assert mixed.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert mixed.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
            for name in names:
                entry = mixed._streams[name]._entry
                if entry is None:
                    continue  # detached by a swap; attaches next tick
                old = held.get(name)
                if old is not None and old is not entry:
                    # The new entry's row already holds a batched tick.
                    engine = mixed._engine
                    assert engine._dirty[entry.row] and old.row == entry.row
                    engine.checkout(old)
                    stale += 1
                held[name] = entry
        assert stale > 0  # the point of the test
        _assert_same_state(mixed, loop)


class TestEngineOwnedState:
    """The batched tick writes only the engine's arrays; per-stream
    objects catch up when something reads them."""

    def test_batched_ticks_leave_per_stream_objects_alone(self):
        config = FleetConfig(qa_threshold=50.0)
        names = [f"s{i}" for i in range(6)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=4)
        for t in range(80):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        fleet.metrics()  # check every stream out
        engine = fleet._engine

        def snapshot():
            # Read through the engine's own references: no check-out.
            return {
                e.name: (
                    (clf := e.predictor._classifier)._buf_end,
                    clf.appended_total_, len(e.predictor._history),
                    e.qa._step, e.state._ticks,
                )
                for e in engine._rows
            }

        before = snapshot()
        assert len(before) == len(names)
        for t in range(80, 100):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        assert snapshot() == before
        for name in names:
            _, appended, history, step, ticks = before[name]
            state = fleet._streams[name]
            assert state.ticks == ticks + 20
            predictor = state.predictor
            assert predictor._classifier.appended_total_ == appended + 20
            assert predictor.history_length == history + 20
            assert state.qa.step == step + 20


    @pytest.mark.parametrize("limit", [1_000_000, None, 100])
    def test_history_ring_tracks_the_stored_history(self, limit):
        """The history ring is as wide as the longest stored history
        needs (the next power of two), capped at ``history_limit``: a
        generous limit costs nothing until streams fill it, and only a
        ring at the limit wraps."""
        config = FleetConfig(history_limit=limit, qa_threshold=50.0)
        names = [f"s{i}" for i in range(4)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=2)
        for t in range(600):
            vals = feed(t, names)
            assert batched.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            batched.ingest(vals, batched=True)
            loop.ingest(vals, batched=False)
            if t + 1 in (300, 600):
                stored = batched._streams["s0"].predictor.history_length
                assert stored == min(limit or t + 1, t + 1), t
                width = 100 if limit == 100 else {300: 512, 600: 1024}[t + 1]
                assert batched._engine._hist.shape[1] == width, t
        assert all(batched._engine.serves(name) for name in names)
        _assert_same_state(batched, loop)


class TestDeepMemories:
    def test_memories_past_2048_rows_stay_on_the_engine(self):
        """A memory past 2048 rows (the depth at which the retired
        KD-tree backend once took over) keeps its stream batched, with
        forecasts identical to the per-stream loop."""
        config = FleetConfig(
            min_train=2100, history_limit=2200, max_memory=None,
            qa_threshold=50.0,
        )
        names = ["a", "b", "c", "d"]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        rng = np.random.default_rng(21)
        for t in range(2130):
            # Two level-quantized streams make exact distance ties.
            vals = {
                "a": float(rng.standard_normal()),
                "b": float(t % 3),
                "c": float(rng.integers(0, 2)),
                "d": 10.0 + 0.1 * t + float(rng.standard_normal()),
            }
            if t >= config.min_train:
                assert batched.forecast_all(batched=True) == (
                    loop.forecast_all(batched=False)
                ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        engine = batched._engine
        assert all(engine.serves(name) for name in names)
        for name in names:
            clf = batched._streams[name].predictor._classifier
            assert clf.n_samples_ > 2048
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
