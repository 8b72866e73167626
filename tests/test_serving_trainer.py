"""Bit-exactness, budget, and cost tests for the batched train engine.

Like the tick engine, :class:`~repro.serving.trainer.BatchedTrainEngine`
is an execution strategy, not a model change: a batched training burst
must leave every stream in the identical state a per-stream
``OnlineLARPredictor.train(history)`` call would — same normalizer and
AR coefficients, same PCA basis, same labels and classifier memory,
same forecasts afterwards. These tests compare the assembled models
field by field, drive whole fleets down both paths, and pin the retrain
budget scheduler's oldest-breach-first semantics.
"""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.exceptions import ConfigurationError, DataError
from repro.serving import BatchedTrainEngine, FleetConfig, PredictionFleet
from repro.serving.retrain import RetrainScheduler
from repro.traces.synthetic import ar1_series


def _reference(config, history):
    """The per-stream training path the batched burst must reproduce."""
    return OnlineLARPredictor(
        config.lar,
        label_smoothing=config.label_smoothing,
        max_memory=config.max_memory,
        history_limit=config.history_limit,
    ).train(history)


def _assert_same_model(batched, reference, name=""):
    """Field-by-field bit equality of two trained online predictors."""
    nb = batched._runner.pipeline.normalizer
    nr = reference._runner.pipeline.normalizer
    assert nb.mean == nr.mean and nb.std == nr.std, name
    pb = batched._runner.pipeline.pca
    pr = reference._runner.pipeline.pca
    assert (pb is None) == (pr is None), name
    if pb is not None:
        np.testing.assert_array_equal(pb.mean_, pr.mean_, err_msg=name)
        np.testing.assert_array_equal(
            pb.components_, pr.components_, err_msg=name
        )
        np.testing.assert_array_equal(
            pb.explained_variance_, pr.explained_variance_, err_msg=name
        )
        np.testing.assert_array_equal(
            pb.explained_variance_ratio_,
            pr.explained_variance_ratio_,
            err_msg=name,
        )
    ab, ar = batched._runner.pool[1], reference._runner.pool[1]
    assert ab.mean_ == ar.mean_, name
    np.testing.assert_array_equal(ab.coefficients_, ar.coefficients_, err_msg=name)
    assert ab.noise_variance_ == ar.noise_variance_, name
    cb, cr = batched._classifier, reference._classifier
    np.testing.assert_array_equal(cb._X, cr._X, err_msg=name)
    np.testing.assert_array_equal(cb._y, cr._y, err_msg=name)
    np.testing.assert_array_equal(cb.classes_, cr.classes_, err_msg=name)
    tb, tr = batched._runner._train, reference._runner._train
    np.testing.assert_array_equal(tb.frames, tr.frames, err_msg=name)
    np.testing.assert_array_equal(tb.targets, tr.targets, err_msg=name)
    np.testing.assert_array_equal(tb.features, tr.features, err_msg=name)
    np.testing.assert_array_equal(
        batched.recent_history(), reference.recent_history(), err_msg=name
    )
    fb, fr = batched.forecast(), reference.forecast()
    assert fb == fr, name


def _histories(n, length=200, seed=0):
    """Drift-storm histories: AR(1) segments with a mid-series shift."""
    out = []
    for i in range(n):
        base = 10.0 + 3.0 * ar1_series(length, phi=0.85, seed=seed + i)
        base[length // 2 :] += 4.0  # the regime shift that triggered QA
        out.append(base)
    return out


class TestTrainManyParity:
    def test_each_stream_matches_per_stream_train(self):
        config = FleetConfig(max_memory=32, history_limit=256)
        histories = _histories(6)
        trained = BatchedTrainEngine(config).train_many(histories)
        for i, h in enumerate(histories):
            _assert_same_model(trained[i], _reference(config, h), f"stream {i}")

    def test_ragged_lengths_group_and_match(self):
        """Mixed history lengths (mid-warm-up streams, short limits)
        train in per-length groups, each still bit-exact."""
        config = FleetConfig()
        histories = _histories(2, length=200) + _histories(
            3, length=150, seed=7
        ) + _histories(1, length=73, seed=11)
        trained = BatchedTrainEngine(config).train_many(histories)
        for i, h in enumerate(histories):
            _assert_same_model(trained[i], _reference(config, h), f"stream {i}")

    def test_parity_with_pca_disabled(self):
        config = FleetConfig(lar=LARConfig(n_components=None))
        histories = _histories(4, seed=3)
        trained = BatchedTrainEngine(config).train_many(histories)
        for i, h in enumerate(histories):
            _assert_same_model(trained[i], _reference(config, h), f"stream {i}")

    def test_parity_on_constant_and_tied_streams(self):
        """Zero-variance and alternating histories hit the normalizer's
        min_std floor and exact label ties — where a divergent kernel
        would first show."""
        config = FleetConfig()
        histories = [
            np.full(120, 7.0),
            np.tile([1.0, 2.0], 60),
            np.zeros(120),
        ]
        trained = BatchedTrainEngine(config).train_many(histories)
        for i, h in enumerate(histories):
            _assert_same_model(trained[i], _reference(config, h), f"stream {i}")

    def test_unsupported_config_raises(self):
        config = FleetConfig(lar=LARConfig(extended_pool=True))
        engine = BatchedTrainEngine(config)
        assert not engine.supported
        with pytest.raises(ConfigurationError):
            engine.train_many(_histories(2))
        assert not BatchedTrainEngine(
            FleetConfig(lar=LARConfig(n_components=None, min_variance=0.9))
        ).supported

    def test_rejects_bad_histories(self):
        engine = BatchedTrainEngine(FleetConfig())
        with pytest.raises(DataError):
            engine.train_many([np.ones((4, 4))])
        with pytest.raises(DataError):
            engine.train_many([np.ones(3)])  # shorter than window + 2
        bad = _histories(1)[0]
        bad[10] = np.nan
        with pytest.raises(DataError):
            engine.train_many([bad])


def _drift_feed(seed):
    rng = np.random.default_rng(seed)
    state = {}

    def feed(t, names):
        drift = 0.6 if (t // 80) % 2 else 0.02
        for n in names:
            state[n] = state.get(n, 0.0) + 0.2 * float(rng.standard_normal()) + drift
        return dict(state)

    return feed


def _drive_pair(config, ticks, *, names=None, feed_seed=2, loop_config=None):
    """Drive a batched-retrain fleet and a per-stream-retrain fleet
    through the same feed, asserting tick-level parity."""
    names = names or [f"s{i}" for i in range(6)]
    batched = PredictionFleet(config, streams=names)
    loop = PredictionFleet(loop_config or config, streams=names)
    feed = _drift_feed(feed_seed)
    for t in range(ticks):
        vals = feed(t, names)
        assert batched.forecast_all(batched=True) == (
            loop.forecast_all(batched=False)
        ), t
        assert batched.ingest(vals, batched=True) == (
            loop.ingest(vals, batched=False)
        ), t
    return batched, loop


def _assert_same_fleet(a, b):
    assert a.metrics() == b.metrics()
    assert a.pending_retrains == b.pending_retrains
    for name in a.stream_names:
        sa, sb = a._streams[name], b._streams[name]
        assert (sa.qa.audits_total, sa.qa.breaches_total) == (
            sb.qa.audits_total, sb.qa.breaches_total
        ), name
        assert sa.qa.state_dict() == sb.qa.state_dict(), name
        assert (sa.due_at, sa.train_due, sa.retrain_due) == (
            sb.due_at, sb.train_due, sb.retrain_due
        ), name
        if sa.predictor is None:
            assert sb.predictor is None, name
            continue
        _assert_same_model(sa.predictor, sb.predictor, name)


class TestFleetRetrainParity:
    def test_drift_storm_parity(self):
        """Regime shifts breach every stream's QA repeatedly; the
        batched retrain path must track the per-stream path through
        every retrain cycle."""
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        batched, loop = _drive_pair(config, 280)
        assert batched.metrics().total_retrains > 0  # the point of the test
        _assert_same_fleet(batched, loop)

    def test_warmup_initial_trains_run_batched_and_match(self):
        """Lazy warm-up training is part of the same burst: streams
        crossing min_train together train as one stacked group."""
        config = FleetConfig(qa_threshold=50.0)
        batched, loop = _drive_pair(config, 80, feed_seed=5)
        assert batched.metrics().n_trained == 6
        _assert_same_fleet(batched, loop)

    def test_ineligible_config_trains_per_stream(self):
        """min_variance PCA can't stack; run_pending_retrains must
        transparently serve it per stream, batched flag or not."""
        config = FleetConfig(
            lar=LARConfig(n_components=None, min_variance=0.9),
            qa_threshold=50.0,
        )
        batched, loop = _drive_pair(config, 80, feed_seed=6)
        assert batched.metrics().n_trained == 6
        assert not batched._get_train_engine().supported
        _assert_same_fleet(batched, loop)


class TestRetrainBudget:
    def test_config_validates_budget(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(max_retrains_per_tick=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(max_retrains_per_tick=-1)
        assert FleetConfig(max_retrains_per_tick=3).max_retrains_per_tick == 3

    def test_explicit_budget_argument(self):
        fleet = PredictionFleet(FleetConfig(), streams=["a"])
        with pytest.raises(ConfigurationError):
            fleet.run_pending_retrains(budget=-1)
        assert fleet.run_pending_retrains(budget=0) == ()

    def test_queue_is_served_oldest_breach_first(self):
        config = FleetConfig(auto_retrain=False, qa_threshold=50.0)
        fleet = PredictionFleet(config, streams=["a", "b", "c"])
        feed = _drift_feed(8)
        names = ["a", "b", "c"]
        # Stagger warm-up completion: "c" crosses min_train two ticks
        # before "a" and "b" do.
        for t in range(config.min_train - 2):
            fleet.ingest(feed(t, names))
        for t in range(2):
            vals = feed(100 + t, names)
            fleet.ingest({"c": vals["c"]})
        fleet.ingest(feed(200, names))
        fleet.ingest(feed(201, names))
        assert fleet.pending_retrains == ("c", "a", "b")
        # "c" kept ingesting while due; its stamp still marks the
        # original breach tick, not the latest one.
        assert (
            fleet._streams["c"].due_at < fleet._streams["a"].due_at
        )
        # A budget of 1 serves the oldest breach; the rest stay queued.
        assert fleet.run_pending_retrains(budget=1) == ("c",)
        assert fleet.pending_retrains == ("a", "b")
        assert fleet.is_trained("c") and not fleet.is_trained("a")
        assert fleet.run_pending_retrains(budget=None) == ("a", "b")
        assert fleet.pending_retrains == ()

    def test_ingest_never_pays_more_than_the_budget(self, monkeypatch):
        """With max_retrains_per_tick set, no single ingest call trains
        more than the budgeted streams, and deferred streams keep
        serving their current model until a later tick reaches them."""
        budget = 2
        config = FleetConfig(
            max_retrains_per_tick=budget, max_memory=24, qa_threshold=0.5,
            audit_window=16, audit_interval=4, retrain_window=96,
            history_limit=256,
        )
        names = [f"s{i}" for i in range(8)]
        fleet = PredictionFleet(config, streams=names)
        bursts = []
        orig = RetrainScheduler.run_sync

        def counting(self, due, *, batched):
            bursts.append(len(due))
            return orig(self, due, batched=batched)

        monkeypatch.setattr(RetrainScheduler, "run_sync", counting)
        feed = _drift_feed(9)
        for t in range(300):
            fleet.forecast_all()
            fleet.ingest(feed(t, names))
        assert bursts and max(bursts) <= budget
        # The storm schedules everything eventually; the budget defers
        # but never starves (8 warm-up trains alone need 4 bursts).
        assert fleet.metrics().n_trained == len(names)
        assert fleet.metrics().total_retrains > 0

    def test_budgeted_fleet_converges_to_unbudgeted_models(self):
        """Once the queue drains, a budgeted fleet has retrained every
        stream a drift storm scheduled — deferred, not dropped."""
        base = dict(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        names = [f"s{i}" for i in range(6)]
        budgeted = PredictionFleet(
            FleetConfig(max_retrains_per_tick=1, **base), streams=names
        )
        feed = _drift_feed(10)
        for t in range(280):
            budgeted.forecast_all()
            budgeted.ingest(feed(t, names))
        # Drain whatever the last ticks deferred.
        while budgeted.pending_retrains:
            budgeted.run_pending_retrains(budget=None)
        metrics = budgeted.metrics()
        assert metrics.n_trained == len(names)
        assert metrics.total_retrains > 0
        assert metrics.pending_retrains == 0


class TestTrainingCost:
    def test_batched_burst_makes_no_per_stream_train_calls(self, monkeypatch):
        """The batched path must assemble models from fitted parts, not
        loop over OnlineLARPredictor.train."""
        config = FleetConfig(qa_threshold=50.0)
        names = [f"s{i}" for i in range(5)]
        fleet = PredictionFleet(config, streams=names)

        def forbidden(self, history):
            raise AssertionError("per-stream train on the batched path")

        monkeypatch.setattr(OnlineLARPredictor, "train", forbidden)
        feed = _drift_feed(11)
        for t in range(config.min_train + 5):
            fleet.ingest(feed(t, names))
        assert fleet.metrics().n_trained == len(names)


class TestSaveLoadWithPendingRetrains:
    def test_deferred_queue_survives_roundtrip(self, tmp_path):
        """A budgeted fleet saved mid-storm restores with the same
        deferred queue, order, and budget — and continues identically."""
        config = FleetConfig(
            max_retrains_per_tick=1, max_memory=24, qa_threshold=0.5,
            audit_window=16, audit_interval=4, retrain_window=96,
            history_limit=256,
        )
        names = [f"s{i}" for i in range(6)]
        fleet = PredictionFleet(config, streams=names)
        feed = _drift_feed(12)
        t = 0
        # Drive until the budget has actually deferred something.
        while len(fleet.pending_retrains) < 2:
            fleet.forecast_all()
            fleet.ingest(feed(t, names))
            t += 1
            assert t < 600, "storm never built a deferred queue"
        fleet.save(tmp_path / "fleet")
        restored = PredictionFleet.load(tmp_path / "fleet")
        assert restored.config.max_retrains_per_tick == 1
        assert restored.pending_retrains == fleet.pending_retrains
        assert restored._due_seq == fleet._due_seq
        for _ in range(40):
            vals = feed(t, names)
            t += 1
            assert restored.forecast_all() == fleet.forecast_all()
            assert restored.ingest(vals) == fleet.ingest(vals)
        _assert_same_fleet(restored, fleet)
