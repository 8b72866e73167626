"""Engine-direct retrains: a stacked retrain installs its fit into the
tick engine's rows, and each stream's predictor object is built only
when something first reads it.

The contract: an installed row is the row ``_load_row`` would load from
the eagerly trained predictor, a predictor built at its first check-out
is the per-stream loop's model, the retrain snapshot read from the
history ring is ``recent_history`` bit for bit, and a retrain round
neither checks a stream out nor builds a model nobody reads.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.larpredictor import Forecast
from repro.core.online import OnlineLARPredictor
from repro.serving import FleetConfig, PredictionFleet
from repro.serving.engine import BatchedTickEngine
from tests.test_serving_trainer import _assert_same_model, _reference

_ROW_ARRAYS = (
    "_tails", "_mu", "_sigma", "_pmean", "_pcomp", "_ar_phi", "_ar_mu",
    "_sqring", "_sq_count", "_max_mem", "_qa_ring", "_qa_count", "_qa_sum",
    "_qa_step", "_qa_due", "_pend_value", "_pend_norm", "_pend_label",
    "_fresh", "_hist", "_hist_hi", "_deferred", "_replayed", "_sel",
    "_sel_first", "_dirty", "_mem_x", "_mem_y", "_mem_abs", "_mem_lo",
    "_mem_hi",
)


def _config(**overrides):
    defaults = dict(
        min_train=40, label_smoothing=5, max_memory=24, history_limit=96,
        qa_threshold=0.5, audit_window=16, audit_interval=4,
        retrain_window=64, auto_retrain=False,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _feed(seed=0):
    """Noisy cycles whose level shifts by +8 on alternate streams every
    30 ticks: enough to breach the QA and order retrains."""
    rng = np.random.default_rng(seed)

    def feed(t, names):
        shift = 8.0 if (t // 30) % 2 else 0.0
        return {
            n: 10.0 + 3.0 * np.sin(t / 7.0 + i) + rng.normal(0.0, 0.4)
            + (shift if i % 2 == 0 else 0.0)
            for i, n in enumerate(names)
        }

    return feed


def _tick(fleet, values, *, batched=True):
    forecasts = fleet.forecast_all(batched=batched)
    fleet.ingest(values, batched=batched)
    return forecasts, fleet.run_pending_retrains(batched=batched)


def _unbuilt(fleet):
    return [
        name for name, state in fleet._streams.items()
        if state._entry is not None and state._entry.predictor is None
    ]


def _order_all(fleet):
    """Order a retrain for every trained stream, as a drift storm would."""
    for state in fleet._streams.values():
        if state.trained:
            fleet._retrain.schedule(state, initial=False)


_VARIANTS = [
    {},
    # PCA off: the memory holds the frames themselves.
    dict(lar=LARConfig(n_components=None)),
    # Unbounded memory: nothing is trimmed after the fit.
    dict(max_memory=None),
]


class TestInstalledRows:
    @pytest.mark.parametrize("overrides", _VARIANTS)
    def test_installed_rows_equal_rows_loaded_from_trained_predictors(
        self, overrides
    ):
        """Right after a sync storm, each installed row equals, array by
        array, what ``_load_row`` loads from the per-stream ``train()``
        of the same history after ``acknowledge_retraining()``."""
        config = _config(**overrides)
        names = [f"s{i}" for i in range(7)]
        fleet = PredictionFleet(config, streams=names)
        feed = _feed(1)
        for t in range(70):
            _tick(fleet, feed(t, names))
        _order_all(fleet)
        assert fleet.run_pending_retrains() == tuple(names)
        engine = fleet._engine
        assert sorted(_unbuilt(fleet)) == names
        for name in names:
            entry = fleet._streams[name]._entry
            row = entry.row
            installed = {
                a: getattr(engine, a)[row].copy() for a in _ROW_ARRAYS
            }
            histories, fit, index = entry.fit
            eager = _reference(config, histories[index])
            ghost = SimpleNamespace(predictor=eager, qa=entry.qa, row=row)
            engine._load_row(ghost)
            for a in _ROW_ARRAYS:
                loaded = getattr(engine, a)[row]
                if a == "_dirty":
                    # Installed rows owe their objects; loaded rows do not.
                    assert installed[a] and not loaded, name
                    continue
                np.testing.assert_array_equal(
                    installed[a], loaded, err_msg=f"{name} {a}"
                )


class TestBuildOnFirstRead:
    @pytest.mark.parametrize("overrides", _VARIANTS)
    @pytest.mark.parametrize("lag", [0, 1, 7])
    def test_first_check_out_builds_the_loop_model(self, lag, overrides):
        """A predictor built at its first check-out, *lag* ticks after
        the install, is the per-stream loop's model: history, label
        smoothing window, classifier rows and counters, QA, forecasts."""
        config = _config(**overrides)
        names = [f"s{i}" for i in range(5)]
        fleet = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _feed(2)
        t = 0
        while True:
            values = feed(t, names)
            fa, done = _tick(fleet, values)
            fb, _ = _tick(loop, values, batched=False)
            assert fa == fb, t
            t += 1
            if t > 60 and done:
                break
            assert t < 400, "no retrain round"
        for _ in range(lag):
            values = feed(t, names)
            fa, _ = _tick(fleet, values)
            fb, _ = _tick(loop, values, batched=False)
            assert fa == fb, t
            t += 1
        built = [name for name in done if name in _unbuilt(fleet)]
        assert built, "the round installed nothing still unbuilt"
        for name in built:
            sa, sb = fleet._streams[name], loop._streams[name]
            pa, pb = sa.predictor, sb.predictor
            assert sa._entry.predictor is pa
            _assert_same_model(pa, pb, name=name)
            assert len(pa._recent_sq) == len(pb._recent_sq), name
            for ra, rb in zip(pa._recent_sq, pb._recent_sq):
                np.testing.assert_array_equal(ra, rb, err_msg=name)
            assert pa.windows_learned_online == pb.windows_learned_online
            ca, cb = pa._classifier, pb._classifier
            assert (ca.appended_total_, ca.discarded_total_) == (
                cb.appended_total_, cb.discarded_total_
            ), name
            assert ca._label_counts == cb._label_counts, name
            assert sa.qa.state_dict() == sb.qa.state_dict(), name
            assert (sa.ticks, sa.selections, sa.retrain_count) == (
                sb.ticks, sb.selections, sb.retrain_count
            ), name
        for _ in range(20):
            values = feed(t, names)
            fa, _ = _tick(fleet, values)
            fb, _ = _tick(loop, values, batched=False)
            assert fa == fb, t
            t += 1
        assert fleet.metrics() == loop.metrics()


class TestRingSnapshot:
    @pytest.mark.parametrize(
        "overrides",
        [
            # The history ring wraps: 48 slots, 130+ values stored.
            dict(history_limit=48, retrain_window=44),
            # Unbounded history, refit on all of it.
            dict(history_limit=None, retrain_window=None),
            # The window is longer than anything stored.
            dict(history_limit=None, retrain_window=500),
        ],
    )
    def test_snapshot_equals_recent_history_bit_for_bit(self, overrides):
        config = _config(**overrides)
        names = [f"s{i}" for i in range(6)]
        fleet = PredictionFleet(config, streams=names)
        feed = _feed(3)
        for t in range(130):
            _tick(fleet, feed(t, names))
        # Some rows installed and never read, some read and served on.
        assert fleet._engine is not None
        fleet._streams["s0"].predictor
        _order_all(fleet)
        due = fleet.pending_retrains
        plan = fleet._retrain.snapshot(due)
        limit = config.retrain_window
        for name, history in zip(plan.names, plan.histories):
            predictor = fleet._streams[name].predictor
            expected = predictor.recent_history(
                limit or predictor.history_length
            )
            assert history.dtype == np.float64
            assert history.tobytes() == expected.tobytes(), name
        stacked = {}
        for positions, stack in plan.groups:
            for position, row in zip(positions, stack):
                stacked[position] = row
        assert sorted(stacked) == list(range(len(due)))
        for position, history in enumerate(plan.histories):
            assert stacked[position].tobytes() == history.tobytes()


class TestRoundCost:
    def test_round_checks_nothing_out_and_builds_nothing_unread(
        self, monkeypatch
    ):
        """A retrain round checks no stream out, and a model retrained
        again before anyone reads it is never built."""
        config = _config()
        names = [f"s{i}" for i in range(6)]
        fleet = PredictionFleet(config, streams=names)
        feed = _feed(4)
        builds = []
        checkouts = []
        original_build = OnlineLARPredictor.from_fitted_parts.__func__
        original_checkout = BatchedTickEngine._checkout

        def counting_build(cls, *args, **kwargs):
            builds.append(cls)
            return original_build(cls, *args, **kwargs)

        def counting_checkout(self, entry):
            checkouts.append(entry.name)
            return original_checkout(self, entry)

        monkeypatch.setattr(
            OnlineLARPredictor, "from_fitted_parts",
            classmethod(counting_build),
        )
        monkeypatch.setattr(BatchedTickEngine, "_checkout", counting_checkout)
        for t in range(60):
            _tick(fleet, feed(t, names))
        assert all(fleet._streams[n].trained for n in names)
        for round_ in range(3):
            _order_all(fleet)
            assert fleet.run_pending_retrains() == tuple(names)
            for t in range(60 + 5 * round_, 65 + 5 * round_):
                _tick(fleet, feed(t, names))
        assert checkouts == []
        assert builds == []
        assert sorted(_unbuilt(fleet)) == names
        assert fleet._streams["s2"].predictor is not None
        assert len(builds) == 1
        assert checkouts == ["s2"]


class TestPersistenceAfterInstall:
    def test_save_load_after_lazy_install_round_trips(self, tmp_path):
        config = _config()
        names = [f"s{i}" for i in range(5)]
        fleet = PredictionFleet(config, streams=names)
        feed = _feed(5)
        t = 0
        for t in range(70):
            _tick(fleet, feed(t, names))
        _order_all(fleet)
        fleet.run_pending_retrains()
        for t in range(70, 73):
            _tick(fleet, feed(t, names))
        assert _unbuilt(fleet)
        fleet.save(tmp_path / "fleet")
        restored = PredictionFleet.load(tmp_path / "fleet")
        assert restored.metrics() == fleet.metrics()
        for t in range(73, 140):
            values = feed(t, names)
            fa, da = _tick(fleet, values)
            fb, db = _tick(restored, values)
            assert fa == fb, t
            assert da == db, t
        assert restored.metrics() == fleet.metrics()


class TestSingleStreamForecast:
    def test_forecast_one_stream_builds_nothing(self):
        """``forecast(name)`` serves an installed row nobody has read from
        the engine, as ``forecast_all((name,))`` does: the row stays
        unbuilt, and the forecast equals the per-stream loop twin's."""
        config = _config()
        names = [f"s{i}" for i in range(4)]
        fleet = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _feed(7)
        for t in range(config.min_train):
            values = feed(t, names)
            _tick(fleet, values)
            _tick(loop, values, batched=False)
        assert sorted(_unbuilt(fleet)) == names
        fc = fleet.forecast("s1")
        assert fleet._streams["s1"]._entry.predictor is None
        assert fc == loop.forecast_all(("s1",), batched=False)["s1"]
        # The next tick audits that forecast, as the twin's does.
        values = feed(config.min_train, names)
        fleet.ingest(values)
        loop.ingest(values, batched=False)
        assert fleet.metrics() == loop.metrics()


class TestEngineForecasts:
    def test_engine_forecasts_equal_constructed_ones(self):
        config = _config(qa_threshold=50.0)
        names = ["a", "b"]
        fleet = PredictionFleet(config, streams=names)
        feed = _feed(6)
        for t in range(50):
            _tick(fleet, feed(t, names))
        served = fleet.forecast_all()
        assert len(served) == 2
        for fc in served.values():
            twin = Forecast(
                value=fc.value,
                normalized_value=fc.normalized_value,
                predictor_label=fc.predictor_label,
                predictor_name=fc.predictor_name,
            )
            assert fc == twin
            assert hash(fc) == hash(twin)
            assert repr(fc) == repr(twin)
            assert pickle.loads(pickle.dumps(fc)) == fc
            assert not hasattr(fc, "__dict__")
