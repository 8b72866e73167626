"""Unit tests for the multi-stream serving layer (repro.serving)."""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.serving import (
    FleetConfig,
    FleetMetrics,
    PredictionFleet,
    load_fleet,
    save_fleet,
)
from repro.traces.synthetic import ar1_series, white_noise_series



def small_config(**overrides):
    defaults = dict(
        lar=LARConfig(window=5),
        min_train=30,
        qa_threshold=3.0,
        audit_window=16,
        audit_interval=8,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def feed(fleet, feeds, start, stop, *, forecast_first=True):
    for t in range(start, stop):
        if forecast_first:
            fleet.forecast_all()
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})


@pytest.fixture
def warm_fleet():
    """A 4-stream fleet driven past warm-up, plus its feeds."""
    fleet = PredictionFleet(small_config(), streams=["a", "b", "c", "d"])
    feeds = {
        name: 10.0 + 2.0 * ar1_series(400, phi=0.9, seed=i)
        for i, name in enumerate(fleet.stream_names)
    }
    feed(fleet, feeds, 0, 60)
    return fleet, feeds


class TestFleetConfig:
    def test_min_train_floor(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(lar=LARConfig(window=5), min_train=6)

    def test_history_limit_vs_min_train(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(min_train=64, history_limit=32)

    def test_retrain_window_floor(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(lar=LARConfig(window=5), retrain_window=4)

    def test_threshold_positive(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(qa_threshold=0.0)


class TestStreamLifecycle:
    def test_add_remove_contains(self):
        fleet = PredictionFleet(small_config())
        fleet.add_stream("x").add_stream("y")
        assert len(fleet) == 2 and "x" in fleet and "z" not in fleet
        fleet.remove_stream("x")
        assert fleet.stream_names == ("y",)

    def test_duplicate_and_invalid_names(self):
        fleet = PredictionFleet(small_config(), streams=["x"])
        with pytest.raises(ConfigurationError):
            fleet.add_stream("x")
        with pytest.raises(ConfigurationError):
            fleet.add_stream("")

    def test_unknown_stream_operations(self):
        fleet = PredictionFleet(small_config(), streams=["x"])
        with pytest.raises(ConfigurationError):
            fleet.ingest({"nope": 1.0})
        with pytest.raises(ConfigurationError):
            fleet.forecast("nope")
        with pytest.raises(ConfigurationError):
            fleet.remove_stream("nope")

    def test_lazy_training_at_min_train(self):
        cfg = small_config()
        fleet = PredictionFleet(cfg, streams=["x"])
        series = ar1_series(cfg.min_train + 5, phi=0.8, seed=1)
        for t in range(cfg.min_train - 1):
            fleet.ingest({"x": series[t]})
            assert not fleet.is_trained("x")
        with pytest.raises(NotFittedError):
            fleet.forecast("x")
        fleet.ingest({"x": series[cfg.min_train - 1]})
        assert fleet.is_trained("x")
        fc = fleet.forecast("x")
        assert np.isfinite(fc.value)

    def test_warmup_streams_omitted_from_forecast_all(self):
        fleet = PredictionFleet(small_config(), streams=["cold", "warm"])
        series = ar1_series(60, phi=0.8, seed=2)
        for t in range(40):
            fleet.ingest({"warm": series[t]})
        out = fleet.forecast_all()
        assert set(out) == {"warm"}


class TestIngest:
    def test_batched_returns_per_stream_labels(self, warm_fleet):
        fleet, feeds = warm_fleet
        labels = fleet.ingest(
            {name: feeds[name][60] for name in fleet.stream_names}
        )
        assert set(labels) == set(fleet.stream_names)
        assert all(lab in (1, 2, 3) for lab in labels.values())

    def test_partial_batches_allowed(self, warm_fleet):
        fleet, feeds = warm_fleet
        before = {m.name: m.ticks for m in fleet.metrics().streams}
        fleet.ingest({"a": feeds["a"][60]})
        after = {m.name: m.ticks for m in fleet.metrics().streams}
        assert after["a"] == before["a"] + 1
        assert after["b"] == before["b"]

    def test_non_finite_rejected_before_any_mutation(self, warm_fleet):
        from decimal import Decimal

        fleet, feeds = warm_fleet
        before = fleet.metrics()
        with pytest.raises(ConfigurationError):
            fleet.ingest({"a": feeds["a"][60], "b": float("nan")})
        # The vectorized check names the first non-finite stream in
        # input order, and an unknown stream fails in its input place.
        bad = [
            ({"a": 1.0, "c": float("inf"), "b": float("nan")}, "'c'"),
            ({"d": float("-inf"), "a": float("inf")}, "'d'"),
            ({"a": 1.0, "zzz": 2.0}, "unknown stream 'zzz'"),
            ({"b": float("nan"), "zzz": 2.0}, "'b' must be finite"),
            ({"a": "inf", "b": 1.0}, "'a' must be finite"),
        ]
        for values, message in bad:
            with pytest.raises(ConfigurationError, match=message):
                fleet.ingest(values)
        # Values float() rejects raise what float() raises.
        with pytest.raises(TypeError):
            fleet.ingest({"a": 1.0, "b": None})
        with pytest.raises(ValueError):
            fleet.ingest({"a": "1.0.0"})
        after = fleet.metrics()
        assert after == before
        # Accepted values convert exactly as float() does.
        mixed = {
            "a": "10.25", "b": Decimal("0.1"), "c": True,
            "d": np.float32(10.1),
        }
        names, values = fleet._validate_values(mixed)
        assert names == list(mixed)
        assert values.tolist() == [float(v) for v in mixed.values()]
        fleet.ingest(mixed)
        for name, value in mixed.items():
            history = fleet._streams[name].predictor.recent_history(1)
            assert history.tolist() == [float(value)]

    def test_ingest_without_forecast_still_audits(self):
        """The QA must see a (forecast, observation) pair per tick even
        when the caller never reads forecasts."""
        fleet = PredictionFleet(small_config(), streams=["x"])
        series = ar1_series(80, phi=0.8, seed=3)
        for t in range(80):
            fleet.ingest({"x": series[t]})
        m = fleet.metrics().streams[0]
        assert m.trained
        assert m.rolling_mse > 0.0
        assert sum(m.selections.values()) == 80 - 30  # one per served tick


class TestRetraining:
    def drifting_fleet(self, auto_retrain):
        cfg = small_config(
            qa_threshold=2.0, retrain_window=60, auto_retrain=auto_retrain
        )
        fleet = PredictionFleet(cfg, streams=["calm", "drift"])
        calm = 10.0 + ar1_series(200, phi=0.9, seed=4)
        drift = calm.copy()
        drift[100:] = 80.0 + 10.0 * white_noise_series(100, seed=5)
        return fleet, {"calm": calm, "drift": drift}

    def test_qa_breach_retrains_only_drifting_stream(self):
        fleet, feeds = self.drifting_fleet(auto_retrain=True)
        feed(fleet, feeds, 0, 200)
        by_name = {m.name: m for m in fleet.metrics().streams}
        assert by_name["drift"].retrain_count >= 1
        assert by_name["calm"].retrain_count == 0
        assert by_name["drift"].breaches >= 1

    def test_manual_retrain_scheduling(self):
        fleet, feeds = self.drifting_fleet(auto_retrain=False)
        feed(fleet, feeds, 0, 40)
        fleet.run_pending_retrains()  # initial (lazy) training
        feed(fleet, feeds, 40, 140)  # drift begins at tick 100
        assert "drift" in fleet.pending_retrains
        done = fleet.run_pending_retrains()
        assert "drift" in done
        assert fleet.pending_retrains == ()
        by_name = {m.name: m for m in fleet.metrics().streams}
        assert by_name["drift"].retrain_count >= 1

    def test_retrain_resets_qa_window(self):
        fleet, feeds = self.drifting_fleet(auto_retrain=False)
        feed(fleet, feeds, 0, 40)
        fleet.run_pending_retrains()
        feed(fleet, feeds, 40, 140)
        fleet.run_pending_retrains()
        state = fleet._streams["drift"]
        assert not state.qa.retraining_due
        assert state.qa.rolling_mse == 0.0


class TestMetrics:
    def test_snapshot_fields(self, warm_fleet):
        fleet, _ = warm_fleet
        metrics = fleet.metrics()
        assert isinstance(metrics, FleetMetrics)
        assert metrics.n_streams == 4 and metrics.n_trained == 4
        assert metrics.total_ticks == 4 * 60
        for m in metrics.streams:
            assert m.memory_size > 0
            assert m.history_length > 0
            assert m.rolling_mse >= 0.0
        assert sum(metrics.selections.values()) == sum(
            sum(m.selections.values()) for m in metrics.streams
        )

    def test_render_truncates(self, warm_fleet):
        fleet, _ = warm_fleet
        text = fleet.metrics().render(max_rows=2)
        assert "Fleet: 4 streams" in text
        assert "(2 more streams)" in text

    def test_repr(self, warm_fleet):
        fleet, _ = warm_fleet
        assert "streams=4" in repr(fleet)


class TestPersistence:
    def test_roundtrip_reproduces_forecasts(self, warm_fleet, tmp_path):
        fleet, feeds = warm_fleet
        fleet.save(tmp_path / "fleet")
        restored = PredictionFleet.load(tmp_path / "fleet")
        assert restored.stream_names == fleet.stream_names
        original = fleet.forecast_all()
        back = restored.forecast_all()
        for name in original:
            assert original[name].value == back[name].value
            assert (
                original[name].predictor_label == back[name].predictor_label
            )

    def test_roundtrip_preserves_counters_and_warmup(self, tmp_path):
        cfg = small_config()
        fleet = PredictionFleet(cfg, streams=["warm", "cold"])
        series = ar1_series(60, phi=0.8, seed=6)
        for t in range(40):
            fleet.ingest({"warm": series[t]})
        for t in range(10):
            fleet.ingest({"cold": series[t]})
        save_fleet(fleet, tmp_path / "f")
        restored = load_fleet(tmp_path / "f")
        orig = {m.name: m for m in fleet.metrics().streams}
        back = {m.name: m for m in restored.metrics().streams}
        for name in ("warm", "cold"):
            assert back[name].ticks == orig[name].ticks
            assert back[name].trained == orig[name].trained
            assert back[name].selections == orig[name].selections
        # The cold stream's warm-up buffer survived: 20 more values
        # finish its training.
        for t in range(10, 30):
            restored.ingest({"cold": series[t]})
        assert restored.is_trained("cold")

    def test_streams_resume_learning_after_restore(self, warm_fleet, tmp_path):
        fleet, feeds = warm_fleet
        fleet.save(tmp_path / "f")
        restored = PredictionFleet.load(tmp_path / "f")
        feed(fleet, feeds, 60, 90)
        feed(restored, feeds, 60, 90)
        a = fleet.forecast_all()
        b = restored.forecast_all()
        for name in a:
            assert a[name].value == b[name].value

    def test_manifest_with_parallel_block_still_loads(
        self, warm_fleet, tmp_path
    ):
        """Manifests written before 2.0 carry the removed ``parallel``
        policy block, and before 3.0 the removed ``label_cache`` and
        ``max_inflight_retrains`` keys; loading ignores them."""
        import json

        fleet, feeds = warm_fleet
        fleet.save(tmp_path / "f")
        manifest_path = tmp_path / "f" / "fleet.json"
        manifest = json.loads(manifest_path.read_text())
        removed = ("parallel", "label_cache", "max_inflight_retrains")
        assert not set(removed) & set(manifest["config"])
        manifest["config"]["parallel"] = {
            "max_workers": None,
            "min_items_per_worker": 2,
            "chunksize": 1,
        }
        manifest["config"]["label_cache"] = False
        manifest["config"]["max_inflight_retrains"] = 4
        manifest_path.write_text(json.dumps(manifest))
        restored = load_fleet(tmp_path / "f")
        assert restored.config == fleet.config
        assert restored.forecast_all() == fleet.forecast_all()
        feed(fleet, feeds, 60, 90)
        feed(restored, feeds, 60, 90)
        assert restored.forecast_all() == fleet.forecast_all()

    def test_not_a_fleet_directory(self, tmp_path):
        with pytest.raises(DataError):
            load_fleet(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "fleet.json").write_text("{not json")
        with pytest.raises(DataError):
            load_fleet(tmp_path)

    def test_bad_format_version(self, tmp_path):
        (tmp_path / "fleet.json").write_text('{"format_version": 99}')
        with pytest.raises(DataError):
            load_fleet(tmp_path)
