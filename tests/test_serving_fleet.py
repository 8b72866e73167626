"""Unit tests for the multi-stream serving layer (repro.serving)."""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.serving import (
    FleetConfig,
    FleetMetrics,
    PredictionFleet,
    load_fleet,
    save_fleet,
)
from repro.traces.synthetic import ar1_series, white_noise_series
# Field-by-field model comparison, shared with the trainer suite.
from tests.test_serving_trainer import _assert_same_model



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

    def test_threshold_rejects_nan_and_keeps_inf(self):
        """A NaN threshold compares false against every audit and would
        silently disable retraining; an infinite one is a legal way to
        ask for no QA-ordered retrains."""
        with pytest.raises(ConfigurationError, match="qa_threshold"):
            FleetConfig(qa_threshold=float("nan"))
        assert FleetConfig(qa_threshold=float("inf")).qa_threshold == float(
            "inf"
        )

    @pytest.mark.parametrize("value", [0, -3, 2.5, None])
    def test_label_smoothing_is_a_positive_integer(self, value):
        with pytest.raises(ConfigurationError, match="label_smoothing"):
            FleetConfig(label_smoothing=value)

    @pytest.mark.parametrize("value", [2, 0, 64.0])
    def test_max_memory_floor(self, value):
        """max_memory must hold at least k windows (k=3 by default)."""
        with pytest.raises(ConfigurationError, match="max_memory"):
            FleetConfig(max_memory=value)

    @pytest.mark.parametrize("field", ["audit_window", "audit_interval"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, None])
    def test_audit_geometry_is_a_positive_integer(self, field, value):
        """Rejected at construction, not when the first stream is
        added: a fleet built without streams must not accept them."""
        with pytest.raises(ConfigurationError, match=field):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("history_limit", 1500.0),
            ("retrain_window", 300.5),
            ("max_retrains_per_tick", True),
        ],
    )
    def test_counts_reject_floats_and_bools(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_train", 64), ("label_smoothing", 10), ("max_memory", 512),
            ("history_limit", 2048), ("audit_window", 16),
            ("audit_interval", 8), ("retrain_window", 256),
            ("max_retrains_per_tick", 2),
        ],
    )
    def test_numpy_integer_counts_are_stored_as_int(
        self, field, value, tmp_path
    ):
        """Stored as plain ints, so a fleet builds and saves with them."""
        config = FleetConfig(**{field: np.int64(value)})
        assert type(getattr(config, field)) is int
        assert getattr(config, field) == value
        PredictionFleet(config, streams=["a"]).save(tmp_path / "fleet")

    def test_memory_and_smoothing_floors_are_legal(self):
        config = FleetConfig(
            lar=LARConfig(k=5), max_memory=5, label_smoothing=1
        )
        assert (config.max_memory, config.label_smoothing) == (5, 1)
        assert FleetConfig(max_memory=None).max_memory is None


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

    def test_predictor_and_qa_are_read_only(self, warm_fleet):
        """A stream's model changes only through retrains and ``load``."""
        fleet, _ = warm_fleet
        state = fleet._streams["a"]
        assert fleet._engine.serves("a")
        with pytest.raises(AttributeError):
            state.predictor = fleet._streams["b"].predictor
        with pytest.raises(AttributeError):
            state.qa = fleet._streams["b"].qa


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

    def test_qa_ordered_retrain_refits_everything(self):
        """The paper's QA orders a plain retrain (§3.2): the new model is
        exactly a fresh train on the retrain window, so a level shift
        inside that window moves the normalizer too."""
        cfg = small_config(
            min_train=128, history_limit=128, retrain_window=128
        )
        fleet = PredictionFleet(cfg, streams=["s"])
        series = 20.0 + 4.0 * ar1_series(150, phi=0.9, seed=3)
        series[140:] += 25.0
        feed(fleet, {"s": series}, 0, 143)
        state = fleet._streams["s"]
        old = state.predictor
        assert state.retrain_count == 0
        feed(fleet, {"s": series}, 143, 144)  # the QA orders a retrain
        assert state.retrain_count == 1
        new = state.predictor
        reference = OnlineLARPredictor(
            cfg.lar,
            label_smoothing=cfg.label_smoothing,
            max_memory=cfg.max_memory,
            history_limit=cfg.history_limit,
        ).train(new.recent_history())
        _assert_same_model(new, reference)
        before = old._runner.pipeline.normalizer
        after = new._runner.pipeline.normalizer
        assert after.mean > before.mean and after.std > before.std

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

    def test_due_clock_survives_roundtrip(self, tmp_path):
        """A stream ordered between ticks after a restore queues behind
        one that fell due ticks earlier, as it does in the original."""
        cfg = small_config(auto_retrain=False)
        names = ["a", "b"]
        fleet = PredictionFleet(cfg, streams=names)
        series = ar1_series(60, phi=0.8, seed=6)
        for t in range(40):
            fleet.ingest({n: series[t] for n in names})
        fleet.run_pending_retrains()
        fleet._retrain.schedule(fleet._streams["b"], initial=False)
        for t in range(40, 43):
            fleet.ingest({n: series[t] for n in names})
        fleet.save(tmp_path / "f")
        restored = PredictionFleet.load(tmp_path / "f")
        for side in (fleet, restored):
            side._retrain.schedule(side._streams["a"], initial=False)
        assert fleet.pending_retrains == ("b", "a")
        assert restored.pending_retrains == fleet.pending_retrains

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

    def test_restore_mid_storm_serves_on_identically(self, tmp_path):
        """A fleet saved in the middle of a drift storm and its restored
        copy serve the rest of the storm tick for tick, through further
        QA-ordered retrains."""
        names = ["a", "b", "c"]
        feeds = {}
        for i, name in enumerate(names):
            series = 10.0 + 2.0 * ar1_series(150, phi=0.9, seed=7 * i + 1)
            for j in range(3):  # a run of jumps re-breaches the QA
                series[60 + 10 * j :] += 15.0
            feeds[name] = series
        config = small_config(
            qa_threshold=2.0, audit_window=8, audit_interval=4,
            retrain_window=40,
        )
        fleet = PredictionFleet(config, streams=names)
        feed(fleet, feeds, 0, 64)
        saved = fleet.metrics().total_retrains
        assert saved > 0
        fleet.save(tmp_path / "f")
        restored = PredictionFleet.load(tmp_path / "f")
        for t in range(64, 150):
            assert restored.forecast_all() == fleet.forecast_all(), t
            values = {name: feeds[name][t] for name in names}
            assert restored.ingest(values) == fleet.ingest(values), t
        total = fleet.metrics().total_retrains
        assert restored.metrics().total_retrains == total > saved

    def test_manifest_does_not_grow_with_ticks_served(
        self, warm_fleet, tmp_path
    ):
        """A save after hundreds more ticks, and the audits they ran,
        writes a manifest no larger than the first. Sizes are compared
        with every number written as 0: shortest float reprs and counter
        digits change by a few bytes from save to save, while anything
        that accumulates adds keys or list entries."""
        import json

        def masked_size(doc):
            def mask(v):
                if isinstance(v, dict):
                    return {k: mask(x) for k, x in v.items()}
                if isinstance(v, list):
                    return [mask(x) for x in v]
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    return 0
                return v

            return len(json.dumps(mask(doc)))

        fleet, feeds = warm_fleet
        feed(fleet, feeds, 60, 120)
        # Every stream has picked every member: no selections key is
        # still to come.
        assert all(len(m.selections) == 3 for m in fleet.metrics().streams)
        audits = fleet.metrics().streams[0].audits
        fleet.save(tmp_path / "first")
        feed(fleet, feeds, 120, 400)
        assert fleet.metrics().streams[0].audits >= audits + 30
        fleet.save(tmp_path / "second")
        first, second = (
            json.loads((tmp_path / d / "fleet.json").read_text())
            for d in ("first", "second")
        )
        for a, b in zip(first["streams"], second["streams"], strict=True):
            assert a["qa"].keys() == b["qa"].keys(), a["name"]
        assert masked_size(second) <= masked_size(first)

    def test_manifest_with_parallel_block_still_loads(
        self, warm_fleet, tmp_path
    ):
        """Manifests written before 2.0 carry the removed ``parallel``
        policy block, before 3.0 the removed ``label_cache`` and
        ``max_inflight_retrains`` keys, before 4.0
        ``min_relabel_overlap`` plus per-stream ``params_window`` and
        ``label_cache`` entries with their ``cache_NNNN.npz`` archives,
        and before 7.0 ``max_integrations_per_tick``; loading ignores
        them."""
        import json

        fleet, feeds = warm_fleet
        fleet.save(tmp_path / "f")
        manifest_path = tmp_path / "f" / "fleet.json"
        manifest = json.loads(manifest_path.read_text())
        removed = (
            "parallel", "label_cache", "max_inflight_retrains",
            "min_relabel_overlap", "max_integrations_per_tick",
        )
        assert not set(removed) & set(manifest["config"])
        for entry in manifest["streams"]:
            assert not {"params_window", "label_cache"} & set(entry)
        assert not list((tmp_path / "f" / "streams").glob("cache_*"))
        manifest["config"]["parallel"] = {
            "max_workers": None,
            "min_items_per_worker": 2,
            "chunksize": 1,
        }
        manifest["config"]["label_cache"] = False
        manifest["config"]["max_inflight_retrains"] = 4
        manifest["config"]["min_relabel_overlap"] = 0.5
        manifest["config"]["max_integrations_per_tick"] = 1
        np.savez_compressed(
            tmp_path / "f" / "streams" / "cache_0000.npz",
            sq=np.zeros((55, 3)),
            labels=np.ones(55, dtype=np.int64),
        )
        for entry in manifest["streams"]:
            entry["params_window"] = [0, 60]
            entry["label_cache"] = {
                "archive": "streams/cache_0000.npz",
                "start": 5,
                "config_fp": "0123abcd",
                "params_fp": "4567ef01",
            }
        manifest_path.write_text(json.dumps(manifest))
        restored = load_fleet(tmp_path / "f")
        assert restored.config == fleet.config
        assert restored.forecast_all() == fleet.forecast_all()
        feed(fleet, feeds, 60, 90)
        feed(restored, feeds, 60, 90)
        assert restored.forecast_all() == fleet.forecast_all()

    def _saved(self, warm_fleet, directory):
        import json

        fleet, _ = warm_fleet
        fleet.save(directory)
        path = directory / "fleet.json"
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("escape", ["absolute", "parent"])
    def test_archive_outside_the_directory_is_refused(
        self, warm_fleet, tmp_path, escape
    ):
        """A manifest may not point a stream at another fleet's model,
        by absolute path or by climbing out with ``..``."""
        import json

        self._saved(warm_fleet, tmp_path / "B")
        path, manifest = self._saved(warm_fleet, tmp_path / "A")
        other = "B/streams/stream_0000.npz"
        manifest["streams"][0]["archive"] = (
            str(tmp_path / other) if escape == "absolute" else f"../{other}"
        )
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="stream 'a'.*outside"):
            load_fleet(tmp_path / "A")

    def test_missing_or_unreadable_archive_names_the_stream(
        self, warm_fleet, tmp_path
    ):
        path, manifest = self._saved(warm_fleet, tmp_path / "f")
        archive = path.parent / manifest["streams"][1]["archive"]
        archive.write_bytes(b"not an npz archive")
        with pytest.raises(DataError, match="stream 'b'"):
            load_fleet(path.parent)
        archive.unlink()
        with pytest.raises(DataError, match="stream 'b'"):
            load_fleet(path.parent)

    @pytest.mark.parametrize(
        "swap, match",
        [
            ("label_smoothing", "label_smoothing 11"),
            ("pca__components", "PCA basis shapes"),
            ("pred__AR__coefficients", "AR state has 4 coefficients"),
        ],
        ids=["label_smoothing", "pca_basis", "ar_coefficients"],
    )
    def test_archive_the_config_would_not_build_names_the_stream(
        self, warm_fleet, tmp_path, swap, match
    ):
        """Every stream of a fleet is built from its one config, so a
        replaced archive that config would not build is refused."""
        from repro.core.persistence import save_online_larpredictor

        fleet, _ = warm_fleet
        path, manifest = self._saved(warm_fleet, tmp_path / "f")
        archive = path.parent / manifest["streams"][1]["archive"]
        if swap == "label_smoothing":
            cfg = fleet.config
            other = OnlineLARPredictor(
                cfg.lar,
                label_smoothing=cfg.label_smoothing + 1,
                max_memory=cfg.max_memory,
                history_limit=cfg.history_limit,
            ).train(fleet._streams["b"].predictor.recent_history())
            save_online_larpredictor(other, archive)
        else:
            with np.load(archive) as saved:
                arrays = dict(saved)
            # One row or coefficient too many, or one too few.
            arrays[swap] = (
                np.vstack([arrays[swap], arrays[swap][:1]])
                if swap == "pca__components"
                else arrays[swap][:-1]
            )
            np.savez(archive, **arrays)
        with pytest.raises(DataError, match=f"stream 'b'.*{match}"):
            load_fleet(path.parent)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ("nan", "stream 'b' holds 1 non-finite"),
            ("extra", "stream 'b' holds 11 values.* 10 ticks"),
            ("short", "stream 'b' holds 9 values.* 10 ticks"),
        ],
        ids=["nan", "extra", "short"],
    )
    def test_warmup_buffer_the_ring_cannot_hold_names_the_stream(
        self, tmp_path, edit, match
    ):
        """A cold stream's saved buffer must hold the finite values a
        stream with its tick count stores. Loaded, a NaN fails the
        initial train of every retrain round the stream joins, so no
        stream of the fleet would ever train; a buffer of another
        length has no place in the warm-up ring."""
        import json

        config = FleetConfig(min_train=20, auto_retrain=False)
        names = ["a", "b", "c"]
        fleet = PredictionFleet(config, streams=names)
        series = ar1_series(10, phi=0.8, seed=2)
        for t in range(10):
            fleet.ingest({n: float(series[t]) + i for i, n in enumerate(names)})
        fleet.save(tmp_path / "f")
        path = tmp_path / "f" / "fleet.json"
        manifest = json.loads(path.read_text())
        buffer = manifest["streams"][1]["buffer"]
        assert len(buffer) == 10
        if edit == "nan":
            buffer[3] = float("nan")
        elif edit == "extra":
            buffer.append(1.0)
        else:
            del buffer[0]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=match):
            load_fleet(tmp_path / "f")

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
