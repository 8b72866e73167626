"""Tests for the flight recorder leg (repro.obs.flight / quantiles).

Covers the P² quantile digests, the bounded span ring, the Chrome
trace-event exporter, the anomaly trigger's three trip wires, and the
fleet ``flight_dir`` wiring.
"""

import json

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.exceptions import ConfigurationError
from repro.obs import (
    AnomalyTrigger,
    FlightRecorder,
    P2Quantile,
    PhaseQuantiles,
    SpanRecord,
    Telemetry,
    chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import EventLog
from repro.parallel.pool_exec import notify_pool_failure
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series



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


# -- P² quantile digests ------------------------------------------------------


class TestP2Quantile:
    def test_rejects_quantiles_outside_unit_interval(self):
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigurationError):
                P2Quantile(q)

    def test_empty_digest_reads_zero(self):
        assert P2Quantile(0.5).value() == 0.0

    def test_small_samples_are_exact(self):
        """With n <= 5 the digest interpolates the sorted sample."""
        digest = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            digest.observe(v)
        assert digest.value() == 2.0
        assert digest.count == 3
        # Even-length median interpolates the middle pair.
        digest.observe(10.0)
        assert digest.value() == pytest.approx(2.5)

    def test_tracks_sample_quantiles_of_gaussian(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(0.0, 1.0, size=20000)
        for q in (0.5, 0.95, 0.99):
            digest = P2Quantile(q)
            for v in sample:
                digest.observe(v)
            assert digest.value() == pytest.approx(
                float(np.quantile(sample, q)), abs=0.08
            )

    def test_tracks_heavy_tailed_sample(self):
        rng = np.random.default_rng(11)
        sample = rng.lognormal(mean=-3.0, sigma=1.0, size=10000)
        digest = P2Quantile(0.95)
        for v in sample:
            digest.observe(v)
        true = float(np.quantile(sample, 0.95))
        assert digest.value() == pytest.approx(true, rel=0.15)

    def test_phase_bundle_estimates_are_ordered(self):
        rng = np.random.default_rng(3)
        bundle = PhaseQuantiles()
        for v in rng.exponential(0.01, size=2000):
            bundle.observe(v)
        est = bundle.estimates()
        assert set(est) == {"p50", "p95", "p99"}
        assert est["p50"] <= est["p95"] <= est["p99"]
        assert bundle.count == 2000


# -- flight recorder ring -----------------------------------------------------


class TestFlightRecorder:
    def test_capacity_validated(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ConfigurationError):
                FlightRecorder(capacity=bad)

    def test_ring_evicts_oldest_and_counts_loss(self):
        flight = FlightRecorder(capacity=4)
        for i in range(6):
            flight.record(f"phase.{i}", start=float(i), duration=0.01)
        assert len(flight) == 4
        assert flight.total_recorded == 6
        assert flight.dropped == 2
        assert [r.name for r in flight.records()] == [
            "phase.2", "phase.3", "phase.4", "phase.5",
        ]

    def test_set_tick_stamps_subsequent_records(self):
        flight = FlightRecorder(capacity=8)
        flight.record("a", start=0.0, duration=0.01)
        flight.set_tick(42)
        flight.record("b", start=1.0, duration=0.01)
        ticks = {r.name: r.tick for r in flight.records()}
        assert ticks == {"a": 0, "b": 42}

    def test_filters_by_name(self):
        flight = FlightRecorder(capacity=8)
        flight.record("train.ar_fit", 0.0, 0.01, batch=8)
        flight.record("train.ar_fit", 0.1, 0.01, batch=9)
        flight.record("tick.audit", 0.2, 0.01)
        fits = flight.records(name="train.ar_fit")
        assert [r.batch for r in fits] == [8, 9]
        assert all(r.shard is None for r in flight.records())
        assert flight.records(name="tick.knn_query") == ()

    def test_listeners_see_every_record(self):
        flight = FlightRecorder(capacity=4)
        seen = []
        flight.listeners.append(seen.append)
        flight.record("a", 0.0, 0.5, batch=3)
        assert len(seen) == 1
        assert isinstance(seen[0], SpanRecord)
        assert seen[0].as_dict()["batch"] == 3

    def test_snapshot_is_json_safe_and_clear_keeps_totals(self):
        flight = FlightRecorder(capacity=4)
        flight.record("a", 0.0, 0.5)
        snap = json.loads(json.dumps(flight.snapshot()))
        assert snap["records"][0]["name"] == "a"
        assert snap["capacity"] == 4
        assert "wall_anchor" in snap and "mono_anchor" in snap
        flight.clear()
        assert len(flight) == 0
        assert flight.total_recorded == 1


# -- Chrome trace export ------------------------------------------------------


def _loaded_flight():
    """A recorder with a tick span and a training span."""
    flight = FlightRecorder(capacity=64)
    anchor = flight.mono_anchor
    flight.set_tick(5)
    flight.record("tick.audit", anchor + 0.001, 0.002, batch=4)
    flight.record("train.ar_fit", anchor + 0.004, 0.003, batch=8)
    return flight


class TestChromeTrace:
    def test_trace_shape_and_lanes(self):
        doc = chrome_trace(_loaded_flight())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Every span runs in the serving process, on the main lane.
        assert [(e["name"], e["tid"]) for e in spans] == [
            ("tick.audit", 0), ("train.ar_fit", 0),
        ]
        for span in spans:
            assert span["ts"] >= 0.0 and span["dur"] > 0.0
            assert span["args"]["tick"] == 5
            assert "shard" not in span["args"]

    def test_lane_metadata_names_main_lane(self):
        doc = chrome_trace(_loaded_flight(), process_name="unit-test")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["name"], e["tid"]): e["args"]["name"] for e in meta
        }
        assert names == {
            ("process_name", 0): "unit-test",
            ("thread_name", 0): "main",
        }

    def test_events_become_instant_markers(self):
        flight = _loaded_flight()
        log = EventLog(capacity=8)
        log.emit("qa_breach", tick=5, stream="a", window_mse=9.0)
        doc = chrome_trace(flight, log)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        (marker,) = instants
        assert marker["name"] == "qa_breach"
        assert marker["s"] == "p"
        assert marker["args"]["stream"] == "a"
        assert marker["args"]["window_mse"] == 9.0

    def test_unstamped_legacy_events_are_skipped(self):
        """Events loaded from pre-upgrade snapshots carry mono=0.0."""
        legacy = EventLog.from_snapshot(
            {
                "capacity": 8,
                "total_emitted": 1,
                "dropped": 0,
                "events": [
                    {"seq": 0, "kind": "qa_breach", "tick": 1, "stream": "a"}
                ],
            }
        )
        doc = chrome_trace(_loaded_flight(), legacy)
        assert [e for e in doc["traceEvents"] if e["ph"] == "i"] == []

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", _loaded_flight())
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["metadata"]["wall_anchor"] > 0.0


# -- anomaly trigger ----------------------------------------------------------


def _flight_tel():
    tel = Telemetry(flight=True)
    tel.tracer.record("tick.audit", 0.002, batch=4)
    tel.events.emit("qa_breach", tick=1, stream="a", window_mse=9.0)
    return tel


class TestAnomalyTrigger:
    def test_requires_flight_recorder(self, tmp_path):
        with pytest.raises(ConfigurationError):
            AnomalyTrigger(tmp_path, Telemetry())

    def test_parameters_validated(self, tmp_path):
        tel = _flight_tel()
        with pytest.raises(ConfigurationError):
            AnomalyTrigger(tmp_path, tel, breach_storm=0)
        with pytest.raises(ConfigurationError):
            AnomalyTrigger(tmp_path, tel, spike_factor=1.0)

    def test_breach_storm_writes_dump_and_trace(self, tmp_path):
        tel = _flight_tel()
        with AnomalyTrigger(tmp_path, tel, extra={"run": "unit"}) as trigger:
            trigger.note_breaches(3)  # below threshold: no dump
            assert trigger.dumps == []
            trigger.note_breaches(8, tick=7)
        (dump_dir,) = trigger.dumps
        assert dump_dir.name == "flight-001-qa_breach_storm"
        doc = json.loads((dump_dir / "dump.json").read_text())
        assert doc["reason"] == "qa_breach_storm"
        assert doc["detail"] == {"breaches": 8, "tick": 7}
        assert doc["extra"] == {"run": "unit"}
        assert {"flight", "events", "metrics", "spans", "quantiles"} <= set(
            doc
        )
        assert doc["flight"]["records"]
        assert "tick.audit" in doc["quantiles"]
        trace = json.loads((dump_dir / "trace.json").read_text())
        assert trace["traceEvents"]

    def test_cooldown_suppresses_re_trips(self, tmp_path):
        tel = _flight_tel()
        with AnomalyTrigger(tmp_path, tel, cooldown_ticks=10) as trigger:
            assert trigger.trigger("qa_breach_storm") is not None
            tel.flight.set_tick(5)
            assert trigger.trigger("qa_breach_storm") is None
            assert trigger.suppressed == 1
            tel.flight.set_tick(12)
            assert trigger.trigger("qa_breach_storm") is not None
        assert len(trigger.dumps) == 2
        assert trigger.dumps[1].name == "flight-002-qa_breach_storm"

    def test_phase_spike_trips_after_baseline_warms(self, tmp_path):
        tel = Telemetry(flight=True)
        with AnomalyTrigger(
            tmp_path, tel, spike_factor=8.0, spike_min_count=32
        ) as trigger:
            for _ in range(40):
                tel.tracer.record("tick.audit", 0.001)
            assert trigger.dumps == []  # steady state: quiet
            tel.tracer.record("tick.audit", 0.1)
        (dump_dir,) = trigger.dumps
        assert "phase_spike" in dump_dir.name
        doc = json.loads((dump_dir / "dump.json").read_text())
        assert doc["detail"]["phase"] == "tick.audit"
        assert doc["detail"]["duration"] == pytest.approx(0.1)
        assert doc["detail"]["baseline"] == pytest.approx(0.001, rel=0.01)

    def test_cold_phases_never_spike(self, tmp_path):
        """A slow first occurrence is a baseline, not an anomaly."""
        tel = Telemetry(flight=True)
        with AnomalyTrigger(tmp_path, tel, spike_min_count=32) as trigger:
            tel.tracer.record("train.rebuild", 0.001)
            tel.tracer.record("train.rebuild", 5.0)
            assert trigger.dumps == []

    def test_broken_pool_hook_fires_until_closed(self, tmp_path):
        tel = _flight_tel()
        trigger = AnomalyTrigger(tmp_path, tel, cooldown_ticks=0)
        try:
            notify_pool_failure(RuntimeError("worker died"))
            assert len(trigger.dumps) == 1
            assert "broken_pool" in trigger.dumps[0].name
            doc = json.loads((trigger.dumps[0] / "dump.json").read_text())
            assert "worker died" in doc["detail"]["error"]
        finally:
            trigger.close()
        notify_pool_failure(RuntimeError("after close"))
        assert len(trigger.dumps) == 1
        trigger.close()  # idempotent

    def test_close_detaches_ring_listener(self, tmp_path):
        tel = Telemetry(flight=True)
        trigger = AnomalyTrigger(tmp_path, tel)
        assert trigger._on_record in tel.flight.listeners
        trigger.close()
        assert trigger._on_record not in tel.flight.listeners


# -- fleet wiring -------------------------------------------------------------


class TestFleetFlight:
    def _storm(self, flight_dir, *, n_streams=16, ticks=144):
        names = [f"s{i}" for i in range(n_streams)]
        fleet = PredictionFleet(
            small_config(), streams=names, telemetry=True,
            flight_dir=flight_dir,
        )
        feeds = {}
        for i, name in enumerate(names):
            series = 10.0 + 2.0 * ar1_series(ticks, phi=0.9, seed=i)
            if i % 2 == 0:
                series = series.copy()
                series[ticks // 2:] += 25.0
            feeds[name] = series
        try:
            for t in range(ticks):
                fleet.forecast_all()
                fleet.ingest({n: feeds[n][t] for n in names})
                fleet.run_pending_retrains()
        finally:
            fleet.close()
        return fleet

    def test_flight_dir_arms_recorder_and_dumps_on_storm(self, tmp_path):
        """Acceptance: a drift storm with --flight-dir produces a dump."""
        fleet = self._storm(tmp_path)
        assert fleet.telemetry.flight is not None
        assert fleet.telemetry.flight.total_recorded > 0
        trigger = fleet.anomaly_trigger
        assert trigger is not None
        assert trigger.dumps, "drift storm should trip the anomaly trigger"
        for dump_dir in trigger.dumps:
            assert (dump_dir / "dump.json").exists()
            assert (dump_dir / "trace.json").exists()
        reasons = {d.name.split("-", 2)[2] for d in trigger.dumps}
        assert reasons <= {"qa_breach_storm", "phase_spike", "broken_pool"}

    def test_records_carry_fleet_ticks(self, tmp_path):
        fleet = self._storm(tmp_path, n_streams=4, ticks=80)
        ticks = {r.tick for r in fleet.telemetry.flight.records()}
        assert max(ticks) > 1  # set_tick advanced with ingest

    def test_close_is_idempotent(self, tmp_path):
        fleet = self._storm(tmp_path, n_streams=4, ticks=60)
        fleet.close()
        fleet.close()

    def test_no_flight_dir_means_no_trigger(self):
        fleet = PredictionFleet(small_config(), telemetry=True)
        assert fleet.anomaly_trigger is None
        assert fleet.telemetry.flight is None
