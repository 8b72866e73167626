"""Unit tests for the telemetry subsystem (repro.obs) and its wiring."""

import json

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    EventLog,
    MetricsRegistry,
    Telemetry,
    Tracer,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
)
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series
from tests.conftest import inline_pool



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


def drift_feeds(names, n=400, *, drift_at=200, drift=25.0):
    """AR(1) feeds where every other stream drifts mid-run."""
    feeds = {}
    for i, name in enumerate(names):
        series = 10.0 + 2.0 * ar1_series(n, phi=0.9, seed=i)
        if i % 2 == 0:
            series = series.copy()
            series[drift_at:] += drift
        feeds[name] = series
    return feeds


def serve(fleet, feeds, start, stop, *, batched=True):
    for t in range(start, stop):
        fleet.forecast_all(batched=batched)
        fleet.ingest(
            {name: feeds[name][t] for name in fleet.stream_names},
            batched=batched,
        )
        fleet.run_pending_retrains(batched=batched)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "Things.")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("repro_things_total", "Things.").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_level", "Level.")
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value == 7.0

    def test_same_name_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "X.", stream="a")
        b = reg.counter("repro_x_total", "X.", stream="a")
        assert a is b
        other = reg.counter("repro_x_total", "X.", stream="b")
        assert other is not a

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "X.")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x_total", "X.")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("0bad", "Bad.")
        with pytest.raises(ConfigurationError):
            reg.counter("repro_ok_total", "Ok.", **{"0bad": "v"})

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "X.", stream="a").inc(3)
        reg.histogram("repro_t_seconds", "T.").observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert "repro_x_total" in snap


class TestHistogramBuckets:
    def test_bucket_edges_le_semantics(self):
        """An observation equal to an edge lands in that edge's bucket."""
        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_t_seconds", "T.", buckets=(0.1, 1.0, 10.0)
        )
        for v in (0.05, 0.1, 0.5, 1.0, 5.0, 50.0):
            h.observe(v)
        # Cumulative counts per le edge, +Inf last: an observation equal
        # to an edge counts toward that edge (le, not lt).
        assert h.cumulative_counts() == [2, 4, 5, 6]
        assert h.count == 6
        assert h.sum == pytest.approx(56.65)

    def test_bucket_edges_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_t_seconds", "T.", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_u_seconds", "U.", buckets=())

    def test_default_buckets_cover_hot_path_scales(self):
        assert DEFAULT_TIME_BUCKETS[0] <= 1e-4
        assert DEFAULT_TIME_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)

    def test_per_child_bucket_override(self):
        """Children of one family can carry their own bucket edges."""
        reg = MetricsRegistry()
        default = reg.histogram("repro_t_seconds", "T.", span="tick")
        custom = reg.histogram(
            "repro_t_seconds", "T.", buckets=(1.0, 60.0), span="train"
        )
        assert default.buckets == tuple(DEFAULT_TIME_BUCKETS)
        assert custom.buckets == (1.0, 60.0)
        custom.observe(30.0)
        assert custom.cumulative_counts() == [0, 1, 1]
        # The override binds at child creation; later lookups without
        # buckets get the existing child back unchanged.
        again = reg.histogram("repro_t_seconds", "T.", span="train")
        assert again is custom and again.buckets == (1.0, 60.0)

    def test_train_buckets_extend_past_default_ceiling(self):
        from repro.obs import TRAIN_TIME_BUCKETS

        assert TRAIN_TIME_BUCKETS[-1] > DEFAULT_TIME_BUCKETS[-1]
        assert list(TRAIN_TIME_BUCKETS) == sorted(TRAIN_TIME_BUCKETS)


# -- tracing -----------------------------------------------------------------


class TestTracer:
    def test_span_aggregates(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("phase.a", batch=10):
            pass
        with tracer.span("phase.a", batch=5):
            pass
        stats = tracer.stats()["phase.a"]
        assert stats.count == 2
        assert stats.batch_total == 15
        assert stats.total_seconds >= stats.max_seconds > 0.0

    def test_span_records_on_exception(self):
        tracer = Tracer(MetricsRegistry())
        with pytest.raises(RuntimeError):
            with tracer.span("phase.boom"):
                raise RuntimeError("die slowly")
        assert tracer.stats()["phase.boom"].count == 1

    def test_set_batch_inside_body(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("phase.a") as span:
            span.set_batch(7)
        assert tracer.stats()["phase.a"].batch_total == 7

    def test_spans_mirror_into_registry(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        with tracer.span("phase.a", batch=3):
            pass
        snap = reg.snapshot()
        assert "repro_span_seconds" in snap
        assert "repro_span_batch_total" in snap

    def test_render_sorted_by_total(self):
        tracer = Tracer(MetricsRegistry())
        tracer.record("fast", 0.001, 1)
        tracer.record("slow", 1.0, 1)
        lines = tracer.render().splitlines()
        assert lines.index(next(l for l in lines if "slow" in l)) < lines.index(
            next(l for l in lines if "fast" in l)
        )


# -- event log ---------------------------------------------------------------


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog(capacity=8)
        log.emit("qa_breach", tick=3, stream="a", window_mse=4.0)
        log.emit("retrain_order", tick=3, stream="a")
        log.emit("qa_breach", tick=5, stream="b", window_mse=9.0)
        breaches = log.records(kind="qa_breach")
        assert [e.stream for e in breaches] == ["a", "b"]
        assert log.records(kind="qa_breach", stream="b")[0].data == {
            "window_mse": 9.0
        }

    def test_ring_eviction_keeps_sequence(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tickle", tick=i)
        assert len(log) == 4
        assert log.total_emitted == 10
        assert log.dropped == 6
        # Oldest retained event is seq 6: numbering survives eviction.
        assert [e.seq for e in log.records()] == [6, 7, 8, 9]

    def test_tail(self):
        log = EventLog(capacity=8)
        for i in range(5):
            log.emit("tickle", tick=i)
        assert [e.tick for e in log.tail(2)] == [3, 4]
        assert log.tail(0) == ()

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_snapshot_round_trips_through_json(self):
        log = EventLog(capacity=4)
        log.emit("qa_breach", tick=1, stream="a", window_mse=2.5)
        snap = json.loads(json.dumps(log.snapshot()))
        assert snap["events"][0]["kind"] == "qa_breach"
        assert snap["events"][0]["data"]["window_mse"] == 2.5

    def test_wraparound_keeps_emission_order(self):
        """After the ring laps, reads stay oldest-first with no holes."""
        log = EventLog(capacity=3)
        for i in range(8):
            log.emit("even" if i % 2 == 0 else "odd", tick=i)
        assert [e.tick for e in log.records()] == [5, 6, 7]
        assert [e.seq for e in log] == [5, 6, 7]
        assert [e.tick for e in log.records(kind="odd")] == [5, 7]

    def test_events_carry_wall_and_monotonic_stamps(self):
        import time

        before_wall, before_mono = time.time(), time.perf_counter()
        event = EventLog(capacity=4).emit("qa_breach", tick=1)
        after_wall, after_mono = time.time(), time.perf_counter()
        assert before_wall <= event.wall <= after_wall
        assert before_mono <= event.mono <= after_mono
        doc = event.as_dict()
        assert doc["wall"] == event.wall and doc["mono"] == event.mono

    def test_snapshot_round_trips_through_from_snapshot(self):
        log = EventLog(capacity=4)
        log.emit("qa_breach", tick=3, stream="a", window_mse=2.5)
        log.emit("retrain_order", tick=3, stream="a")
        restored = EventLog.from_snapshot(
            json.loads(json.dumps(log.snapshot()))
        )
        assert [e.as_dict() for e in restored] == [
            e.as_dict() for e in log
        ]
        assert restored.total_emitted == 2 and restored.dropped == 0

    def test_from_snapshot_loads_pre_upgrade_documents(self):
        """Old snapshots carry no wall/mono stamps; they load as 0.0."""
        restored = EventLog.from_snapshot(
            {
                "capacity": 4,
                "total_emitted": 9,
                "dropped": 7,
                "events": [
                    {
                        "seq": 8,
                        "kind": "qa_breach",
                        "tick": 5,
                        "stream": "a",
                        "data": {"window_mse": 9.0},
                    }
                ],
            }
        )
        (event,) = restored.records()
        assert event.wall == 0.0 and event.mono == 0.0
        assert event.data == {"window_mse": 9.0}
        assert restored.total_emitted == 9 and restored.dropped == 7


# -- telemetry facade --------------------------------------------------------


class TestTelemetry:
    def test_enabled_facade_wires_legs_together(self):
        tel = Telemetry()
        with tel.tracer.span("phase.a", batch=1):
            pass
        tel.events.emit("tickle", tick=1)
        snap = tel.snapshot()
        assert snap["enabled"] is True
        assert "phase.a" in snap["spans"]
        assert snap["events"]["total_emitted"] == 1


# -- exporters ---------------------------------------------------------------


class TestPrometheusExport:
    def test_golden_exposition(self):
        """Exact text for a tiny registry, pinned as a golden value."""
        reg = MetricsRegistry()
        reg.counter("repro_ticks_total", "Ticks.").inc(3)
        reg.gauge("repro_streams", "Streams.", shard="a").set(2)
        reg.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        ).observe(0.5)
        assert prometheus_text(reg) == (
            "# HELP repro_lat_seconds Latency.\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{le="0.1"} 0\n'
            'repro_lat_seconds_bucket{le="1"} 1\n'
            'repro_lat_seconds_bucket{le="+Inf"} 1\n'
            "repro_lat_seconds_sum 0.5\n"
            "repro_lat_seconds_count 1\n"
            "# HELP repro_streams Streams.\n"
            "# TYPE repro_streams gauge\n"
            'repro_streams{shard="a"} 2\n'
            "# HELP repro_ticks_total Ticks.\n"
            "# TYPE repro_ticks_total counter\n"
            "repro_ticks_total 3\n"
        )

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "X.", stream='we"ird\\na\nme').inc()
        text = prometheus_text(reg)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("repro_ticks_total", "Ticks.").inc(7)
        reg.gauge("repro_streams", "Streams.", shard="a").set(2)
        parsed = parse_prometheus_text(prometheus_text(reg))
        assert parsed[("repro_ticks_total", ())] == 7.0
        assert parsed[("repro_streams", (("shard", "a"),))] == 2.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not exposition format\n")

    def test_escaped_label_values_round_trip(self):
        """Backslash, newline and quote survive exposition -> parse."""
        gnarly = 'we"ird\\na\nme'
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "X.", stream=gnarly).inc(2)
        parsed = parse_prometheus_text(prometheus_text(reg))
        assert parsed[("repro_x_total", (("stream", gnarly),))] == 2.0

    def test_custom_buckets_round_trip_with_inf_edge(self):
        """Per-child bucket overrides survive exposition -> parse."""
        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.5, 60.0), span="train"
        )
        for v in (0.1, 30.0, 120.0):
            h.observe(v)
        parsed = parse_prometheus_text(prometheus_text(reg))
        labels = lambda le: (("le", le), ("span", "train"))
        assert parsed[("repro_lat_seconds_bucket", labels("0.5"))] == 1.0
        assert parsed[("repro_lat_seconds_bucket", labels("60"))] == 2.0
        # The 120 s observation only lands in the implicit +Inf bucket.
        assert parsed[("repro_lat_seconds_bucket", labels("+Inf"))] == 3.0
        assert parsed[("repro_lat_seconds_count", (("span", "train"),))] == 3.0

    def test_json_snapshot_embeds_extra(self):
        tel = Telemetry()
        tel.registry.counter("repro_x_total", "X.").inc()
        snap = json_snapshot(tel, extra={"fleet": {"n_streams": 3}})
        json.dumps(snap)
        assert snap["fleet"] == {"n_streams": 3}
        assert snap["telemetry"]["enabled"] is True


# -- fleet wiring ------------------------------------------------------------


def storm_fleet(*, batched=True, telemetry=True, **config_overrides):
    """A drift-storm fleet: half the streams breach QA mid-run."""
    config = small_config(**config_overrides)
    fleet = PredictionFleet(
        config, streams=["a", "b", "c", "d"], telemetry=telemetry
    )
    feeds = drift_feeds(fleet.stream_names, 160, drift_at=80)
    serve(fleet, feeds, 0, 160, batched=batched)
    return fleet


class TestFleetTelemetry:
    def test_disabled_by_default(self):
        fleet = PredictionFleet(small_config())
        assert fleet.telemetry is None

    def test_telemetry_true_builds_registry(self):
        fleet = PredictionFleet(small_config(), telemetry=True)
        assert fleet.telemetry is not None

    def test_explicit_instance_used_as_is(self):
        tel = Telemetry()
        fleet = PredictionFleet(small_config(), telemetry=tel)
        assert fleet.telemetry is tel

    @pytest.mark.parametrize(
        "value",
        ["yes", 1, 0, 1.0, np.bool_(True), MetricsRegistry()],
        ids=["str", "one", "zero", "float", "numpy-bool", "registry"],
    )
    def test_rejects_what_is_not_telemetry(self, value):
        with pytest.raises(
            ConfigurationError, match="None, a bool or a Telemetry"
        ):
            PredictionFleet(small_config(), telemetry=value)

    def test_drift_storm_traces_both_engines(self):
        """Acceptance: per-phase spans for tick AND train engines."""
        fleet = storm_fleet()
        spans = set(fleet.telemetry.tracer.stats())
        assert {
            "tick.zscore", "tick.pca_project", "tick.knn_query",
            "tick.pool_dispatch", "tick.window_stack", "tick.audit",
            "tick.label_pool", "tick.memory_learn",
        } <= spans
        assert {
            "train.zscore_fit", "train.ar_fit", "train.labelling",
            "train.pca_eigh", "train.rebuild",
        } <= spans
        # Batch sizes rode along with the spans.
        assert fleet.telemetry.tracer.stats()["tick.knn_query"].batch_total > 0

    @pytest.mark.parametrize("batched", [True, False])
    def test_warmup_ticks_record_a_warmup_span(self, batched):
        """A tick with cold streams records ``tick.warmup`` over them
        (not ``tick.per_stream_loop``); a tick of trained streams only
        records no new span."""
        config = small_config(auto_retrain=False)
        fleet = PredictionFleet(
            config, streams=["a", "b", "c"], telemetry=True
        )
        feeds = drift_feeds(["a", "b", "c", "d"], 60, drift_at=60)
        stats = fleet.telemetry.tracer.stats
        for t in range(config.min_train):
            fleet.ingest(
                {n: feeds[n][t] for n in ("a", "b", "c")}, batched=batched
            )
        assert stats()["tick.warmup"].count == config.min_train
        assert stats()["tick.warmup"].batch_total == 3 * config.min_train
        assert "tick.per_stream_loop" not in stats()
        fleet.run_pending_retrains(batched=batched)
        before = {name: s.count for name, s in stats().items()}
        fleet.ingest(
            {n: feeds[n][30] for n in ("a", "b", "c")}, batched=batched
        )
        assert stats()["tick.warmup"].count == before["tick.warmup"]
        fleet.add_stream("d")
        fleet.ingest({n: feeds[n][31] for n in "abcd"}, batched=batched)
        assert stats()["tick.warmup"].count == before["tick.warmup"] + 1
        assert stats()["tick.warmup"].batch_total == (
            3 * config.min_train + 1
        )

    def test_drift_storm_logs_breaches_and_retrains(self):
        """Acceptance: every QA breach and deferral appears in the log."""
        fleet = storm_fleet(max_retrains_per_tick=1)
        events = fleet.telemetry.events
        breaches = events.records(kind="qa_breach")
        assert len(breaches) > 0
        total_breaches = sum(
            s.qa.breaches_total for s in fleet._streams.values()
        )
        assert len(breaches) == total_breaches
        deferrals = events.records(kind="retrain_deferred")
        assert len(deferrals) == fleet.metrics().deferred_retrains
        assert len(deferrals) > 0
        assert len(events.records(kind="retrain_complete")) > 0

    def test_counters_match_fleet_state(self):
        fleet = storm_fleet()
        reg = fleet.telemetry.registry
        snap = reg.snapshot()
        m = fleet.metrics()
        get = lambda name: snap[name]["series"][0]["value"]
        # The ticks counter counts ingest calls; total_ticks sums the
        # per-stream tick counters.
        assert get("repro_fleet_ticks_total") * m.n_streams == m.total_ticks
        assert get("repro_fleet_retrains_total") == m.total_retrains
        assert get("repro_fleet_streams") == m.n_streams
        assert get("repro_fleet_qa_audits_total") == sum(
            s.audits for s in m.streams
        )
        assert get("repro_fleet_qa_breaches_total") == sum(
            s.breaches for s in m.streams
        )

    def test_batched_vs_loop_telemetry_parity(self):
        """Fleet counters and the event narrative are path-independent:
        the engine's one ``_note_audits`` call per tick (the tick's
        audit count, breach events only) lands where the per-stream
        loop's one call per audit does."""
        batched = storm_fleet(batched=True, max_retrains_per_tick=1)
        loop = storm_fleet(batched=False, max_retrains_per_tick=1)

        def fleet_counters(fleet):
            out = {}
            for family in fleet.telemetry.registry.families():
                if not family.name.startswith("repro_fleet_"):
                    continue  # span metrics differ per path by design
                for labels, child in sorted(family.children.items()):
                    out[(family.name, labels)] = child.value
            return out

        assert fleet_counters(batched) == fleet_counters(loop)

        def narrative(fleet):
            # Sorted by (tick, kind, stream): the two paths emit the
            # same events per tick but interleave streams differently
            # within one, and intra-tick order carries no contract.
            return sorted(
                (e.tick, e.kind, e.stream, tuple(sorted(e.data.items())))
                for e in fleet.telemetry.events.records()
            )

        assert narrative(batched) == narrative(loop)

    def test_selection_counters_settle_lazily(self):
        """``state.selections`` dict bumps surface as labelled counters
        on every registry read, with idempotent repeat flushes."""
        fleet = PredictionFleet(
            small_config(), streams=["a", "b"], telemetry=True
        )
        fleet._streams["a"].selections = {"AR": 2, "LAST": 1}
        fleet._streams["b"].selections = {"SW_AVG": 3}

        def selections(fleet):
            out = {}
            for family in fleet.telemetry.registry.families():
                if family.name != "repro_fleet_selections_total":
                    continue
                for labels, child in sorted(family.children.items()):
                    out[labels] = child.value
            return out

        first = selections(fleet)
        assert sum(first.values()) == 6
        assert first[
            (("predictor", "AR"), ("stream", "a"))
        ] == 2
        # Re-reading without new ticks must not double-count.
        assert selections(fleet) == first
        # New ticks surface as deltas on the same children.
        fleet._streams["a"].selections["AR"] = 5
        after = selections(fleet)
        assert after[(("predictor", "AR"), ("stream", "a"))] == 5
        assert sum(after.values()) == 9

    def test_metrics_render_includes_new_columns(self):
        fleet = storm_fleet(max_retrains_per_tick=1)
        out = fleet.metrics().render()
        header = out.splitlines()[0]
        assert "deferred" in header and "pending" in header
        assert "audits" in out and "breaches" in out

    def test_metrics_as_dict_json_safe(self):
        fleet = storm_fleet()
        d = fleet.metrics().as_dict()
        json.dumps(d)
        assert d["n_streams"] == 4
        assert d["telemetry"] is not None

    def test_telemetry_off_costs_nothing_visible(self):
        fleet = storm_fleet(telemetry=False)
        m = fleet.metrics()
        assert m.telemetry is None
        assert m.deferred_retrains == 0 or m.deferred_retrains > 0  # tracked
        assert fleet.telemetry is None

    def test_deferred_metric_counts_budget_passes(self):
        fleet = storm_fleet(telemetry=False, max_retrains_per_tick=1)
        # The drift storm breaches more than one stream per tick, so a
        # budget of one must defer at least once.
        assert fleet.metrics().deferred_retrains > 0

    def test_prometheus_export_from_live_fleet_parses(self):
        fleet = storm_fleet()
        text = prometheus_text(fleet.telemetry.registry)
        parsed = parse_prometheus_text(text)
        assert parsed[("repro_fleet_streams", ())] == 4.0
        span_keys = [
            k for k, _ in parsed
            if k.startswith("repro_span_seconds_bucket")
        ]
        assert span_keys


class TestFleetTelemetryPersistence:
    def test_deferred_total_round_trips(self, tmp_path):
        fleet = storm_fleet(telemetry=False, max_retrains_per_tick=1)
        assert fleet.metrics().deferred_retrains > 0
        fleet.save(tmp_path / "fleet")
        clone = PredictionFleet.load(tmp_path / "fleet")
        assert (
            clone.metrics().deferred_retrains
            == fleet.metrics().deferred_retrains
        )

    def test_load_with_telemetry(self, tmp_path):
        fleet = storm_fleet(telemetry=False)
        fleet.save(tmp_path / "fleet")
        clone = PredictionFleet.load(tmp_path / "fleet", telemetry=True)
        assert clone.telemetry is not None
        # The restore itself narrates stream registration.
        adds = clone.telemetry.events.records(kind="stream_add")
        assert len(adds) == len(fleet.stream_names)


# -- predictor-selection counters -------------------------------------------


class TestSelectionCounters:
    def test_labelled_series_match_stream_state(self):
        """Every (stream, predictor) selection the fleet recorded in its
        per-stream state appears as one labelled counter series with the
        same count — and nothing else does."""
        fleet = storm_fleet()
        family = next(
            f
            for f in fleet.telemetry.registry.families()
            if f.name == "repro_fleet_selections_total"
        )
        exported = {
            labels: child.value for labels, child in family.children.items()
        }
        expected = {}
        for name, state in fleet._streams.items():
            for predictor, count in state.selections.items():
                key = tuple(
                    sorted((("predictor", predictor), ("stream", name)))
                )
                expected[key] = float(count)
        assert exported == expected
        assert sum(exported.values()) > 0

    def test_batched_vs_loop_selection_parity(self):
        """The labelled selection series are execution-path-independent,
        series by series (the aggregate fleet-counter parity test would
        miss a label swap)."""

        def selections(fleet):
            family = next(
                f
                for f in fleet.telemetry.registry.families()
                if f.name == "repro_fleet_selections_total"
            )
            return {
                labels: child.value
                for labels, child in family.children.items()
            }

        batched = selections(storm_fleet(batched=True))
        assert batched == selections(storm_fleet(batched=False))
        assert len({labels for labels in batched}) >= 4  # all streams present

    def test_removing_a_stream_drops_its_cached_counters(self):
        fleet = storm_fleet()
        fleet.telemetry.registry.families()  # settle the lazy counters
        assert any(key[0] == "a" for key in fleet._sel_counters)
        fleet.remove_stream("a")
        assert not any(key[0] == "a" for key in fleet._sel_counters)
        # the exported series survive (Prometheus counters never reset)
        family = next(
            f
            for f in fleet.telemetry.registry.families()
            if f.name == "repro_fleet_selections_total"
        )
        assert any(
            ("stream", "a") in labels for labels in family.children
        )

    def test_no_counters_without_telemetry(self):
        fleet = storm_fleet(telemetry=False)
        assert fleet._sel_counters == {}

    def test_closed_fleet_lets_go_of_a_shared_registry(self):
        """``close()`` settles the selections one last time and drops the
        fleet's collector: the shared registry keeps the series, no
        longer flushes the fleet, and does not keep it alive."""
        import gc
        import weakref

        tel = Telemetry()
        fleet = PredictionFleet(
            small_config(), streams=["a", "b"], telemetry=tel
        )
        feeds = drift_feeds(fleet.stream_names, 60)
        serve(fleet, feeds, 0, 60)
        expected = {
            (name, predictor): float(count)
            for name, state in fleet._streams.items()
            for predictor, count in state.selections.items()
        }
        assert expected
        fleet.close()
        fleet.close()  # idempotent
        assert tel.registry._collectors == []
        ref = weakref.ref(fleet)
        del fleet
        gc.collect()
        assert ref() is None
        family = next(
            f
            for f in tel.registry.families()
            if f.name == "repro_fleet_selections_total"
        )
        exported = {
            (dict(labels)["stream"], dict(labels)["predictor"]): child.value
            for labels, child in family.children.items()
        }
        assert exported == expected


# -- live scrape endpoint ----------------------------------------------------


class TestPrometheusEndpoint:
    def _scrape(self, url):
        import urllib.request

        with urllib.request.urlopen(url, timeout=5) as response:
            return response, response.read().decode("utf-8")

    def test_scrape_round_trips_the_registry(self):
        from repro.obs import serve_prometheus

        reg = MetricsRegistry()
        reg.counter("repro_demo_total", "A demo counter").inc(3)
        reg.gauge("repro_demo_gauge", "A demo gauge", shard="0").set(1.5)
        with serve_prometheus(reg) as endpoint:
            assert endpoint.url.endswith(f":{endpoint.port}/metrics")
            response, body = self._scrape(endpoint.url)
            assert response.headers["Content-Type"].startswith("text/plain")
        parsed = parse_prometheus_text(body)
        assert parsed[("repro_demo_total", ())] == 3.0
        assert parsed[("repro_demo_gauge", (("shard", "0"),))] == 1.5

    def test_scrapes_see_live_updates(self):
        from repro.obs import serve_prometheus

        reg = MetricsRegistry()
        counter = reg.counter("repro_live_total", "")
        with serve_prometheus(reg) as endpoint:
            counter.inc()
            _, first = self._scrape(endpoint.url)
            counter.inc(4)
            _, second = self._scrape(endpoint.url)
        assert parse_prometheus_text(first)[("repro_live_total", ())] == 1.0
        assert parse_prometheus_text(second)[("repro_live_total", ())] == 5.0

    def test_unknown_path_is_404(self):
        import urllib.error
        import urllib.request

        from repro.obs import serve_prometheus

        with serve_prometheus(MetricsRegistry()) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{endpoint.host}:{endpoint.port}/nope", timeout=5
                )
            # The error holds the response socket until closed.
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_healthz_route(self):
        from repro.obs import serve_prometheus

        with serve_prometheus(MetricsRegistry()) as endpoint:
            response, body = self._scrape(
                f"http://{endpoint.host}:{endpoint.port}/healthz"
            )
            assert response.status == 200
            assert body == "ok\n"

    def test_scrape_timestamp_gauge_tracks_scrapes(self):
        import time

        from repro.obs import serve_prometheus

        reg = MetricsRegistry()
        with serve_prometheus(reg) as endpoint:
            before = time.time()
            _, body = self._scrape(endpoint.url)
            after = time.time()
        stamp = parse_prometheus_text(body)[
            ("repro_scrape_timestamp_seconds", ())
        ]
        assert before <= stamp <= after
        # The gauge is part of the registry, so the next exposition
        # (scraped or rendered) carries the last scrape's stamp.
        assert ("repro_scrape_timestamp_seconds", ()) in parse_prometheus_text(
            prometheus_text(reg)
        )

    def test_close_is_idempotent_and_stops_serving(self):
        import urllib.error
        import urllib.request

        from repro.obs import serve_prometheus

        endpoint = serve_prometheus(MetricsRegistry())
        endpoint.close()
        endpoint.close()
        assert "closed" in repr(endpoint)
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(endpoint.url, timeout=1)

    def test_live_fleet_scrape_parses(self):
        from repro.obs import serve_prometheus

        fleet = storm_fleet()
        with serve_prometheus(fleet.telemetry.registry) as endpoint:
            _, body = self._scrape(endpoint.url)
        parsed = parse_prometheus_text(body)
        assert parsed[("repro_fleet_streams", ())] == 4.0


# -- async retrain pipeline exposition ---------------------------------------


class TestAsyncPipelineExposition:
    """The inflight gauge and pipeline events reach every export surface."""

    def _async_storm(self):
        """An async-mode storm fleet paused mid-flight."""
        config = small_config(retrain_mode="async", auto_retrain=False)
        fleet = PredictionFleet(
            config, streams=["a", "b", "c", "d"], telemetry=True
        )
        feeds = drift_feeds(fleet.stream_names, 240, drift_at=80)
        with inline_pool():
            serve(fleet, feeds, 0, 60)  # warm-up + initial trains
            fleet.drain_retrains(wait=True)
            # Ingest-only through the drift so due streams pile up
            # instead of being consumed by the per-tick retrain call.
            t = 60
            while not fleet.pending_retrains and t < 240:
                fleet.forecast_all()
                fleet.ingest({n: feeds[n][t] for n in fleet.stream_names})
                t += 1
            assert fleet.pending_retrains
            fleet.run_pending_retrains()
        return fleet

    def test_inflight_gauge_round_trips_mid_flight(self):
        fleet = self._async_storm()
        inflight = fleet.metrics().inflight_retrains
        assert inflight > 0
        parsed = parse_prometheus_text(
            prometheus_text(fleet.telemetry.registry)
        )
        assert parsed[("repro_fleet_retrains_inflight", ())] == float(inflight)
        fleet.drain_retrains(wait=True)
        parsed = parse_prometheus_text(
            prometheus_text(fleet.telemetry.registry)
        )
        assert parsed[("repro_fleet_retrains_inflight", ())] == 0.0

    def test_endpoint_scrape_carries_the_gauge(self):
        import urllib.request

        from repro.obs import serve_prometheus

        fleet = self._async_storm()
        inflight = fleet.metrics().inflight_retrains
        with serve_prometheus(fleet.telemetry.registry) as endpoint:
            with urllib.request.urlopen(endpoint.url, timeout=5) as response:
                body = response.read().decode("utf-8")
        parsed = parse_prometheus_text(body)
        assert parsed[("repro_fleet_retrains_inflight", ())] == float(inflight)
        fleet.drain_retrains(wait=True)

    def test_pipeline_events_reach_snapshot_and_summary(self):
        fleet = self._async_storm()
        fleet.drain_retrains(wait=True)
        tel = fleet.telemetry
        kinds = {e.kind for e in tel.events.tail(64)}
        assert {"retrain_submitted", "retrain_integrated"} <= kinds
        # The JSON export surface carries the same events...
        doc = json_snapshot(tel)
        exported = {
            e["kind"] for e in doc["telemetry"]["events"]["events"]
        }
        assert {"retrain_submitted", "retrain_integrated"} <= exported
        # ...and the summary header carries the gauge's column.
        assert "in flight" in fleet.metrics().render()
