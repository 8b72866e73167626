"""Near-zero-overhead telemetry for the serving stack (``repro.obs``).

The Prediction Quality Assuror already monitors the *model* (paper
§3.2); this package monitors the *system serving it*: where a fleet
tick spends its time, how often QA audits breach, which retrains the
budget deferred. Three legs, bundled by :class:`Telemetry`:

* a process-local metrics registry — counters, gauges, fixed-bucket
  histograms (:mod:`repro.obs.registry`);
* phase-level tracing spans over the batched tick/train engines and
  their per-stream fallbacks (:mod:`repro.obs.tracing`);
* a bounded structured event log (:mod:`repro.obs.events`);
* an optional flight recorder — a bounded ring of per-occurrence span
  records with exact p50/p95/p99 per span name over the ring, an
  anomaly trigger that dumps the ring on QA-breach storms / latency
  spikes / broken worker pools, and a Chrome trace-event exporter
  (:mod:`repro.obs.flight`);

plus exporters (:mod:`repro.obs.exporters`): Prometheus text exposition
and JSON snapshots.

Enable it on a fleet with ``PredictionFleet(config, telemetry=True)``.
Telemetry is on or off: off (the default) is ``None``, both on
``fleet.telemetry`` and inside the serving hot loops, which skip every
hook behind a single ``is not None`` check.
"""

from repro.obs.events import Event, EventLog
from repro.obs.flight import (
    AnomalyTrigger,
    FlightRecorder,
    SpanRecord,
    chrome_trace,
    render_span_quantiles,
    span_quantiles,
    write_chrome_trace,
)
from repro.obs.exporters import (
    PrometheusEndpoint,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
    serve_prometheus,
    write_json,
    write_prometheus,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    TRAIN_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import PhaseStats, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "TRAIN_TIME_BUCKETS",
    "SpanRecord",
    "FlightRecorder",
    "AnomalyTrigger",
    "chrome_trace",
    "write_chrome_trace",
    "span_quantiles",
    "render_span_quantiles",
    "Span",
    "PhaseStats",
    "Tracer",
    "Event",
    "EventLog",
    "Telemetry",
    "prometheus_text",
    "parse_prometheus_text",
    "json_snapshot",
    "write_json",
    "write_prometheus",
    "serve_prometheus",
    "PrometheusEndpoint",
]
