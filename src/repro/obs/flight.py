"""Flight recorder: a bounded ring of per-occurrence span records.

Aggregates (:class:`~repro.obs.tracing.PhaseStats`, histograms) answer
"how much, on average"; the flight recorder answers "what was the
system doing in the seconds before things went wrong". Every completed
span lands in a fixed-capacity ring as a :class:`SpanRecord` — name,
monotonic start, duration, batch size and fleet tick — cheap enough to
leave on in production and bounded so a fleet serving millions of ticks
holds only the recent past.

Four consumers:

* :func:`span_quantiles` / :func:`render_span_quantiles` — exact
  p50/p95/p99 per span name over the retained records
  (``repro obs --quantiles``);
* :func:`chrome_trace` / :func:`write_chrome_trace` — render the ring
  (plus the structured event log) as a Chrome trace-event JSON document
  that loads in ``chrome://tracing`` and Perfetto, every span on the
  main lane.
* :class:`AnomalyTrigger` — watches the live ring and the fleet's QA
  stream; on a QA-breach storm, a phase-latency spike over the rolling
  baseline, or a broken worker pool it snapshots the ring + event log +
  metrics (and the Chrome trace) into a dump directory before the
  evidence scrolls off.
* ``repro obs --trace-out`` and flight dumps — offline inspection.

Timebase: records carry ``time.perf_counter()`` values. The recorder
pins a (wall, monotonic) anchor pair at construction so exports can map
monotonic starts onto wall-clock time.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from time import perf_counter, time
from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "SpanRecord",
    "FlightRecorder",
    "AnomalyTrigger",
    "span_quantiles",
    "render_span_quantiles",
    "chrome_trace",
    "write_chrome_trace",
]


class SpanRecord(NamedTuple):
    """One completed span occurrence.

    ``start`` is in ``perf_counter()`` seconds (same timebase as the
    owning :class:`FlightRecorder`'s ``mono_anchor``). ``shard`` is
    always ``None``: every span runs in the serving process. The field
    stays so readers of the record shape (and of older dumps, which
    could carry a worker index) keep working.
    """

    name: str
    start: float
    duration: float
    batch: int | None
    tick: int
    shard: int | None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "batch": self.batch,
            "tick": self.tick,
            "shard": self.shard,
        }


class FlightRecorder:
    """Fixed-capacity ring of :class:`SpanRecord` occurrences."""

    def __init__(self, capacity: int = 4096):
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigurationError(
                f"flight recorder capacity must be a positive integer, "
                f"got {capacity!r}"
            )
        self.capacity = capacity
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self._total = 0
        self._dropped = 0
        self.tick = 0
        #: Wall-clock seconds at the monotonic anchor instant — exports
        #: map a record's monotonic ``start`` to wall time via
        #: ``wall_anchor + (start - mono_anchor)``.
        self.wall_anchor = time()
        self.mono_anchor = perf_counter()
        #: Callables invoked with each new record (anomaly detectors).
        self.listeners: list = []

    def set_tick(self, tick: int) -> None:
        """Stamp subsequent records with the fleet's ingest-tick index."""
        self.tick = tick

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        batch: int | None = None,
    ) -> None:
        """Append one span occurrence (evicting the oldest when full)."""
        rec = SpanRecord(name, start, duration, batch, self.tick, None)
        self._total += 1
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(rec)
        for listener in self.listeners:
            listener(rec)

    # -- reading -------------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Records ever taken (including evicted ones)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Records evicted from the ring so far."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._ring)

    def records(self, *, name: str | None = None) -> tuple[SpanRecord, ...]:
        """Retained records, oldest first, optionally filtered by name."""
        if name is None:
            return tuple(self._ring)
        return tuple(r for r in self._ring if r.name == name)

    def clear(self) -> None:
        """Drop retained records (totals keep counting)."""
        self._ring.clear()

    def snapshot(self) -> dict:
        """JSON-safe dump of the ring plus anchors and loss accounting."""
        return {
            "capacity": self.capacity,
            "total_recorded": self._total,
            "dropped": self._dropped,
            "wall_anchor": self.wall_anchor,
            "mono_anchor": self.mono_anchor,
            "records": [r.as_dict() for r in self._ring],
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"retained={len(self._ring)}, total={self._total}, "
            f"dropped={self._dropped})"
        )


# -- tail latency over the ring ---------------------------------------------


def span_quantiles(flight: FlightRecorder) -> dict[str, dict]:
    """Per span name, the ``count`` of retained records and the
    ``p50`` / ``p95`` / ``p99`` of their durations in seconds.

    Exact (``np.percentile``, linear interpolation) over the records the
    ring still holds: a run longer than the ring reports its most recent
    ``capacity`` spans, not the whole run.
    """
    durations: dict[str, list[float]] = {}
    for rec in flight.records():
        durations.setdefault(rec.name, []).append(rec.duration)
    out = {}
    for name, values in durations.items():
        p50, p95, p99 = np.percentile(values, (50, 95, 99)).tolist()
        out[name] = {"count": len(values), "p50": p50, "p95": p95, "p99": p99}
    return out


def render_span_quantiles(flight: FlightRecorder) -> str:
    """Fixed-width :func:`span_quantiles` table in milliseconds, the
    highest p99 first."""
    from repro.experiments.report import format_table

    rows = [
        [name, q["count"], 1e3 * q["p50"], 1e3 * q["p95"], 1e3 * q["p99"]]
        for name, q in sorted(
            span_quantiles(flight).items(), key=lambda item: -item[1]["p99"]
        )
    ]
    return format_table(
        ["phase", "obs", "p50 ms", "p95 ms", "p99 ms"],
        rows,
        precision=3,
        title=(
            f"Phase latency quantiles (last {len(flight)} of "
            f"{flight.total_recorded} spans)"
        ),
    )


# -- Chrome trace-event export ----------------------------------------------


def chrome_trace(
    flight: FlightRecorder,
    events=None,
    *,
    process_name: str = "repro-fleet",
) -> dict:
    """Render *flight* (plus optional event log) as Chrome trace JSON.

    The result loads in ``chrome://tracing`` and Perfetto: complete
    (``ph="X"``) events with microsecond timestamps on thread lane 0,
    and event-log entries as instant (``ph="i"``) markers. Timestamps
    are relative to the recorder's monotonic anchor.
    """
    anchor = flight.mono_anchor
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "main"},
        },
    ]
    for rec in flight.records():
        args: dict = {"tick": rec.tick}
        if rec.batch is not None:
            args["batch"] = rec.batch
        trace_events.append(
            {
                "name": rec.name,
                "cat": rec.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": (rec.start - anchor) * 1e6,
                "dur": rec.duration * 1e6,
                "args": args,
            }
        )
    if events is not None:
        for event in events:
            mono = getattr(event, "mono", 0.0)
            if not mono:
                continue  # pre-upgrade snapshot entries carry no stamp
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "p",
                    "pid": 1,
                    "tid": 0,
                    "ts": (mono - anchor) * 1e6,
                    "args": {
                        "tick": event.tick,
                        "stream": event.stream,
                        **event.data,
                    },
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {
            "wall_anchor": flight.wall_anchor,
            "mono_anchor": flight.mono_anchor,
        },
    }


def write_chrome_trace(path, flight: FlightRecorder, events=None) -> Path:
    """Write :func:`chrome_trace` to *path*; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(flight, events)) + "\n")
    return path


# -- anomaly trigger ---------------------------------------------------------


class AnomalyTrigger:
    """Snapshot the flight ring to disk when the fleet misbehaves.

    Three trip wires:

    * **QA-breach storm** — the fleet reports its per-tick breach count
      via :meth:`note_breaches`; ``breach_storm`` or more in one tick
      trips the trigger.
    * **Phase-latency spike** — the trigger listens on the flight ring
      and keeps an exponential moving baseline per phase name; once a
      phase has ``spike_min_count`` observations, a record slower than
      ``spike_factor`` times its baseline trips it.
    * **Broken worker pool** — registered as a pool-failure hook (see
      ``repro.parallel.pool_exec``); a ``BrokenProcessPool`` during a
      training burst trips it before the pool is torn down.

    Each trip writes ``flight-NNN-<reason>/`` under *directory* holding
    ``dump.json`` (reason + detail, flight ring, event log, metrics,
    span aggregates, :func:`span_quantiles` of the ring) and
    ``trace.json`` (the Chrome trace). Re-trips within
    ``cooldown_ticks`` fleet ticks are counted but not dumped, so one
    bad stretch can't fill the disk.
    """

    def __init__(
        self,
        directory,
        telemetry,
        *,
        breach_storm: int = 8,
        spike_factor: float = 8.0,
        spike_min_count: int = 32,
        cooldown_ticks: int = 64,
        extra: dict | None = None,
    ):
        if breach_storm < 1:
            raise ConfigurationError(
                f"breach_storm must be >= 1, got {breach_storm!r}"
            )
        if spike_factor <= 1.0:
            raise ConfigurationError(
                f"spike_factor must be > 1, got {spike_factor!r}"
            )
        flight = getattr(telemetry, "flight", None)
        if flight is None:
            raise ConfigurationError(
                "AnomalyTrigger needs telemetry with a flight recorder "
                "(Telemetry(flight=True) or enable_flight())"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tel = telemetry
        self._flight = flight
        self.breach_storm = breach_storm
        self.spike_factor = spike_factor
        self.spike_min_count = spike_min_count
        self.cooldown_ticks = cooldown_ticks
        self._extra = dict(extra) if extra else {}
        self._baselines: dict[str, list] = {}  # name -> [count, ema]
        self._last_trigger_tick: int | None = None
        self._seq = 0
        #: Dump directories written so far, oldest first.
        self.dumps: list[Path] = []
        #: Trips suppressed by the cooldown window.
        self.suppressed = 0
        flight.listeners.append(self._on_record)
        from repro.parallel.pool_exec import register_pool_failure_hook

        register_pool_failure_hook(self._on_pool_broken)
        self._closed = False

    # -- trip wires ----------------------------------------------------------

    def note_breaches(self, count: int, *, tick: int | None = None) -> None:
        """Report one tick's QA-breach count (fleet calls this per tick)."""
        if count >= self.breach_storm:
            self.trigger("qa_breach_storm", breaches=count, tick=tick)

    def _on_record(self, rec: SpanRecord) -> None:
        base = self._baselines.get(rec.name)
        if base is None:
            self._baselines[rec.name] = [1, rec.duration]
            return
        count, ema = base
        if (
            count >= self.spike_min_count
            and ema > 0.0
            and rec.duration > self.spike_factor * ema
        ):
            self.trigger(
                "phase_spike",
                phase=rec.name,
                duration=rec.duration,
                baseline=ema,
            )
        base[0] = count + 1
        base[1] = ema + 0.05 * (rec.duration - ema)

    def _on_pool_broken(self, exc: BaseException) -> None:
        self.trigger("broken_pool", error=repr(exc))

    # -- dumping -------------------------------------------------------------

    def trigger(self, reason: str, **detail) -> Path | None:
        """Trip manually; returns the dump directory or ``None`` if cooling
        down."""
        tick = self._flight.tick
        if (
            self._last_trigger_tick is not None
            and tick - self._last_trigger_tick < self.cooldown_ticks
        ):
            self.suppressed += 1
            return None
        self._last_trigger_tick = tick
        self._seq += 1
        dump_dir = self.directory / f"flight-{self._seq:03d}-{reason}"
        dump_dir.mkdir(parents=True, exist_ok=True)
        detail = {k: v for k, v in detail.items() if v is not None}
        doc = {
            "reason": reason,
            "detail": detail,
            "wall_time": time(),
            "tick": tick,
            "flight": self._flight.snapshot(),
            "events": self._tel.events.snapshot(),
            "metrics": self._tel.registry.snapshot(),
            "spans": self._tel.tracer.snapshot(),
            "quantiles": span_quantiles(self._flight),
        }
        if self._extra:
            doc["extra"] = self._extra
        (dump_dir / "dump.json").write_text(json.dumps(doc, indent=2) + "\n")
        write_chrome_trace(
            dump_dir / "trace.json", self._flight, self._tel.events
        )
        self.dumps.append(dump_dir)
        return dump_dir

    def close(self) -> None:
        """Detach from the flight ring and the pool-failure hooks."""
        if self._closed:
            return
        self._closed = True
        try:
            self._flight.listeners.remove(self._on_record)
        except ValueError:
            pass
        from repro.parallel.pool_exec import unregister_pool_failure_hook

        unregister_pool_failure_hook(self._on_pool_broken)

    def __enter__(self) -> "AnomalyTrigger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AnomalyTrigger(dir={str(self.directory)!r}, "
            f"dumps={len(self.dumps)}, suppressed={self.suppressed})"
        )
