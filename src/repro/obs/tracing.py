"""Phase-level tracing spans for the serving hot paths.

A *span* measures one named phase of work — one ``with`` block around a
kernel (``tick.knn_query``, ``train.pca_eigh``, ...) — and records its
wall time and the number of items it covered. The :class:`Tracer`
aggregates per phase name (call count, total/min/max seconds, total and
last batch size) and mirrors every observation into the owning
registry as a ``repro_span_seconds`` histogram plus
``repro_span_batch_total`` counter, so span data travels through the
same exporters as every other metric.

Spans are deliberately synchronous and un-nested-aware: the serving
engines are single-threaded batch kernels, so a stack of span contexts
(parent ids, trace ids) would be bookkeeping without a consumer. If a
span's body raises, the time up to the raise is still recorded — a
phase that dies slowly should look slow.

There is no disabled tracer: with telemetry off the hot paths hold
``None`` and skip every span without reading the clock.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.registry import (
    TRAIN_TIME_BUCKETS,
    MetricsRegistry,
)

__all__ = ["Span", "PhaseStats", "Tracer"]


class PhaseStats:
    """Aggregate of every completed span with one name."""

    __slots__ = (
        "count", "total_seconds", "min_seconds", "max_seconds",
        "last_seconds", "batch_total", "last_batch",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.last_seconds = 0.0
        self.batch_total = 0
        self.last_batch = 0

    def add(self, seconds: float, batch: int | None) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        self.last_seconds = seconds
        if batch is not None:
            self.batch_total += batch
            self.last_batch = batch

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "last_seconds": self.last_seconds,
            "batch_total": self.batch_total,
            "last_batch": self.last_batch,
        }


class Span:
    """One timed phase; use as a context manager."""

    __slots__ = ("_tracer", "name", "batch", "_t0")

    def __init__(self, tracer: "Tracer", name: str, batch: int | None):
        self._tracer = tracer
        self.name = name
        self.batch = batch
        self._t0 = 0.0

    def set_batch(self, batch: int) -> None:
        """Set the item count after the fact (inside the ``with`` body)."""
        self.batch = batch

    def __enter__(self) -> "Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.record(self.name, perf_counter() - self._t0, self.batch)


class Tracer:
    """Per-phase span aggregation bound to one registry.

    Beyond the sum/count :class:`PhaseStats` and the registry mirror,
    every observation lands, when a flight recorder is attached, as a
    per-occurrence :class:`~repro.obs.flight.SpanRecord` in its ring,
    which :func:`~repro.obs.flight.span_quantiles` reads for tail
    latency. ``train.*`` spans use
    :data:`~repro.obs.registry.TRAIN_TIME_BUCKETS` inside the shared
    ``repro_span_seconds`` family; everything else keeps the
    tick-scale default edges.
    """

    def __init__(self, registry: MetricsRegistry, flight=None):
        self._registry = registry
        self._flight = flight
        self._phases: dict[str, PhaseStats] = {}
        # (stats, histogram, counter) cached per name — the registry
        # lookup (sort + dict hops) is measurable at tick rate.
        self._cache: dict[str, tuple] = {}

    def attach_flight(self, flight) -> None:
        """Feed per-occurrence records into *flight* from now on."""
        self._flight = flight

    @property
    def flight(self):
        return self._flight

    def span(self, name: str, *, batch: int | None = None) -> Span:
        """A new span for phase *name* covering *batch* items."""
        return Span(self, name, batch)

    def _entry(self, name: str) -> tuple:
        """Build (and cache) one (stats, hist, counter) row."""
        stats = self._phases[name] = PhaseStats()
        buckets = TRAIN_TIME_BUCKETS if name.startswith("train.") else None
        hist = self._registry.histogram(
            "repro_span_seconds",
            "Wall time per tracing span.",
            buckets=buckets,
            span=name,
        )
        counter = self._registry.counter(
            "repro_span_batch_total",
            "Items covered by tracing spans.",
            span=name,
        )
        entry = (stats, hist, counter)
        self._cache[name] = entry
        return entry

    def record(
        self,
        name: str,
        seconds: float,
        batch: int | None = None,
        *,
        start: float | None = None,
    ) -> None:
        """Record one completed phase directly (what spans call on exit).

        The hot loops use this with their own ``perf_counter()`` reads
        when a ``with`` block per phase would cost more than the phase's
        bookkeeping. *start* (a ``perf_counter()`` value) places the
        record exactly on the flight timeline; when omitted the record
        is assumed to have just ended.
        """
        entry = self._cache.get(name)
        if entry is None:
            entry = self._entry(name)
        stats, hist, counter = entry
        stats.add(seconds, batch)
        hist.observe(seconds)
        if batch is not None:
            counter.inc(batch)
        if self._flight is not None:
            if start is None:
                start = perf_counter() - seconds
            self._flight.record(name, start, seconds, batch)

    def stats(self) -> dict[str, PhaseStats]:
        """Live per-phase aggregates (insertion-ordered by first use)."""
        return dict(self._phases)

    def snapshot(self) -> dict:
        """JSON-safe per-phase aggregates."""
        return {name: s.as_dict() for name, s in self._phases.items()}

    def render(self) -> str:
        """Fixed-width phase table (sorted by total time, descending)."""
        from repro.experiments.report import format_table

        rows = [
            [
                name,
                s.count,
                s.total_seconds,
                1e3 * s.total_seconds / s.count if s.count else 0.0,
                s.batch_total,
                s.batch_total / s.total_seconds if s.total_seconds else 0.0,
            ]
            for name, s in sorted(
                self._phases.items(),
                key=lambda item: -item[1].total_seconds,
            )
        ]
        return format_table(
            ["phase", "calls", "total s", "mean ms", "items", "items/sec"],
            rows,
            precision=3,
            title="Phase spans",
        )
