"""The telemetry facade: one object bundling registry, tracer, events.

Instrumented components hold a single ``Telemetry`` reference (or
``None`` when telemetry is off) and reach its three legs:

* :attr:`Telemetry.registry` — the metrics registry
  (:class:`~repro.obs.registry.MetricsRegistry`);
* :attr:`Telemetry.tracer` — phase spans
  (:class:`~repro.obs.tracing.Tracer`), aggregating into the registry;
* :attr:`Telemetry.events` — the bounded structured event ring
  (:class:`~repro.obs.events.EventLog`).

Telemetry is on or off: off is ``None`` everywhere (a fleet's
:attr:`~repro.serving.fleet.PredictionFleet.telemetry` included), and
every hook sits behind an ``is not None`` check, so the disabled cost
is one attribute load and a branch.
"""

from __future__ import annotations

from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Live telemetry: a registry, a tracer feeding it, an event ring.

    Parameters
    ----------
    registry:
        Share an existing registry (e.g. several fleets exporting to one
        scrape endpoint); defaults to a fresh one.
    event_capacity:
        Ring size of the structured event log.
    flight:
        ``True`` attaches a :class:`~repro.obs.flight.FlightRecorder`
        (the fourth leg, ``.flight``) so every span occurrence lands in
        its ring; defaults to off, and :meth:`enable_flight` can attach
        one later.
    flight_capacity:
        Ring size of the flight recorder when enabled.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        event_capacity: int = 1024,
        flight: bool = False,
        flight_capacity: int = 4096,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.flight = FlightRecorder(flight_capacity) if flight else None
        self.tracer = Tracer(self.registry, self.flight)
        self.events = EventLog(event_capacity)

    def enable_flight(self, capacity: int = 4096) -> FlightRecorder:
        """Attach a flight recorder (idempotent); returns the recorder."""
        if self.flight is None:
            self.flight = FlightRecorder(capacity)
            self.tracer.attach_flight(self.flight)
        return self.flight

    def snapshot(self) -> dict:
        """JSON-safe dump of all legs.

        ``"enabled"`` is always ``True``; the key stays so that readers
        of saved snapshots keep parsing them.
        """
        doc = {
            "enabled": True,
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.events.snapshot(),
        }
        if self.flight is not None:
            doc["flight"] = self.flight.snapshot()
        return doc

    def __repr__(self) -> str:
        return (
            f"Telemetry(metrics={len(self.registry.families())}, "
            f"spans={len(self.tracer.stats())}, "
            f"events={len(self.events)})"
        )
