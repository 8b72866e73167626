"""Bounded structured event log for fleet lifecycle moments.

Metrics aggregate; events *narrate*. A QA breach folded into a counter
tells you how many breaches happened — the event log tells you which
stream, at which tick, at what window MSE, and whether the retrain it
ordered ran or was deferred by the budget. The log is a fixed-capacity
ring: old events fall off (counted, not silently), so a fleet serving
millions of ticks holds a bounded tail of recent history.

Event kinds emitted by the serving stack (``repro.serving.fleet``):

=====================  ====================================================
kind                   meaning (``data`` payload keys)
=====================  ====================================================
``stream_add``         stream registered
``stream_remove``      stream dropped
``qa_breach``          an audit breached the threshold (``window_mse``)
``train_order``        warm-up complete, initial training scheduled
``retrain_order``      QA latched a breach, retrain scheduled
``retrain_deferred``   budget passed over a due stream this round
``train_complete``     initial training ran
``retrain_complete``   QA-ordered retrain ran
=====================  ====================================================

Every event carries the fleet's ingest-tick index and the stream name,
so the ring can be joined against span timings and counters on either
axis. With telemetry off there is no log: the fleet holds ``None`` and
skips each emission behind one ``is not None`` check.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter, time
from typing import NamedTuple

from repro.exceptions import ConfigurationError

__all__ = ["Event", "EventLog"]


class Event(NamedTuple):
    """One structured log entry.

    A NamedTuple rather than a dataclass: the serving hot path emits
    these at tick rate, and tuple construction is what keeps live
    telemetry inside its overhead gate.

    Attributes
    ----------
    seq:
        Monotone sequence number (survives ring eviction — gaps at the
        head mean events were dropped).
    kind:
        Event type tag (see the module table).
    tick:
        Fleet ingest-tick index at emission time.
    stream:
        Stream name, or ``None`` for fleet-wide events.
    data:
        Kind-specific payload.
    wall:
        Wall-clock seconds (``time.time()``) at emission — correlates
        flight dumps with external logs. ``0.0`` on records loaded from
        pre-upgrade snapshots.
    mono:
        Monotonic seconds (``time.perf_counter()``) at emission — same
        timebase as flight-recorder span starts, so events can sit on
        the Chrome-trace timeline. ``0.0`` on pre-upgrade records.
    """

    seq: int
    kind: str
    tick: int
    stream: str | None = None
    data: dict = {}
    wall: float = 0.0
    mono: float = 0.0

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "tick": self.tick,
            "stream": self.stream,
            "data": dict(self.data),
            "wall": self.wall,
            "mono": self.mono,
        }


class EventLog:
    """Fixed-capacity ring of :class:`Event` records."""

    def __init__(self, capacity: int = 1024):
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigurationError(
                f"event log capacity must be a positive integer, "
                f"got {capacity!r}"
            )
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    def emit(
        self, kind: str, *, tick: int = 0, stream: str | None = None, **data
    ) -> Event:
        """Append one event (evicting the oldest when full)."""
        event = Event(
            seq=self._seq,
            kind=kind,
            tick=tick,
            stream=stream,
            data=data,
            wall=time(),
            mono=perf_counter(),
        )
        self._seq += 1
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(event)
        return event

    # -- reading -------------------------------------------------------------

    @property
    def total_emitted(self) -> int:
        """Events ever emitted (including evicted ones)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(tuple(self._ring))

    def records(
        self, *, kind: str | None = None, stream: str | None = None
    ) -> tuple[Event, ...]:
        """Retained events, oldest first, optionally filtered."""
        return tuple(
            e
            for e in self._ring
            if (kind is None or e.kind == kind)
            and (stream is None or e.stream == stream)
        )

    def tail(self, n: int = 10) -> tuple[Event, ...]:
        """The *n* most recent events, oldest first."""
        if n <= 0:
            return ()
        return tuple(self._ring)[-n:]

    def snapshot(self) -> dict:
        """JSON-safe dump of the retained ring plus loss accounting."""
        return {
            "capacity": self.capacity,
            "total_emitted": self._seq,
            "dropped": self._dropped,
            "events": [e.as_dict() for e in self._ring],
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "EventLog":
        """Rebuild a log from a :meth:`snapshot` document.

        Tolerates pre-upgrade snapshots whose events carry no
        ``wall``/``mono`` stamps (they load as ``0.0``).
        """
        log = cls(capacity=int(doc.get("capacity", 1024)))
        for entry in doc.get("events", ()):
            log._ring.append(
                Event(
                    seq=int(entry["seq"]),
                    kind=entry["kind"],
                    tick=int(entry.get("tick", 0)),
                    stream=entry.get("stream"),
                    data=dict(entry.get("data", {})),
                    wall=float(entry.get("wall", 0.0)),
                    mono=float(entry.get("mono", 0.0)),
                )
            )
        log._seq = int(doc.get("total_emitted", len(log._ring)))
        log._dropped = int(doc.get("dropped", 0))
        return log

    def clear(self) -> None:
        """Drop retained events (sequence numbering continues)."""
        self._ring.clear()

    def __repr__(self) -> str:
        return (
            f"EventLog(capacity={self.capacity}, retained={len(self._ring)}, "
            f"total_emitted={self._seq}, dropped={self._dropped})"
        )
