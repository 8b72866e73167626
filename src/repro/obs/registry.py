"""Process-local metrics registry: counters, gauges, histograms.

The serving stack's instrumentation substrate. Three instrument kinds,
modelled on the Prometheus client data model but with none of its
machinery — a fleet lives in one process and its scrape surface is the
text exposition in :mod:`repro.obs.exporters`:

* :class:`Counter` — monotone float, ``inc()``;
* :class:`Gauge` — last-write-wins float, ``set()`` / ``inc()``;
* :class:`Histogram` — **fixed** bucket edges chosen at registration
  (cumulative ``le`` semantics at export time). Fixed buckets keep
  ``observe()`` at one ``bisect`` + two adds, so per-phase wall-time
  observations are cheap enough for the tick hot loop.

Instruments are grouped into *families* (one metric name, one kind, one
help string) whose children are distinguished by label sets — e.g. every
tracing span records into one ``repro_span_seconds`` family labelled
``span="tick.knn_query"``. Families are created on first use and
returned idempotently, so call sites never coordinate registration.

There is no disabled registry: with telemetry off the serving stack
holds no registry at all, and each instrumented call site is skipped
behind one ``is not None`` check (:mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import re
from bisect import bisect_left

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "TRAIN_TIME_BUCKETS",
]

#: Default histogram edges for wall-time observations, in seconds.
#: Spans 0.1 ms .. 10 s log-ish; the implicit +Inf bucket catches the rest.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Histogram edges for training-burst observations: those run 1 ms .. a
#: minute, so tick-scale sub-millisecond edges would waste resolution.
TRAIN_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; inc({amount}) is negative"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Instantaneous value (set or adjusted at will)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative ``le`` export semantics.

    ``buckets`` are the finite upper edges, strictly increasing; an
    implicit ``+Inf`` bucket always exists. An observation lands in the
    first bucket whose edge is ``>= value`` (Prometheus ``le``).
    """

    __slots__ = ("buckets", "_counts", "_sum")

    def __init__(self, buckets=DEFAULT_TIME_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket edge")
        if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {edges}"
            )
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # [+Inf] is the last slot
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value

    @property
    def count(self) -> int:
        """Total observations."""
        return sum(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def cumulative_counts(self) -> list[int]:
        """Per-bucket cumulative counts, ``+Inf`` last (== :attr:`count`)."""
        out, running = [], 0
        for c in self._counts:
            running += c
            out.append(running)
        return out


class _Family:
    """One metric name: a kind, a help string, and labelled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        # Family default edges; individual children may override at
        # their creation (tick-scale vs train-scale phases share the
        # repro_span_seconds family but need different resolutions).
        self.buckets = (
            buckets if buckets is not None else DEFAULT_TIME_BUCKETS
        )
        # Keyed by the sorted (label, value) tuple; () is the bare child.
        self.children: dict[tuple, Counter | Gauge | Histogram] = {}

    def child(self, labels: tuple, buckets=None):
        inst = self.children.get(labels)
        if inst is None:
            if self.kind == "counter":
                inst = Counter()
            elif self.kind == "gauge":
                inst = Gauge()
            else:
                inst = Histogram(
                    buckets if buckets is not None else self.buckets
                )
            self.children[labels] = inst
        return inst


class MetricsRegistry:
    """Create-on-first-use instrument store.

    The same ``(name, labels)`` pair always returns the same instrument
    object; re-registering a name with a different kind is an error
    (it would silently fork the time series).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list = []

    # -- collectors ----------------------------------------------------------

    def add_collector(self, collector) -> None:
        """Register a callable run before every read of the registry.

        Collectors let a hot path accumulate in its own cheap structures
        (plain dicts, numpy arrays) and settle the registry lazily: each
        one runs at the top of :meth:`families` — and therefore before
        every :meth:`snapshot`, Prometheus exposition, and scrape — so
        readers always see settled values while writers never pay
        per-observation instrument costs.
        """
        if collector not in self._collectors:
            self._collectors.append(collector)

    def remove_collector(self, collector) -> None:
        """Unregister *collector* (no-op when absent)."""
        try:
            self._collectors.remove(collector)
        except ValueError:
            pass

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter *name* (created on first use)."""
        return self._get(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge *name* (created on first use)."""
        return self._get(name, "gauge", help, None, labels)

    def histogram(
        self, name: str, help: str = "", *,
        buckets=None, **labels,
    ) -> Histogram:
        """The histogram *name* (created on first use).

        ``buckets=None`` means "use the family's edges" (the family
        itself defaults to :data:`DEFAULT_TIME_BUCKETS`). Explicit
        *buckets* set the family default on first use of the name and
        override the edges for a *child* being created — so one family
        can hold tick-scale and train-scale children side by side.
        Buckets never re-shape an existing child.
        """
        edges = None if buckets is None else tuple(buckets)
        return self._get(name, "histogram", help, edges, labels)

    # -- introspection -------------------------------------------------------

    def families(self):
        """Registered families, sorted by metric name.

        Runs registered collectors first so lazily-settled metrics are
        current for whoever is reading (snapshot, exposition, scrape).
        """
        for collector in list(self._collectors):
            collector()
        return [self._families[k] for k in sorted(self._families)]

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{name: {kind, help, series: [...]}}``."""
        out = {}
        for family in self.families():
            series = []
            for labels, inst in sorted(family.children.items()):
                entry: dict = {"labels": dict(labels)}
                if family.kind == "histogram":
                    entry["count"] = inst.count
                    entry["sum"] = inst.sum
                    entry["buckets"] = dict(
                        zip(
                            [*map(str, inst.buckets), "+Inf"],
                            inst.cumulative_counts(),
                        )
                    )
                else:
                    entry["value"] = inst.value
                series.append(entry)
            out[family.name] = {
                "kind": family.kind, "help": family.help, "series": series,
            }
        return out

    # -- internals -----------------------------------------------------------

    def _get(self, name, kind, help_text, buckets, labels):
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ConfigurationError(f"invalid metric name {name!r}")
            for key in labels:
                if not _LABEL_RE.match(key):
                    raise ConfigurationError(f"invalid label name {key!r}")
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        if kind == "histogram":
            return family.child(key, buckets)
        return family.child(key)
