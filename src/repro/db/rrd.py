"""A Round-Robin Database (paper §3.2).

The prototype stores vmkusage's measurements "in a Round Robin Database
(RRD)": fixed-size circular storage where old data is overwritten and
coarser archives hold consolidated (averaged) views of the primary
samples — the vmkusage behaviour of sampling every minute but exposing
five-minute averages is exactly one ``average``-consolidated archive
with ``steps=5``.

This is a faithful in-memory implementation of that model: named data
sources, one primary step, any number of round-robin archives per
consolidation function, NaN for missing slots, and range fetch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DatabaseError
from repro.util.validation import check_positive_int

__all__ = ["ArchiveSpec", "RoundRobinDatabase"]

_CONSOLIDATIONS = ("average", "max", "min", "last")


@dataclass(frozen=True)
class ArchiveSpec:
    """Specification of one round-robin archive.

    Attributes
    ----------
    consolidation:
        How *steps* primary samples collapse into one archive row:
        ``average``, ``max``, ``min``, or ``last``.
    steps:
        Primary samples per archive row (1 keeps raw resolution).
    rows:
        Archive capacity; older rows are overwritten round-robin.
    """

    consolidation: str
    steps: int
    rows: int

    def __post_init__(self) -> None:
        if self.consolidation not in _CONSOLIDATIONS:
            raise ConfigurationError(
                f"consolidation must be one of {_CONSOLIDATIONS}, "
                f"got {self.consolidation!r}"
            )
        check_positive_int(self.steps, name="steps")
        check_positive_int(self.rows, name="rows")

    @property
    def period(self) -> int:
        """Rows * steps — the primary-sample span the archive covers."""
        return self.rows * self.steps


class _Archive:
    """One circular buffer per archive spec, one row per data source.

    Every source of an RRD is written on the same tick, so the sources
    of one archive share the ring position and the partial bucket.
    """

    __slots__ = ("spec", "values", "times", "head", "count", "_pending", "_fill")

    def __init__(self, spec: ArchiveSpec, n_sources: int):
        self.spec = spec
        self.values = np.full((n_sources, spec.rows), np.nan)
        self.times = np.full(spec.rows, -1, dtype=np.int64)
        self.head = 0  # next write slot
        self.count = 0
        self._pending = np.empty((n_sources, spec.steps))
        self._fill = 0  # samples in the partial bucket

    def write(self, times: np.ndarray, block: np.ndarray) -> None:
        """Consolidate a checked ``(sources, n)`` block of clocked samples.

        The pending partial bucket is completed from the head of the
        block, every full bucket after it is consolidated in one reduce,
        and the trailing samples become the next partial bucket.
        """
        steps = self.spec.steps
        fill = self._fill
        n = times.shape[0]
        if fill + n < steps:
            self._pending[:, fill : fill + n] = block
            self._fill = fill + n
            return
        lead = (steps - fill) % steps  # samples that complete the pending bucket
        end = n - (n - lead) % steps  # block[:, lead:end] is whole buckets
        buckets = block[:, lead:end].reshape(len(block), -1, steps)
        stamps = times[lead + steps - 1 : end : steps]
        if lead:
            self._pending[:, fill:] = block[:, :lead]
            buckets = np.concatenate((self._pending[:, None, :], buckets), axis=1)
            stamps = times[lead - 1 : end : steps]
        self._insert(stamps, self._consolidate(buckets))
        self._pending[:, : n - end] = block[:, end:]
        self._fill = n - end

    def _consolidate(self, buckets: np.ndarray) -> np.ndarray:
        """``(sources, k, steps)`` buckets -> ``(sources, k)`` archive rows.

        Each bucket reduces along the contiguous last axis, in the same
        order as ``np.mean`` (``max``, ``min``) over that bucket alone.
        """
        cf = self.spec.consolidation
        if cf == "average":
            return buckets.mean(axis=2)
        if cf == "max":
            return buckets.max(axis=2)
        if cf == "min":
            return buckets.min(axis=2)
        return buckets[:, :, -1]  # last

    def _insert(self, stamps: np.ndarray, rows: np.ndarray) -> None:
        """Write consolidated rows as that many ring commits would."""
        capacity = self.spec.rows
        k = stamps.shape[0]
        keep = min(k, capacity)  # older rows would be overwritten anyway
        slots = (self.head + (k - keep) + np.arange(keep)) % capacity
        self.values[:, slots] = rows[:, k - keep :]
        self.times[slots] = stamps[k - keep :]
        self.head = (self.head + k) % capacity
        self.count = min(self.count + k, capacity)

    def fetch(
        self, source: int, start: int | None, end: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.count == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # Chronological unroll of the circular buffer.
        if self.count < self.spec.rows:
            order = np.arange(self.count)
        else:
            order = (np.arange(self.spec.rows) + self.head) % self.spec.rows
        t = self.times[order]
        v = self.values[source, order]
        mask = np.ones(t.shape[0], dtype=bool)
        if start is not None:
            mask &= t >= int(start)
        if end is not None:
            mask &= t <= int(end)
        return t[mask], v[mask]


class RoundRobinDatabase:
    """Multi-source, multi-archive round-robin time series storage.

    Parameters
    ----------
    step:
        Primary sampling interval in seconds (vmkusage: 60).
    sources:
        Names of the data sources (one per performance metric).
    archives:
        The archives kept for *every* source. Defaults to a single raw
        archive of 4096 rows.

    Notes
    -----
    Updates must be supplied for all sources at once, with timestamps
    that advance by exactly one step; vmkusage works the same way — it
    snapshots every metric of a VM on each tick. :meth:`update_many`
    writes a block of such ticks, :meth:`update` one of them; both
    check the whole write before storing any of it.
    """

    def __init__(
        self,
        step: int,
        sources,
        archives: list[ArchiveSpec] | None = None,
    ):
        self.step = check_positive_int(step, name="step")
        names = list(sources)
        if not names:
            raise ConfigurationError("an RRD needs at least one data source")
        if len(set(names)) != len(names):
            raise ConfigurationError("data source names must be unique")
        if archives is None:
            archives = [ArchiveSpec("average", 1, 4096)]
        if not archives:
            raise ConfigurationError("an RRD needs at least one archive")
        self.sources = tuple(str(n) for n in names)
        self.archive_specs = tuple(archives)
        self._index = {name: i for i, name in enumerate(self.sources)}
        self._archives = [_Archive(spec, len(self.sources)) for spec in archives]
        self._last_timestamp: int | None = None
        self._updates = 0

    # -- writes -------------------------------------------------------------

    @property
    def last_timestamp(self) -> int | None:
        """Timestamp of the most recent update, or None before any."""
        return self._last_timestamp

    @property
    def n_updates(self) -> int:
        """Total primary samples accepted per source."""
        return self._updates

    def update(self, timestamp: int, values: dict[str, float]) -> None:
        """Record one sampling tick: a one-row :meth:`update_many`.

        Parameters
        ----------
        timestamp:
            Seconds; must advance by exactly ``step`` from the previous
            update (the RRD model has no holes — vmkusage ticks are
            clocked).
        values:
            One finite value per data source.
        """
        self.update_many(
            (int(timestamp),), {name: (value,) for name, value in values.items()}
        )

    def update_many(self, timestamps, values) -> None:
        """Record a block of consecutive sampling ticks.

        Parameters
        ----------
        timestamps:
            1-D integer seconds. The first must follow the previous
            update by exactly ``step`` (an empty RRD accepts any start),
            and each later one its predecessor.
        values:
            For every data source, a 1-D sequence of finite values, one
            per timestamp — the column form of :meth:`update`'s dict.

        Raises
        ------
        DatabaseError
            If the block is empty, off the clock, has missing, unknown or
            short sources, or holds a non-finite value. A rejected block
            changes nothing.
        """
        times = np.asarray(timestamps).astype(np.int64, copy=False)
        if times.ndim != 1 or times.shape[0] == 0:
            raise DatabaseError(
                f"timestamps must be a non-empty 1-D array, got shape {times.shape}"
            )
        self._check_clock(times)
        block = self._check_block(values, times.shape[0])
        for archive in self._archives:
            archive.write(times, block)
        self._last_timestamp = int(times[-1])
        self._updates += times.shape[0]

    def _check_clock(self, times: np.ndarray) -> None:
        if self._last_timestamp is not None:
            expected = self._last_timestamp + self.step
            if int(times[0]) != expected:
                raise self._clock_error(times[0], expected)
        if times.shape[0] > 1:
            gaps = np.flatnonzero(np.diff(times) != self.step)
            if gaps.size:
                i = gaps[0]
                raise self._clock_error(times[i + 1], times[i] + self.step)

    def _clock_error(self, timestamp, expected) -> DatabaseError:
        return DatabaseError(
            f"update at {int(timestamp)} but expected {int(expected)} "
            f"(step={self.step})"
        )

    def _check_block(self, values, n: int) -> np.ndarray:
        """The ``(sources, n)`` float64 block, once every check passed."""
        missing = set(self.sources) - set(values)
        extra = set(values) - set(self.sources)
        if missing or extra:
            raise DatabaseError(
                f"update sources mismatch: missing={sorted(missing)}, "
                f"unknown={sorted(extra)}"
            )
        columns = [values[name] for name in self.sources]
        try:
            block = np.array(columns, dtype=np.float64)
        except ValueError:
            block = None  # ragged columns, or a value that is not a number
        if block is None or block.shape != (len(columns), n):
            for name, column in zip(self.sources, columns):
                shape = np.shape(column)
                if shape != (n,):
                    raise DatabaseError(
                        f"source {name!r} has shape {shape}, expected ({n},)"
                    )
            block = np.array(columns, dtype=np.float64)  # raises for the non-number
        finite = np.isfinite(block)
        if not finite.all():
            # Name the source sequential updates would have rejected
            # first: the earliest bad tick, then source order.
            tick = np.flatnonzero(~finite.all(axis=0))[0]
            source = np.flatnonzero(~finite[:, tick])[0]
            raise DatabaseError(
                f"non-finite value for source {self.sources[source]!r}"
            )
        return block

    # -- reads ------------------------------------------------------------------

    def fetch(
        self,
        source: str,
        *,
        archive: int = 0,
        start: int | None = None,
        end: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fetch ``(timestamps, values)`` from one source's archive.

        Parameters
        ----------
        source:
            Data source name.
        archive:
            Index into the archive list supplied at construction.
        start, end:
            Optional inclusive timestamp bounds.
        """
        if source not in self._index:
            raise DatabaseError(
                f"unknown data source {source!r}; have {list(self.sources)}"
            )
        if not 0 <= archive < len(self._archives):
            raise DatabaseError(
                f"archive index {archive} out of range "
                f"(have {len(self._archives)} archives)"
            )
        return self._archives[archive].fetch(self._index[source], start, end)

    def __repr__(self) -> str:
        return (
            f"RoundRobinDatabase(step={self.step}, "
            f"sources={len(self.sources)}, archives={len(self.archive_specs)}, "
            f"updates={self._updates})"
        )
