"""Warm-up storage: one ring of raw values for every cold stream.

The paper's LARPredictor cannot select a predictor before it has a
training series to frame, label and project (§6), so each stream of a
:class:`~repro.serving.fleet.PredictionFleet` first buffers
``min_train`` raw values. :class:`WarmupRing` holds those values for
the whole fleet: a ``(rows, cap)`` float64 array with one row per cold
stream, and per row the count of values the stream has ingested. The
``i``-th value of a stream sits in slot ``i % cap``, so a tick stores
every cold stream's value with one scatter, and a retrain round reads
the histories of equal-length streams with one gather.

The ring is sized like the tick engine's history ring, and the two
share the helpers below: it starts at ``min_train`` slots rounded up to
a power of two, doubles before any row would wrap, and wraps only at
``history_limit`` slots. A row then holds the last ``history_limit``
values, as a ``deque(maxlen=history_limit)`` would.

The ring is storage, not model state: the batched tick and the
per-stream loop write it alike. A stream claims a row when it is added
(or restored cold by ``load``) and gives it back when its initial train
integrates or it is removed; the ring drops its arrays when the last
cold stream leaves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "WarmupRing", "gather_tails", "pow2_at_least", "ring_width", "widened",
]

_MIN_ROWS = 4


def pow2_at_least(n: int) -> int:
    """The smallest power of two that is at least *n* (1 for n <= 1)."""
    cap = 1
    while cap < n:
        cap *= 2
    return cap


def ring_width(needed: int, limit: int | None) -> int:
    """Width of a history ring that must hold *needed* values: the next
    power of two, at most *limit* (``None`` = unbounded)."""
    cap = pow2_at_least(needed)
    return cap if limit is None else min(cap, limit)


def widened(ring: np.ndarray, width: int) -> np.ndarray:
    """*ring* copied into a zeroed ring *width* slots wide.

    Only a ring that no row has wrapped may widen, so every stored value
    keeps its slot."""
    out = np.zeros((ring.shape[0], width), dtype=np.float64)
    out[:, : ring.shape[1]] = ring
    return out


def gather_tails(
    ring: np.ndarray, counts: np.ndarray, rows: np.ndarray, length: int
) -> np.ndarray:
    """The last *length* values stored in each of *rows*, oldest first,
    as one ``(len(rows), length)`` gather.

    ``counts[r]`` is how many values row *r* has stored; its ``i``-th
    value sits in slot ``i % ring.shape[1]``."""
    first = counts[rows] - length
    slots = (first[:, None] + np.arange(length)) % ring.shape[1]
    return ring[rows[:, None], slots]


class WarmPick(NamedTuple):
    """The cold streams of one tick (see :meth:`WarmupRing.pick`)."""

    #: Their names, in tick order.
    names: list
    #: Their positions in the tick's value array (a slice when the tick
    #: holds only cold streams).
    at: object
    #: Their ring rows.
    rows: np.ndarray


class WarmupRing:
    """Raw values of a fleet's cold streams, one ring row per stream."""

    def __init__(self, min_train: int, history_limit: int | None) -> None:
        self._min_train = min_train
        self._limit = history_limit
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._hist: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._cap = ring_width(min_train, history_limit)
        # The last pick, reused while the tick's names and the ring's
        # streams stay the same (the steady warm-up tick).
        self._last: tuple[list, WarmPick | None] | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    # -- membership -----------------------------------------------------------

    def claim(self, name: str) -> None:
        """Give cold stream *name* an empty row."""
        if self._hist is None:
            self._hist = np.zeros((_MIN_ROWS, self._cap), dtype=np.float64)
            self._count = np.zeros(_MIN_ROWS, dtype=np.int64)
            self._free = list(range(_MIN_ROWS - 1, -1, -1))
        if not self._free:
            used = self._hist.shape[0]
            hist = np.zeros((2 * used, self._cap), dtype=np.float64)
            hist[:used] = self._hist
            count = np.zeros(2 * used, dtype=np.int64)
            count[:used] = self._count
            self._hist, self._count = hist, count
            self._free = list(range(2 * used - 1, used - 1, -1))
        row = self._free.pop()
        self._count[row] = 0
        self._rows[name] = row
        self._last = None

    def release(self, name: str) -> int:
        """Take *name*'s row back; returns how many values the stream
        ingested. The last release drops the arrays."""
        row = self._rows.pop(name)
        ticks = int(self._count[row])
        self._last = None
        if self._rows:
            self._free.append(row)
        else:
            self._hist = self._count = None
            self._free = []
            self._cap = ring_width(self._min_train, self._limit)
        return ticks

    # -- reads ----------------------------------------------------------------

    def count(self, name: str) -> int:
        """Values cold stream *name* has ingested."""
        return int(self._count[self._rows[name]])

    def stored(self, name: str) -> int:
        """Values the ring holds for *name*: the last
        ``min(count, history_limit)``."""
        return min(self.count(name), self._cap)

    def tails(self, names: list, length: int) -> np.ndarray:
        """The last *length* stored values of each of *names*, as one
        ``(len(names), length)`` gather."""
        rows = np.fromiter(
            (self._rows[name] for name in names), dtype=np.intp,
            count=len(names),
        )
        return gather_tails(self._hist, self._count, rows, length)

    def values(self, name: str) -> np.ndarray:
        """Every value the ring holds for *name*, oldest first."""
        return self.tails([name], self.stored(name))[0]

    # -- writes ---------------------------------------------------------------

    def restore(self, name: str, values: np.ndarray, count: int) -> None:
        """Make *values* the stored values of *name*, which has ingested
        *count* values; *values* must hold the last
        ``min(count, history_limit)`` of them."""
        n = values.shape[0]
        if n > self._cap:
            self._grow(n)
        row = self._rows[name]
        self._hist[row, (count - n + np.arange(n)) % self._cap] = values
        self._count[row] = count

    def pick(self, names: list) -> WarmPick | None:
        """The cold streams among one tick's *names*, or ``None``."""
        lookup = self._rows
        if not lookup:
            return None
        last = self._last
        if last is not None and last[0] == names:
            return last[1]
        at: list[int] = []
        rows: list[int] = []
        for i, name in enumerate(names):
            row = lookup.get(name)
            if row is not None:
                at.append(i)
                rows.append(row)
        picked = None
        if at:
            picked = WarmPick(
                [names[i] for i in at],
                slice(0, len(at)) if len(at) == len(names) else np.array(at),
                np.array(rows, dtype=np.intp),
            )
        self._last = (names, picked)
        return picked

    def write(self, pick: WarmPick, values: np.ndarray) -> list[str]:
        """Store one tick's values of the *pick* streams, one scatter;
        returns the names of those holding ``min_train`` or more values.

        *values* is the tick's whole value array, in tick order."""
        rows = pick.rows
        count = self._count[rows]
        if self._cap != self._limit:
            top = int(count.max())
            if top >= self._cap:
                self._grow(top + 1)
        self._hist[rows, count % self._cap] = values[pick.at]
        count += 1
        self._count[rows] = count
        names = pick.names
        return [
            names[i]
            for i in np.flatnonzero(count >= self._min_train).tolist()
        ]

    def _grow(self, needed: int) -> None:
        self._cap = ring_width(needed, self._limit)
        self._hist = widened(self._hist, self._cap)
