"""The batched fleet tick engine: one tick, a handful of NumPy ops.

:class:`~repro.serving.fleet.PredictionFleet`'s original tick loop ran
every stream through its own Python call chain — per-stream
``prepare_tail``, a single-point k-NN query, a single-frame
``predict_next`` — so a fleet tick cost N interpreter round-trips and
never touched BLAS with more than one row. This engine executes the
same tick *fleet-wide*:

* the trailing windows of all trained streams live in one
  ``(n_streams, window + 1)`` matrix, rolled once per tick;
* per-stream z-score coefficients and PCA bases are stacked in the
  engine's row arrays, so normalization is one broadcast and feature
  projection one 3-D ``matmul``;
* every stream's k-NN memory lives in a padded, coordinate-major
  ``(n_streams, d, capacity)`` ring tensor (ring layout by absolute row
  index), so the fleet's N single-point queries become one call of the
  per-stream classifier's distance kernel plus one deterministic top-k
  selection (:mod:`repro.learn.topk`). The ring is sized by the deepest
  live memory *after* eviction, so memories full at ``max_memory``
  write each new row into the slot their oldest row frees. Dead slots
  are encoded in the ring itself — ``+inf`` coordinates and a tie key
  above every live row's — so they rank behind every live row with no
  per-tick mask;
* the pool members run through the batched trainer's stacked kernels
  (:mod:`repro.predictors.stacked`), one frame per stream: LAST, AR and
  SW_AVG each run once over every row, and each row keeps the member
  its classifier voted for;
* every stream's QA error window lives in one
  ``(n_streams, audit_window)`` ring, so the per-tick audits run as
  vectorized kernels (one modulo for the audit boundaries, grouped
  row-sums for the window MSEs) instead of S ``record()`` calls;
* every stream's raw history lives in one ring, sized by the longest
  history up to ``history_limit``, so a tick stores all values in one
  scatter.

Fleet-ordered rows
------------------
Attached rows are kept in the fleet's stream order. A retrained model
is installed into its stream's existing row, and after adds, removes,
and out-of-order attaches or installs the engine restores fleet order
with one permutation per row array. A full-fleet
tick therefore always selects ``slice(0, S)``: basic indexing makes
every kernel read **views** of the stacked tensors instead of copying
the ``(S, d, cap)`` memory ring, and per-tick scratch buffers are
recycled across ticks. Partial row subsets fall back to fancy-index
gathers, bit-identically.

Engine-owned tick state
-----------------------
While a stream is attached, the engine is the only per-tick writer of
its state. A tick advances the stacked arrays only: the tail and
memory rings, the label-smoothing ring, the QA ring with its running
sum, step and breach latch, the history ring, per-member selection
counts and the pending forecast. Breaches are the exception: an audit
tick bumps a breached stream's ``breaches_total`` and hands its
``AuditRecord`` to telemetry and ``on_breach`` right away, as
``record()`` would. An audit that did not breach costs no Python work:
a QA keeps no audit log, and its ``audits_total`` follows from the
step the next check-out writes back. The stream's
per-stream objects — its ``OnlineLARPredictor``, ``KNNClassifier``
and ``PredictionQualityAssuror`` and the fleet's ``_StreamState``
counters — are brought up to date only when something reads them:
:meth:`BatchedTickEngine.checkout` writes the row's deferred ticks into
them, leaving them exactly as S ``record()`` + ``observe()`` calls
would have. ``_StreamState`` checks its stream out on every access to
``predictor``, ``qa``, ``pending``, ``ticks`` and ``selections``, so
metrics, persistence, per-stream ticks and retrains all read current
objects. A reference to a per-stream object held across later batched
ticks goes stale.

Retrains go straight to the rows. :meth:`BatchedTickEngine.install`
writes a stacked retrain's fitted group into its streams' rows, one
scatter per row array, as :meth:`BatchedTickEngine._load_row` would
load the trained predictor. The predictor object is built (through
:func:`~repro.serving.trainer.build_predictor`) only at the row's first
check-out, which then writes the row's deferred ticks into it like any
other check-out. The old model is dropped unwritten: its row settles
only the stream-level state it owes (tick count, selections, QA step).
A model retrained again before anyone reads it is never built.

A check-out only reads the row: the row stays the engine's. Writers
detach: fleet code that writes a served stream's objects (a
per-stream-loop tick, a per-stream replay of an asynchronous retrain)
calls :meth:`BatchedTickEngine.detach` first, which checks the row out
and hands the stream back, and the next :meth:`BatchedTickEngine.sync`
reloads the row whole from the objects. Membership is reconciled only
when the fleet's ``(epoch, stream count)`` key moves.

An asynchronous retrain's model learns the ticks its stream served
while it trained the same way: :meth:`BatchedTickEngine.replay` runs
the learn half of a tick once per replayed value over all the new
models' rows, instead of one ``observe()`` call per stream and value,
and the models' objects catch up at their next check-out.

One tick, one Python pass
-------------------------
:meth:`BatchedTickEngine.forecast_batch` builds the returned forecasts
(its one per-stream pass) and keeps each row's forecast in the engine,
flagged fresh until the row is ingested or reloaded, so
:meth:`BatchedTickEngine.ingest_batch` audits from those arrays and
recomputes only rows that are not fresh. The ingest touches per-stream
objects only for breached rows (their audit records) and rows whose QA
latch is set (retrain scheduling).

Bit-exactness contract
----------------------
The engine is an execution strategy, not a model change: for every
stream it must produce bit-identical results to the per-stream loop —
same forecasts, same selected labels, same learned memory, same QA
state, breach records and telemetry counters. Every kernel above was
chosen for that property (elementwise broadcasts, row-wise reductions,
stacked ``matmul`` whose slices hit the same BLAS calls, grouped
trailing-slice row-sums that reproduce ``np.mean``'s summation order, a
QA running sum that replays ``record()``'s subtract-then-add order, and
the per-stream classifier's own distance kernel and top-k rule, so
distance ties break alike at every feature width); the parity suites in
``tests/test_serving_engine.py`` and
``tests/test_serving_qa_stacked.py`` lock it in.

Coverage
--------
Coverage is decided per fleet, not per stream. The fleet builds every
stream from its one :class:`~repro.serving.fleet.FleetConfig`, so the
engine serves every trained stream of a config the stacked kernels
cover: the paper pool (LAST/AR/SW_AVG) and a fixed-size (or disabled)
PCA, the configs the stacked trainer accepts too. A fleet of any other
config (``lar.extended_pool``, or ``lar.min_variance``) serves every
stream on the per-stream loop. A stream archive on disk is the one
input that could differ, and
:func:`~repro.serving.persistence.load_fleet` rejects one the fleet's
config would not build.
"""

from __future__ import annotations

import threading
from functools import wraps
from time import perf_counter

import numpy as np

from repro.core.larpredictor import Forecast
from repro.core.online import OnlineLARPredictor
from repro.core.qa import AuditRecord, PredictionQualityAssuror
from repro.learn.distance import squared_distances
from repro.learn.topk import lexicographic_topk
from repro.learn.voting import majority_vote
from repro.predictors.stacked import (
    StackedARParams,
    paper_pool_predict_frames_stacked,
)
from repro.serving.trainer import build_predictor
from repro.serving.warmup import (
    gather_tails,
    pow2_at_least,
    ring_width,
    widened,
)

__all__ = ["BatchedTickEngine"]

#: Paper-pool member names indexed by label (slot 0 unused).
_POOL_NAMES = np.array(("", "LAST", "AR", "SW_AVG"), dtype=object)
_MEMBERS = tuple(_POOL_NAMES[1:].tolist())
_MIN_ROW_CAPACITY = 4
#: Tie key of a dead ring slot. It sorts after every live row's
#: absolute index, so a dead slot (``+inf`` coordinates, so distance
#: ``+inf``) loses even to a live row whose distance overflowed.
_DEAD_KEY = np.iinfo(np.int64).max
#: ``max_memory`` of an uncapped row: ``hi + 1 - _NO_CAP`` never exceeds
#: a live ``lo``, so the learn step's eviction keeps every row.
_NO_CAP = np.iinfo(np.int64).max // 2


def _ring_span(ring: np.ndarray, first: int, stop: int) -> np.ndarray:
    """What a ring row holds for absolute positions ``first .. stop - 1``
    (position ``i`` sits in slot ``i % len(ring)``): a slice unless the
    span wraps."""
    cap = ring.shape[0]
    a = first % cap
    b = a + stop - first
    if b <= cap:
        return ring[a:b]
    return np.concatenate((ring[a:], ring[: b - cap]))


def _lap(tracer, name: str, start: float, batch: int) -> float:
    """Record phase *name* over *batch* rows from *start* until now, and
    return now; with no *tracer*, record nothing and return *start*."""
    if tracer is None:
        return start
    now = perf_counter()
    tracer.record(name, now - start, batch=batch, start=start)
    return now


def _locked(method):
    """Run *method* under the engine's lock.

    A registry scrape can check streams out from another thread (the
    Prometheus endpoint's) while the fleet ticks; ticks, syncs and
    check-outs therefore never interleave.
    """

    @wraps(method)
    def run(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return run


class _Entry:
    """Engine-side bookkeeping for one attached stream.

    A model installed from a fitted group has no object yet:
    ``predictor`` is ``None`` and ``fit`` holds ``(histories, GroupFit,
    index)`` until the first check-out builds it.
    """

    __slots__ = ("engine", "name", "state", "predictor", "qa", "row", "fit")

    def __init__(self, engine: "BatchedTickEngine", name: str, state,
                 row: int, fit=None):
        self.engine = engine
        self.name = name
        self.state = state
        self.predictor: OnlineLARPredictor | None = state._predictor
        self.qa: PredictionQualityAssuror = state._qa
        self.row = row
        self.fit = fit


class BatchedTickEngine:
    """Stacked per-stream state + batched tick kernels for one fleet.

    The engine self-synchronizes: :meth:`sync` reconciles the fleet's
    stream table with the registry (attaching newly trained streams,
    swapping retrained models into their rows, reloading detached
    streams, dropping removed ones). Rows are kept in fleet order, so
    the full-fleet tick reads slices.
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        cfg = fleet.config
        self._window = cfg.lar.window
        self._k = cfg.lar.k
        self._ar_order = cfg.lar.effective_ar_order
        self._smoothing = cfg.label_smoothing
        self._history_limit = cfg.history_limit
        self._qa_window = cfg.audit_window
        self._qa_interval = cfg.audit_interval
        self._qa_threshold = float(cfg.qa_threshold)
        # min_variance lets each stream keep a different component
        # count, which cannot be stacked; everything else is uniform.
        self._supported = (
            cfg.lar.min_variance is None and not cfg.lar.extended_pool
        )
        self._n_features = (
            cfg.lar.n_components
            if cfg.lar.n_components is not None
            else self._window
        )
        self._entries: dict[str, _Entry] = {}
        # Attached entries in row order (== fleet order), and their
        # names: a tick whose names equal _names selects every row.
        self._rows: list[_Entry] = []
        self._names: list[str] = []
        # (fleet epoch clock, stream count) at the last reconcile.
        self._sync_key: tuple[int, int] | None = None
        self._lock = threading.RLock()
        # Ingest ticks run, the stamp of a member's first selection
        # since a row's last check-out.
        self._tick_seq = 0
        # Per-tick scratch, keyed by call site; _buf returns the cached
        # array whenever the requested shape still matches, so the
        # steady-state tick allocates nothing.
        self._scratch: dict[str, np.ndarray] = {}
        # The ring tracks the deepest stream's live memory, not the
        # configured cap: distances are computed over every slot (dead
        # ones included), so padding the ring to max_memory up front
        # would multiply the per-tick work while memories are still
        # shallow. _grow_memory doubles it as streams accumulate rows.
        self._mem_cap = pow2_at_least(2 * self._k)
        # The history ring likewise tracks the longest stored history:
        # it doubles before any row would wrap, up to history_limit
        # slots, and only rows of a ring that wide wrap (sized like the
        # fleet's warm-up ring, with its helpers).
        self._hist_cap = ring_width(cfg.min_train, self._history_limit)
        self._alloc(_MIN_ROW_CAPACITY)

    # -- storage ------------------------------------------------------------

    def _alloc(self, row_cap: int) -> None:
        w, d, L = self._window, self._n_features, self._smoothing
        self._row_index = np.arange(row_cap, dtype=np.intp)
        self._tails = np.empty((row_cap, w + 1), dtype=np.float64)
        self._mu = np.empty(row_cap, dtype=np.float64)
        self._sigma = np.empty(row_cap, dtype=np.float64)
        self._pmean = np.empty((row_cap, w), dtype=np.float64)
        self._pcomp = np.empty((row_cap, d, w), dtype=np.float64)
        self._ar_phi = np.empty((row_cap, self._ar_order), dtype=np.float64)
        self._ar_mu = np.empty(row_cap, dtype=np.float64)
        # Label-smoothing window: the last L squared-error rows,
        # oldest first, plus how many of them are live.
        self._sqring = np.zeros((row_cap, L, 3), dtype=np.float64)
        self._sq_count = np.zeros(row_cap, dtype=np.int64)
        self._max_mem = np.empty(row_cap, dtype=np.int64)
        # Stacked QA: each row holds the stream's audit window
        # oldest-first (zero-padded on the left while warming up), its
        # live pair count, running sum, step counter and breach latch.
        self._qa_ring = np.zeros((row_cap, self._qa_window), dtype=np.float64)
        self._qa_count = np.zeros(row_cap, dtype=np.int64)
        self._qa_sum = np.zeros(row_cap, dtype=np.float64)
        self._qa_step = np.zeros(row_cap, dtype=np.int64)
        self._qa_due = np.zeros(row_cap, dtype=bool)
        # The last batched forecast per row, fresh until the row is
        # ingested or reloaded.
        self._pend_value = np.zeros(row_cap, dtype=np.float64)
        self._pend_norm = np.zeros(row_cap, dtype=np.float64)
        self._pend_label = np.ones(row_cap, dtype=np.int64)
        self._fresh = np.zeros(row_cap, dtype=bool)
        # Raw history: the row's i-th stored value sits in slot
        # i % _hist_cap, and _hist_hi counts the values stored.
        self._hist = np.zeros((row_cap, self._hist_cap), dtype=np.float64)
        self._hist_hi = np.zeros(row_cap, dtype=np.int64)
        # What the per-stream objects lag behind: ingest ticks, values
        # a swapped-in model learned by replay (see replay()), and
        # per-member selections since the row's last check-out, each
        # member's first selection stamp, and whether anything is owed
        # (a fresh forecast included).
        self._deferred = np.zeros(row_cap, dtype=np.int64)
        self._replayed = np.zeros(row_cap, dtype=np.int64)
        self._sel = np.zeros((row_cap, 3), dtype=np.int64)
        self._sel_first = np.zeros((row_cap, 3), dtype=np.int64)
        self._dirty = np.zeros(row_cap, dtype=bool)
        self._alloc_memory(row_cap)
        self._mem_lo = np.zeros(row_cap, dtype=np.int64)
        self._mem_hi = np.zeros(row_cap, dtype=np.int64)

    def _alloc_memory(self, row_cap: int) -> None:
        """Fresh memory ring at the current capacity, all dead.

        ``_mem_x`` is coordinate-major, ``(rows, d, cap)``. A dead slot
        holds ``+inf`` coordinates and :data:`_DEAD_KEY` in ``_mem_abs``:
        its distance computes to ``+inf`` and it sorts after every live
        row, so the distance kernel needs no per-tick mask.
        """
        cap, d = self._mem_cap, self._n_features
        self._mem_x = np.full((row_cap, d, cap), np.inf, dtype=np.float64)
        self._mem_y = np.empty((row_cap, cap), dtype=np.int64)
        self._mem_abs = np.full((row_cap, cap), _DEAD_KEY, dtype=np.int64)

    def _row_arrays(self) -> tuple:
        return (self._tails, self._mu, self._sigma, self._pmean, self._pcomp,
                self._ar_phi, self._ar_mu, self._sqring, self._sq_count,
                self._max_mem, self._qa_ring, self._qa_count, self._qa_sum,
                self._qa_step, self._qa_due, self._pend_value,
                self._pend_norm, self._pend_label, self._fresh, self._hist,
                self._hist_hi, self._deferred, self._replayed, self._sel,
                self._sel_first, self._dirty, self._mem_x, self._mem_y,
                self._mem_abs, self._mem_lo, self._mem_hi)

    def _grow_rows(self, used: int) -> None:
        old = self._row_arrays()
        self._alloc(2 * self._tails.shape[0])
        for dst, src in zip(self._row_arrays(), old):
            dst[:used] = src[:used]

    def _grow_memory(self, needed: int) -> None:
        """Widen the memory ring, moving every live row to its slot."""
        old_x, old_y, old_abs = self._mem_x, self._mem_y, self._mem_abs
        self._mem_cap = pow2_at_least(needed)
        self._alloc_memory(self._tails.shape[0])
        rows, slots = np.nonzero(old_abs != _DEAD_KEY)
        abs_idx = old_abs[rows, slots]
        new = abs_idx % self._mem_cap
        self._mem_x[rows, :, new] = old_x[rows, :, slots]
        self._mem_y[rows, new] = old_y[rows, slots]
        self._mem_abs[rows, new] = abs_idx

    def _grow_history(self, needed: int) -> None:
        """Widen the history ring. Rows wrap only at the
        ``history_limit`` width, so every value keeps its slot."""
        self._hist_cap = ring_width(needed, self._history_limit)
        self._hist = widened(self._hist, self._hist_cap)

    def _buf(self, name: str, shape: tuple) -> np.ndarray:
        """A recycled float64 scratch array."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._scratch[name] = buf
        return buf

    @staticmethod
    def _selector(rows: np.ndarray):
        """A basic-indexing slice when *rows* is consecutive, else *rows*.

        Slices make every gather below a zero-copy view.
        """
        n = rows.shape[0]
        first = int(rows[0])
        if int(rows[n - 1]) - first == n - 1 and (
            n <= 2 or bool((rows[1:] > rows[:-1]).all())
        ):
            return slice(first, first + n)
        return rows

    @staticmethod
    def _shift_append(arr: np.ndarray, sel, new) -> None:
        """Roll ``arr[sel]`` one step left along axis 1, appending *new*."""
        arr[sel, :-1] = arr[sel, 1:]
        arr[sel, -1] = new

    # -- membership ---------------------------------------------------------

    @_locked
    def sync(self) -> None:
        """Reconcile the registry with the fleet's current stream table.

        Call once before a batched operation: :meth:`forecast_batch`,
        :meth:`install` and :meth:`replay` call it themselves,
        :meth:`PredictionFleet.ingest` calls it before
        :meth:`ingest_batch`. Runs only when the fleet's epoch clock or
        stream count moved (every predictor swap and every added stream
        advances the clock, every removal changes the count), or after
        a :meth:`detach` or :meth:`release`.
        """
        if not self._supported:
            return
        fleet = self._fleet
        states = fleet._streams
        key = (fleet._epoch_seq, len(states))
        if key == self._sync_key:
            return
        self._sync_key = key
        entries = self._entries
        for entry in self._rows:
            state = states.get(entry.name)
            # Every swap of a served stream's model, and every write to
            # its objects, releases or detaches the entry first, so
            # _entry identity catches them all.
            if state is entry.state and state._entry is entry:
                continue
            self._drop(entry)
            if state is not None and state._predictor is not None:
                # A retrained model, or the objects written after a
                # detach, take over the stream's row.
                self._attach(entry.name, state, entry.row)
        used = len(self._rows)
        for name, state in states.items():
            if state._predictor is not None and name not in entries:
                if used == self._tails.shape[0]:
                    self._grow_rows(used)
                self._attach(name, state, used)
                used += 1
        self._reorder(
            [e for name in states if (e := entries.get(name)) is not None]
        )

    def _attach(self, name: str, state, row: int) -> None:
        entry = _Entry(self, name, state, row)
        self._entries[name] = entry
        state._entry = entry
        self._load_row(entry)

    def _drop(self, entry: _Entry) -> None:
        """Forget *entry* (idempotent); its row is reused or compacted
        away."""
        if self._entries.get(entry.name) is entry:
            del self._entries[entry.name]
        if entry.state._entry is entry:
            entry.state._entry = None

    def detach(self, entry: _Entry) -> None:
        """Check *entry* out and hand its stream back to the fleet.

        Fleet code calls this before it writes a served stream's
        objects: the per-stream loop's tick and a per-stream replay of
        an asynchronous retrain. The next :meth:`sync` reloads the row
        whole from whatever the stream holds then.
        """
        self.checkout(entry)
        entry.state._entry = None
        self._sync_key = None

    def _reorder(self, order: list[_Entry]) -> None:
        """Make *order* the row order: one permutation per row array."""
        perm = [e.row for e in order]
        m = len(order)
        if perm != list(range(m)):
            idx = np.asarray(perm, dtype=np.intp)
            for arr in self._row_arrays():
                arr[:m] = arr[idx]
            for row, entry in enumerate(order):
                entry.row = row
        self._rows = order
        self._names = [e.name for e in order]

    def serves(self, name: str) -> bool:
        """Whether *name* is currently served by the batched path."""
        return name in self._entries

    # -- loading rows ---------------------------------------------------------

    def _load_row(self, entry: _Entry) -> None:
        """Load one stream's whole predictor, QA and memory into its row."""
        predictor = entry.predictor
        clf = predictor._classifier
        row = entry.row
        pipeline = predictor._runner.pipeline
        self._mu[row] = pipeline.normalizer.mean
        self._sigma[row] = pipeline.normalizer.std
        if pipeline.pca is not None:
            self._pmean[row] = pipeline.pca.mean_
            self._pcomp[row] = pipeline.pca.components_
        ar = predictor._runner.pool[1]
        self._ar_phi[row] = ar.coefficients_
        self._ar_mu[row] = ar.mean_
        history = predictor._history
        n = len(history)
        if n > self._hist_cap:
            self._grow_history(n)
        self._hist[row, :n] = np.fromiter(history, dtype=np.float64, count=n)
        self._hist_hi[row] = n
        self._tails[row] = self._hist[row, n - self._window - 1 : n]
        L = self._smoothing
        count = len(predictor._recent_sq)
        self._sqring[row] = 0.0
        if count:
            self._sqring[row, L - count :] = np.stack(
                list(predictor._recent_sq), axis=0
            )
        self._sq_count[row] = count
        cap = predictor.max_memory
        self._max_mem[row] = _NO_CAP if cap is None else cap
        self._fresh[row] = False
        self._deferred[row] = 0
        self._replayed[row] = 0
        self._sel[row] = 0
        self._dirty[row] = False
        qa = entry.qa
        count = len(qa._sq_errors)
        self._qa_ring[row] = 0.0
        if count:
            self._qa_ring[row, self._qa_window - count :] = qa._sq_errors
        self._qa_count[row] = count
        self._qa_sum[row] = qa._sq_sum
        self._qa_step[row] = qa._step
        self._qa_due[row] = qa._retraining_due
        self._write_memory(
            np.array([row]), clf.discarded_total_, clf.appended_total_,
            clf._X[None], clf._y[None],
        )

    def _write_memory(self, rows, lo: int, hi: int, X, y) -> None:
        """Make absolute rows ``lo .. hi - 1`` the whole memory of engine
        *rows*; ``X[i]`` and ``y[i]`` hold row ``rows[i]``'s, oldest first."""
        if hi - lo > self._mem_cap:
            self._grow_memory(hi - lo)
        abs_idx = np.arange(lo, hi, dtype=np.int64)
        at, slots = rows[:, None], abs_idx % self._mem_cap
        self._mem_abs[rows] = _DEAD_KEY
        self._mem_x[rows] = np.inf
        self._mem_abs[at, slots] = abs_idx
        self._mem_x[at, :, slots] = X
        self._mem_y[at, slots] = y
        self._mem_lo[rows] = lo
        self._mem_hi[rows] = hi

    # -- retrains -----------------------------------------------------------

    def stored(self, entry: _Entry) -> int:
        """How many values *entry*'s stream history holds."""
        return min(int(self._hist_hi[entry.row]), self._hist_cap)

    def history_tails(self, entries: list, length: int) -> np.ndarray:
        """The last *length* stored values of each entry's stream, oldest
        first, as one ``(len(entries), length)`` gather from the history
        ring. The ring holds the float64 values the stream's history
        deque holds, so row *i* equals the stream predictor's
        ``recent_history(length)`` bit for bit."""
        rows = np.fromiter(
            (e.row for e in entries), dtype=np.intp, count=len(entries)
        )
        return gather_tails(self._hist, self._hist_hi, rows, length)

    @_locked
    def install(self, states: list, histories: np.ndarray, fit) -> None:
        """Install a fitted group's new models into engine rows.

        Row *i* of *histories* and of *fit* (a
        :class:`~repro.serving.trainer.GroupFit`) is the new model of
        ``states[i]`` (``None`` skips the row). Each stream gets its row
        written straight from the fit, one scatter per row array:
        exactly what :meth:`_load_row` would load from the trained
        predictor after ``acknowledge_retraining()`` on the stream's QA.
        The predictor itself is built at the row's first check-out. A
        served stream's old row settles what it owes the stream
        (:meth:`release`) and is reused; other streams get new rows, and
        the rows return to fleet order.
        """
        self.sync()
        pick = [i for i, state in enumerate(states) if state is not None]
        if not pick:
            return
        rows = []
        appended = False
        for i in pick:
            state = states[i]
            old = state._entry
            if old is not None:
                self.release(old)
                row = old.row
            else:
                appended = True
                row = len(self._rows)
                if row == self._tails.shape[0]:
                    self._grow_rows(row)
            state._predictor = None
            entry = _Entry(
                self, state.name, state, row, fit=(histories, fit, i)
            )
            self._entries[state.name] = entry
            state._entry = entry
            if old is not None:
                self._rows[row] = entry
            else:
                self._rows.append(entry)
                self._names.append(state.name)
            rows.append(row)
        self._write_fit(
            np.asarray(rows, dtype=np.intp), np.asarray(pick, dtype=np.intp),
            histories, fit, [states[i]._qa._step for i in pick],
        )
        if appended:
            # sync() left every row a live stream's current entry.
            entries = self._entries
            self._reorder([
                e for name in self._fleet._streams
                if (e := entries.get(name)) is not None
            ])

    def _write_fit(self, rows, pick, histories, fit, steps) -> None:
        """Write fit rows *pick* into engine *rows* (see :meth:`install`)."""
        src = histories[pick]
        length = src.shape[1]
        limit = self._history_limit
        n = length if limit is None else min(length, limit)
        if n > self._hist_cap:
            self._grow_history(n)
        self._hist[rows, :n] = src[:, length - n :]
        self._hist_hi[rows] = n
        self._tails[rows] = src[:, length - self._window - 1 :]
        self._mu[rows] = fit.norm_means[pick]
        self._sigma[rows] = fit.norm_stds[pick]
        if fit.pca_means is not None:
            self._pmean[rows] = fit.pca_means[pick]
            self._pcomp[rows] = fit.pca_components[pick]
        self._ar_phi[rows] = fit.ar_phi[pick]
        self._ar_mu[rows] = fit.ar_means[pick]
        self._sqring[rows] = 0.0
        self._sq_count[rows] = 0
        cap = self._fleet.config.max_memory
        self._max_mem[rows] = _NO_CAP if cap is None else cap
        self._fresh[rows] = False
        self._deferred[rows] = 0
        self._replayed[rows] = 0
        self._sel[rows] = 0
        # What the row owes now is its model's objects.
        self._dirty[rows] = True
        self._qa_ring[rows] = 0.0
        self._qa_count[rows] = 0
        self._qa_sum[rows] = 0.0
        self._qa_step[rows] = steps
        self._qa_due[rows] = False
        # The memory KNNClassifier.from_rows() holds once the predictor's
        # discard_oldest() trims it to max_memory: absolute rows lo .. N-1.
        total = fit.labels.shape[1]
        lo = 0 if cap is None else max(0, total - cap)
        self._write_memory(
            rows, lo, total, fit.features[pick, lo:], fit.labels[pick, lo:]
        )

    @_locked
    def release(self, entry: _Entry) -> None:
        """Settle what *entry*'s row owes its stream, then forget it.

        For a stream whose model is being replaced: only the
        stream-level state is written (the tick count, the selection
        counts and the QA step; the retrain's acknowledgement resets
        the rest of the QA). The old model gets none of the row's
        deferred ticks, so a model nobody reads is never written. The
        next :meth:`sync` attaches whatever model the stream holds then.
        """
        row = entry.row
        state = entry.state
        ticks = int(self._deferred[row])
        if ticks:
            self._deferred[row] = 0
            state._ticks += ticks
            self._checkout_selections(state._selections, row)
        entry.qa._step = int(self._qa_step[row])
        self._dirty[row] = False
        self._drop(entry)
        self._sync_key = None

    def _retire(self, row: int, lo: int, hi: int) -> None:
        """Mark the ring slots of absolute rows ``lo .. hi - 1`` dead."""
        slots = np.arange(lo, hi, dtype=np.int64) % self._mem_cap
        self._mem_x[row, :, slots] = np.inf
        self._mem_abs[row, slots] = _DEAD_KEY

    # -- check-out ------------------------------------------------------------

    def checkout(self, entry: _Entry) -> None:
        """Write *entry*'s deferred ticks into its per-stream objects.

        Afterwards the stream's ``_StreamState`` counters, pending
        forecast, QA, predictor and classifier are exactly what S
        ``record()`` + ``observe()`` calls would have left. The engine
        stays the row's owner: code that writes the objects detaches the
        stream first (:meth:`detach`).
        """
        if self._dirty[entry.row]:
            self._checkout(entry)

    @_locked
    def _checkout(self, entry: _Entry) -> None:
        # Another thread may have checked the row out meanwhile, or
        # *entry* may be stale: read before its stream was detached, its
        # row since taken over by a retrained model or another stream.
        if self._entries.get(entry.name) is not entry:
            return
        row = entry.row
        if not self._dirty[row]:
            return
        if entry.predictor is None:
            self._build(entry)
        state = entry.state
        ticks = int(self._deferred[row])
        learned = ticks + int(self._replayed[row])
        if ticks:
            self._deferred[row] = 0
            state._ticks += ticks
            self._checkout_selections(state._selections, row)
            self._checkout_qa(entry.qa, row, ticks)
        if learned:
            self._replayed[row] = 0
            self._checkout_model(entry, row, learned)
        if self._fresh[row]:
            label = int(self._pend_label[row])
            state._pending = Forecast(
                value=float(self._pend_value[row]),
                normalized_value=float(self._pend_norm[row]),
                predictor_label=label,
                predictor_name=_POOL_NAMES[label],
            )
            state.pending_at = len(entry.predictor._history)
        elif ticks:
            state._pending = None
        # Cleared last: an unlocked reader that sees a clean row sees
        # the whole check-out.
        self._dirty[row] = False

    def _build(self, entry: _Entry) -> None:
        """Build an installed model's objects, as trained: the caller
        then writes the row's deferred ticks into them."""
        histories, fit, index = entry.fit
        cfg = self._fleet.config
        predictor = build_predictor(cfg, histories[index], fit, index)
        entry.fit = None
        entry.predictor = entry.state._predictor = predictor

    # The per-stream deques below hold their ring as of the row's last
    # check-out or load, so a check-out appends only the newest entries
    # and the deques' maxlen drops the oldest, as per-tick appends would.

    def _checkout_selections(self, picks: dict, row: int) -> None:
        counts = self._sel[row].tolist()
        self._sel[row] = 0
        new = [m for m, c in zip(_MEMBERS, counts) if c and m not in picks]
        if new:
            # Members first picked since the last check-out join the
            # dict in the order the per-stream loop inserted them.
            first = dict(zip(_MEMBERS, self._sel_first[row].tolist()))
            for member in sorted(new, key=first.__getitem__):
                picks[member] = 0
        for member, c in zip(_MEMBERS, counts):
            if c:
                picks[member] += c

    def _checkout_qa(
        self, qa: PredictionQualityAssuror, row: int, ticks: int
    ) -> None:
        new = min(ticks, int(self._qa_count[row]))
        qa._sq_errors.extend(self._qa_ring[row, self._qa_window - new :].tolist())
        qa._sq_sum = float(self._qa_sum[row])
        qa._step = int(self._qa_step[row])
        qa._retraining_due = bool(self._qa_due[row])

    def _checkout_model(self, entry: _Entry, row: int, ticks: int) -> None:
        predictor = entry.predictor
        hi = int(self._hist_hi[row])
        take = min(ticks, self._hist_cap)
        predictor._history.extend(
            _ring_span(self._hist[row], hi - take, hi).tolist()
        )
        new = min(ticks, int(self._sq_count[row]))
        predictor._recent_sq.extend(
            self._sqring[row, self._smoothing - new :].copy()
        )
        predictor._windows_learned += ticks
        # The classifier: retire what the ring evicted, then append what
        # it still holds. Rows appended and evicted again between two
        # check-outs only advance the absolute counters.
        clf = predictor._classifier
        lo, hi = int(self._mem_lo[row]), int(self._mem_hi[row])
        old_lo, old_hi = clf._discarded, clf._appended
        if lo > old_lo:
            clf._discard_rows(min(lo, old_hi) - old_lo)
            if lo > old_hi:
                clf._appended = clf._discarded = lo
        start = max(lo, old_hi)
        if hi > start:
            clf._append_rows(
                _ring_span(self._mem_x[row].T, start, hi),
                _ring_span(self._mem_y[row], start, hi),
            )

    # -- batched kernels ----------------------------------------------------

    def _classify(self, sel, feats: np.ndarray) -> np.ndarray:
        """Batched k-NN majority vote: one label per selected row."""
        shape = (feats.shape[0], self._mem_cap)
        d2 = squared_distances(
            feats, self._mem_x[sel], out=self._buf("d2", shape),
            work=self._buf("d2_work", shape),
        )
        _, slots = lexicographic_topk(d2, self._k, tie_keys=self._mem_abs[sel])
        neighbor_labels = np.take_along_axis(self._mem_y[sel], slots, axis=1)
        return majority_vote(neighbor_labels)

    def _features(self, sel, frames: np.ndarray) -> np.ndarray:
        """Stacked PCA projection (or the frames themselves, PCA off)."""
        if self._n_features == self._window:
            return frames
        n = frames.shape[0]
        centered = self._buf("centered", (n, self._window))
        np.subtract(frames, self._pmean[sel], out=centered)
        comp_t = self._pcomp[sel].transpose(0, 2, 1)
        feats3 = self._buf("feats3", (n, 1, self._n_features))
        np.matmul(centered[:, None, :], comp_t, out=feats3)
        return feats3[:, 0, :]

    def _pool_predict(self, sel, frames: np.ndarray) -> np.ndarray:
        """``(n, 3)`` predictions of every pool member (label order) over
        each selected row's frame: the trainer's kernel with N = 1."""
        ar = StackedARParams(self._ar_phi[sel], self._ar_mu[sel])
        return paper_pool_predict_frames_stacked(frames[:, None, :], ar)[:, 0]

    def _forecast_rows(
        self, sel, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, normalized values, labels) for the *n* selected rows."""
        tel = self._fleet._tel
        tracer = tel.tracer if tel is not None else None
        t = perf_counter() if tracer is not None else 0.0
        mu = self._mu[sel]
        sigma = self._sigma[sel]
        frames = self._buf("frames", (n, self._window))
        np.subtract(self._tails[sel, 1:], mu[:, None], out=frames)
        np.divide(frames, sigma[:, None], out=frames)
        t = _lap(tracer, "tick.zscore", t, n)
        feats = self._features(sel, frames)
        t = _lap(tracer, "tick.pca_project", t, n)
        labels = self._classify(sel, feats)
        t = _lap(tracer, "tick.knn_query", t, n)
        preds = self._pool_predict(sel, frames)
        voted = np.take_along_axis(preds, labels[:, None] - 1, axis=1)
        normalized = voted[:, 0]
        _lap(tracer, "tick.pool_dispatch", t, n)
        values = self._buf("values", (n,))
        np.multiply(normalized, sigma, out=values)
        np.add(values, mu, out=values)
        return values, normalized, labels

    # -- fleet-facing operations --------------------------------------------

    @_locked
    def forecast_batch(self, names=None) -> dict[str, Forecast]:
        """Batched :meth:`PredictionFleet.forecast_all` for served streams.

        *names* is the fleet-ordered candidate list (``None`` = every
        served stream); streams not served by the engine are skipped
        (the fleet loops over those). Each forecast is kept in the
        engine for the matching :meth:`ingest_batch` to audit, and
        becomes its stream's ``pending`` forecast at the next check-out.
        """
        self.sync()
        if not self._rows:
            return {}
        if names is None:
            entries = self._rows
            sel = slice(0, len(entries))
        else:
            entries = [
                e for name in names
                if (e := self._entries.get(name)) is not None
            ]
            if not entries:
                return {}
            sel = self._selector(np.fromiter(
                (e.row for e in entries), dtype=np.intp, count=len(entries)
            ))
        values, normalized, labels = self._forecast_rows(sel, len(entries))
        self._pend_value[sel] = values
        self._pend_norm[sel] = normalized
        self._pend_label[sel] = labels
        self._fresh[sel] = True
        self._dirty[sel] = True
        out: dict[str, Forecast] = {}
        new = object.__new__
        # Forecast(value, norm, label, name), its slots filled through
        # the member descriptors instead of the frozen dataclass's
        # guarded __init__.
        set_value = Forecast.value.__set__
        set_norm = Forecast.normalized_value.__set__
        set_label = Forecast.predictor_label.__set__
        set_name = Forecast.predictor_name.__set__
        for entry, value, norm, label, name in zip(
            entries, values.tolist(), normalized.tolist(), labels.tolist(),
            _POOL_NAMES[labels].tolist(),
        ):
            fc = new(Forecast)
            set_value(fc, value)
            set_norm(fc, norm)
            set_label(fc, label)
            set_name(fc, name)
            out[entry.name] = fc
        return out

    @_locked
    def ingest_batch(self, names: list, values: np.ndarray) -> dict[str, int]:
        """Batched trained-stream ingest: audit, learn, schedule retrains.

        *names* and *values* are one tick's validated input in the
        caller's order; streams the engine does not serve are skipped
        (the fleet loops over those). Returns the learned label per
        served stream. Mirrors the per-stream loop in
        :meth:`PredictionFleet.ingest` exactly: once checked out, every
        per-stream state object (QA, selections, predictor history,
        classifier memory) is in the identical state. Besides the
        engine's arrays, the tick writes only the breached QAs'
        ``breaches_total``; ``on_breach`` callbacks run after the arrays
        are final, on their checked-out stream.
        """
        if not self._rows:
            return {}
        if names == self._names:
            entries = self._rows
            sel = slice(0, len(entries))
        else:
            lookup = self._entries
            keep = [i for i, name in enumerate(names) if name in lookup]
            if not keep:
                return {}
            if len(keep) < len(names):
                names = [names[i] for i in keep]
                values = values[keep]
            entries = [lookup[name] for name in names]
            sel = self._selector(np.fromiter(
                (e.row for e in entries), dtype=np.intp, count=len(entries)
            ))
        fleet = self._fleet
        tel = fleet._tel
        tracer = tel.tracer if tel is not None else None
        t = perf_counter() if tracer is not None else 0.0
        n = len(entries)
        rows = self._row_index[sel]
        mu = self._mu[sel]
        sigma = self._sigma[sel]

        # 1. Audit the forecast that predicted this tick. A row without
        # a fresh batched forecast audits its stream's pending forecast
        # when the loop would (one made per-stream since the row's last
        # check-out), and otherwise gets one recomputed in one batched
        # pass, exactly like the loop's inline predictor.forecast().
        stale = np.flatnonzero(~self._fresh[sel])
        if stale.size:
            recompute = []
            for i in stale.tolist():
                entry = entries[i]
                state = entry.state
                fc = state._pending
                if (
                    fc is not None
                    and not self._dirty[entry.row]
                    and state.pending_at == len(entry.predictor._history)
                ):
                    self._pend_norm[entry.row] = fc.normalized_value
                    self._pend_label[entry.row] = fc.predictor_label
                else:
                    recompute.append(entry.row)
            if recompute:
                redo = np.asarray(recompute, dtype=np.intp)
                _, redo_norm, redo_labels = self._forecast_rows(
                    self._selector(redo), redo.size
                )
                self._pend_norm[redo] = redo_norm
                self._pend_label[redo] = redo_labels
        pending_label = self._pend_label[sel]
        errs = self._buf("qa_errs", (n,))
        np.subtract(values, mu, out=errs)
        np.divide(errs, sigma, out=errs)
        np.subtract(self._pend_norm[sel], errs, out=errs)
        if not np.isfinite(errs).all():
            # A non-finite pair must raise exactly like the per-stream
            # loop: at its stream, with the streams before it in the
            # tick fully processed. Serve none of the tick here: the
            # fleet runs all of it per-stream, detaching each stream
            # before it writes the stream's objects.
            return {}
        np.multiply(errs, errs, out=errs)
        w = self._qa_window
        # The running sum replays record()'s subtract-oldest-then-add
        # order. A window still filling holds 0.0 in its oldest slot,
        # and x - 0.0 == x, so no row needs a branch.
        self._qa_sum[sel] = (self._qa_sum[sel] - self._qa_ring[sel, 0]) + errs
        self._shift_append(self._qa_ring, sel, errs)
        counts = np.minimum(self._qa_count[sel] + 1, w)
        self._qa_count[sel] = counts
        steps = self._qa_step[sel] + 1
        self._qa_step[sel] = steps
        audited = np.flatnonzero(steps % self._qa_interval == 0)
        if audited.size:
            ring = self._qa_ring[sel]
            mses = np.empty(audited.size, dtype=np.float64)
            acounts = counts[audited]
            for count in np.unique(acounts):
                grp = acounts == count
                # Trailing slices of fancy-selected rows are contiguous
                # copies, so this row-sum reduces each window in the
                # exact order np.mean reduces the per-stream deque.
                mses[grp] = ring[audited[grp], w - int(count) :].sum(
                    axis=1
                ) / int(count)
            breached = mses > self._qa_threshold
            self._qa_due[rows[audited[breached]]] = True
        t = _lap(tracer, "tick.audit", t, n)

        # 2-4. Store the values and learn the windows they complete.
        labels, t = self._learn(sel, rows, values, mu, sigma, tracer, t)

        # 5. What the per-stream objects now lag behind: one more tick,
        # and one more selection of the member that forecast it.
        self._tick_seq += 1
        member = pending_label - 1
        picked = self._sel[rows, member]
        first = picked == 0
        if first.any():
            self._sel_first[rows[first], member[first]] = self._tick_seq
        self._sel[rows, member] = picked + 1
        self._deferred[sel] += 1
        self._dirty[sel] = True
        self._fresh[sel] = False

        if audited.size:
            self._record_audits(entries, audited, mses, breached, steps)
        for i in np.flatnonzero(self._qa_due[sel]).tolist():
            fleet._retrain.schedule(entries[i].state, initial=False)
        _lap(tracer, "tick.memory_learn", t, n)
        return dict(zip(names, labels.tolist()))

    def _learn(
        self, sel, rows: np.ndarray, values: np.ndarray, mu: np.ndarray,
        sigma: np.ndarray, tracer=None, t: float = 0.0,
    ) -> tuple[np.ndarray, float]:
        """The learn half of a tick for rows *sel* (``rows`` as indices):
        store *values* and learn the windows they complete, as
        ``observe()`` does per stream. Returns the learned labels and,
        when *tracer* records the phases (from *t* on), the end of the
        last one.
        """
        n = values.shape[0]
        # 2. Advance the stacked tail and the history ring.
        self._shift_append(self._tails, sel, values)
        hist_hi = self._hist_hi[sel]
        if self._hist_cap != self._history_limit:
            top = int(hist_hi.max())
            if top >= self._hist_cap:
                self._grow_history(top + 1)
        self._hist[rows, hist_hi % self._hist_cap] = values
        self._hist_hi[sel] = hist_hi + 1
        t = _lap(tracer, "tick.window_stack", t, n)

        # 3. Label the completed windows: stacked pool errors, trailing
        # smoothed MSE argmin (chronological ring slices keep the
        # summation order of the per-stream deque stack).
        win = self._window
        z = self._buf("z", (n, win + 1))
        np.subtract(self._tails[sel], mu[:, None], out=z)
        np.divide(z, sigma[:, None], out=z)
        frames, targets = z[:, :win], z[:, win]
        sq = self._pool_predict(sel, frames)
        np.subtract(sq, targets[:, None], out=sq)
        np.multiply(sq, sq, out=sq)
        L = self._smoothing
        self._shift_append(self._sqring, sel, sq)
        live = np.minimum(self._sq_count[sel] + 1, L)
        self._sq_count[sel] = live
        sums = self._buf("sums", (n, 3))
        ring = self._sqring[sel]
        for count in np.unique(live):
            grp = live == count
            sums[grp] = ring[grp, L - count :, :].sum(axis=1)
        labels = np.argmin(sums, axis=1).astype(np.int64) + 1
        t = _lap(tracer, "tick.label_pool", t, n)

        # 4. Learn: each classifier's append and eviction (down to
        # max_memory), as one scatter into the memory ring. The ring is
        # sized by the live count *after* eviction, so a memory full at
        # max_memory writes its new row into the slot its oldest row
        # frees.
        feats = self._features(sel, frames)
        lo = self._mem_lo[rows]
        hi = self._mem_hi[rows]
        new_lo = np.maximum(lo, hi + 1 - self._max_mem[rows])
        gone = new_lo - lo
        needed = int((hi + 1 - new_lo).max())
        if needed > self._mem_cap:
            self._grow_memory(needed)
        cap = self._mem_cap
        if gone.any():
            # Retire evicted slots first: the new row may reuse one.
            one = gone == 1
            freed = lo[one] % cap
            self._mem_x[rows[one], :, freed] = np.inf
            self._mem_abs[rows[one], freed] = _DEAD_KEY
            for i in np.flatnonzero(gone > 1).tolist():
                self._retire(int(rows[i]), int(lo[i]), int(new_lo[i]))
        slots = hi % cap
        self._mem_x[rows, :, slots] = feats
        self._mem_y[rows, slots] = labels
        self._mem_abs[rows, slots] = hi
        self._mem_hi[sel] = hi + 1
        self._mem_lo[sel] = new_lo
        return labels, t

    @_locked
    def replay(self, streams: list) -> list:
        """Learn what freshly swapped-in models missed, on their rows.

        *streams* holds ``(state, values)`` pairs: a stream whose
        retrained model the fleet has just installed or swapped in, and
        the values the stream ingested while that model trained, in
        tick order. The engine attaches the swapped-in models, then runs
        the learn half of a tick once per replayed value over every row
        that still has one: the rows end exactly where
        ``observe_many(values)`` would leave each model, and the models'
        objects catch up at their next check-out. Returns the pairs of
        streams the engine does not serve, for the caller to replay per
        stream.
        """
        self.sync()
        rest, rows, queues = [], [], []
        for state, values in streams:
            entry = state._entry
            if entry is None:
                rest.append((state, values))
            else:
                rows.append(entry.row)
                queues.append(values)
        if not rows:
            return rest
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.array([len(values) for values in queues], dtype=np.int64)
        padded = np.zeros((len(rows), int(lengths.max())), dtype=np.float64)
        for i, values in enumerate(queues):
            padded[i, : len(values)] = values
        # Owed before the rows change: a check-out from another thread
        # then waits for the lock and sees every replayed value.
        self._replayed[rows] += lengths
        self._dirty[rows] = True
        for t in range(padded.shape[1]):
            live = lengths > t
            step = rows[live]
            sel = self._selector(step)
            self._learn(
                sel, step, padded[live, t], self._mu[sel], self._sigma[sel]
            )
        return rest

    def _record_audits(self, entries, audited, mses, breached, steps) -> None:
        """Record this tick's breaches on the breached streams' QAs.

        Each breached QA gets the ``breaches_total`` bump and the
        ``AuditRecord`` ``qa.record`` would have given it; the audits
        that did not breach need nothing, since ``audits_total`` follows
        from the step, which, with the error window and breach latch,
        follows at the stream's next check-out. A breached stream with
        an ``on_breach`` callback is checked out first, so the callback
        sees the QA the loop would show it. Breaches go to the fleet's
        telemetry, aggregated.
        """
        breaches: list[tuple[str, AuditRecord]] = []
        hit = audited[breached]
        for i, mse, step in zip(
            hit.tolist(), mses[breached].tolist(), steps[hit].tolist()
        ):
            entry = entries[i]
            qa = entry.qa
            record = AuditRecord(step=step, window_mse=mse, breached=True)
            qa.breaches_total += 1
            breaches.append((entry.name, record))
            if qa.on_breach is not None:
                self.checkout(entry)
                qa.on_breach(record)
        if self._fleet._tel is not None:
            self._fleet._note_audits(len(mses), breaches)
