"""The batched fleet tick engine: one tick, a handful of NumPy ops.

:class:`~repro.serving.fleet.PredictionFleet`'s original tick loop ran
every stream through its own Python call chain — per-stream
``prepare_tail``, a single-point k-NN query, a single-frame
``predict_next`` — so a fleet tick cost N interpreter round-trips and
never touched BLAS with more than one row. This engine executes the
same tick *fleet-wide*:

* the trailing windows of all trained streams live in one
  ``(n_streams, window + 1)`` matrix, rolled once per tick;
* per-stream z-score coefficients and PCA bases are stacked
  (:mod:`repro.preprocess.stacked`) so normalization is one broadcast
  and feature projection one 3-D ``matmul``;
* every stream's k-NN memory is mirrored into a padded
  ``(n_streams, capacity, d)`` tensor (ring layout by absolute row
  index) with cached squared norms, so the fleet's N single-point
  queries become one batched distance computation plus one
  deterministic top-k selection (:mod:`repro.learn.topk`). The ring is
  sized by the deepest live memory *after* eviction, so memories full
  at ``max_memory`` write each new row into the slot their oldest row
  frees. Dead slots are encoded in the mirror itself — a ``+inf``
  squared norm and a tie key above every live row's — so they rank
  behind every live row with no per-tick mask;
* classifier-selected predictors are dispatched *grouped by member*
  (:mod:`repro.predictors.stacked`): LAST, AR, and SW_AVG each run once
  over all streams that selected them;
* every stream's QA error window is mirrored into one
  ``(n_streams, audit_window)`` ring, so the per-tick audits run as
  vectorized kernels (one modulo for the audit boundaries, grouped
  row-sums for the window MSEs) instead of S ``record()`` calls.

Gather-free fast path
---------------------
The common tick selects *every* attached row in storage order. Basic
(slice) indexing then replaces the fancy-index gathers, so the kernels
read **views** of the stacked tensors instead of copying the whole
``(S, cap, d)`` memory mirror per tick; per-tick scratch buffers
(frames, features, distances, the audit kernels) are recycled across
ticks instead of reallocated. Partial row subsets fall back to the
fancy-index path bit-identically. Setting :attr:`BatchedTickEngine.
gather_free` to ``False`` disables the fast path *and* the stacked
QA/bookkeeping kernels, restoring the previous engine's per-stream
bookkeeping — the baseline the benchmark gate measures against and a
second parity oracle for the tests.

Bit-exactness contract
----------------------
The engine is an execution strategy, not a model change: for every
stream it must produce bit-identical results to the per-stream loop —
same forecasts, same selected labels, same learned memory, same QA
audit history and telemetry counters. Every kernel above was chosen for
that property (elementwise broadcasts, row-wise reductions, stacked
``matmul`` whose slices hit the same BLAS calls, grouped trailing-slice
row-sums that reproduce ``np.mean``'s summation order, and a shared
lexicographic top-k rule for distance ties); the parity suites in
``tests/test_serving_engine.py`` and
``tests/test_serving_qa_stacked.py`` lock it in.

Eligibility and fallback
------------------------
A trained stream is served by the engine only when its components match
what the stacked kernels cover: the paper pool (LAST/AR/SW_AVG), a
fixed-size (or disabled) PCA, a uniform-weight
:class:`~repro.learn.knn.KNNClassifier` whose backend resolves to
``brute`` (the KD-tree path answers queries through its own traversal
order and is left per-stream), and a plain
:class:`~repro.core.qa.PredictionQualityAssuror` with the fleet's audit
geometry. Everything else transparently falls back to the per-stream
loop, stream by stream. Per-stream QA objects stay the source of truth:
the engine writes every record back, and reloads its mirror whenever a
QA's ``version`` counter shows someone else mutated it (a retrain's
``acknowledge_retraining``, a ``load_state_dict``, a per-stream-loop
tick) — exactly like classifier memory resyncs.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.larpredictor import Forecast
from repro.core.online import OnlineLARPredictor
from repro.core.qa import AuditRecord, PredictionQualityAssuror
from repro.learn.knn import KNNClassifier, bulk_learn_rows
from repro.learn.topk import lexicographic_topk
from repro.learn.voting import majority_vote
from repro.predictors.stacked import (
    StackedARParams,
    ar_predict_stacked,
    is_paper_pool,
    paper_pool_predict_all_stacked,
)

__all__ = ["BatchedTickEngine"]

_POOL_NAMES = ("LAST", "AR", "SW_AVG")
_MIN_ROW_CAPACITY = 4
#: Tie key of a dead ring slot. It sorts after every live row's
#: absolute index, so a dead slot (distance ``+inf`` through its
#: ``_mem_bb``) loses even to a live row whose distance overflowed.
_DEAD_KEY = np.iinfo(np.int64).max


def _pow2_at_least(n: int) -> int:
    cap = 1
    while cap < n:
        cap *= 2
    return cap


class _Entry:
    """Engine-side bookkeeping for one attached stream."""

    __slots__ = ("name", "predictor", "classifier", "qa", "row", "generation",
                 "synced_appended", "sq_count", "qa_version", "max_memory")

    def __init__(self, name: str, predictor: OnlineLARPredictor, row: int):
        self.name = name
        self.predictor = predictor
        self.classifier = predictor._classifier
        self.qa: PredictionQualityAssuror | None = None
        self.row = row
        self.generation = -1
        self.synced_appended = 0
        self.sq_count = 0
        self.qa_version = -1
        self.max_memory = predictor.max_memory


class BatchedTickEngine:
    """Stacked per-stream state + batched tick kernels for one fleet.

    The engine self-synchronizes: :meth:`sync` diffs the fleet's stream
    table against its registry before every batched operation, attaching
    newly trained streams, refreshing retrained ones (the predictor
    object identity changes), and detaching removed ones. Between
    retrains it keeps its memory mirror up to date incrementally via
    the classifier's ``store_generation`` / ``appended_total_`` /
    ``discarded_total_`` counters — the common case (one appended row
    per stream per tick) is a single vectorized scatter — and its QA
    mirror up to date via the assuror's ``version`` counter.

    Attributes
    ----------
    gather_free:
        ``True`` (default) serves contiguous row selections through
        zero-copy views, recycles scratch buffers across ticks, records
        QA audits through the stacked ring, and appends classifier rows
        through :func:`~repro.learn.knn.bulk_learn_rows`. ``False``
        restores the previous engine's behavior — fancy-index gathers,
        fresh allocations, per-stream ``qa.record`` /
        ``_note_audit`` / ``_append_rows`` calls
        — bit-identical output either way (the benchmark gate times
        one against the other).
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        cfg = fleet.config
        self._window = cfg.lar.window
        self._k = cfg.lar.k
        self._ar_order = cfg.lar.effective_ar_order
        self._smoothing = cfg.label_smoothing
        self._qa_window = cfg.audit_window
        self._qa_interval = cfg.audit_interval
        self._qa_threshold = float(cfg.qa_threshold)
        self.gather_free = True
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
        self._rows: list[_Entry] = []
        # Per-tick scratch, keyed by call site; _buf returns the cached
        # array whenever the requested shape still matches, so the
        # steady-state tick allocates nothing.
        self._scratch: dict[str, np.ndarray] = {}
        # The ring tracks the deepest stream's live memory, not the
        # configured cap: distances are computed over every slot (dead
        # ones included), so padding the ring to max_memory up front
        # would multiply the per-tick work while memories are still
        # shallow. _grow_memory doubles it as streams accumulate rows.
        self._mem_cap = _pow2_at_least(2 * self._k)
        self._alloc(_MIN_ROW_CAPACITY)

    # -- storage ------------------------------------------------------------

    def _alloc(self, row_cap: int) -> None:
        w, d, L = self._window, self._n_features, self._smoothing
        self._tails = np.empty((row_cap, w + 1), dtype=np.float64)
        self._mu = np.empty(row_cap, dtype=np.float64)
        self._sigma = np.empty(row_cap, dtype=np.float64)
        self._pmean = np.empty((row_cap, w), dtype=np.float64)
        self._pcomp = np.empty((row_cap, d, w), dtype=np.float64)
        self._ar_phi = np.empty((row_cap, self._ar_order), dtype=np.float64)
        self._ar_mu = np.empty(row_cap, dtype=np.float64)
        self._sqring = np.zeros((row_cap, L, 3), dtype=np.float64)
        # Stacked QA mirror: each row holds the stream's audit window
        # oldest-first (zero-padded on the left while warming up), plus
        # its live pair count and step counter.
        self._qa_ring = np.zeros((row_cap, self._qa_window), dtype=np.float64)
        self._qa_count = np.zeros(row_cap, dtype=np.int64)
        self._qa_step = np.zeros(row_cap, dtype=np.int64)
        self._alloc_memory(row_cap)
        self._mem_lo = np.zeros(row_cap, dtype=np.int64)
        self._mem_hi = np.zeros(row_cap, dtype=np.int64)

    def _alloc_memory(self, row_cap: int) -> None:
        """Fresh memory mirror at the current ring capacity, all dead.

        A dead slot holds ``+inf`` in ``_mem_bb`` and :data:`_DEAD_KEY`
        in ``_mem_abs``: its distance computes to ``+inf`` (its stale
        ``_mem_x`` stays finite) and it sorts after every live row, so
        the distance kernel needs no per-tick mask.
        """
        cap, d = self._mem_cap, self._n_features
        self._mem_x = np.zeros((row_cap, cap, d), dtype=np.float64)
        self._mem_y = np.empty((row_cap, cap), dtype=np.int64)
        self._mem_bb = np.full((row_cap, cap), np.inf, dtype=np.float64)
        self._mem_abs = np.full((row_cap, cap), _DEAD_KEY, dtype=np.int64)

    def _row_arrays(self) -> tuple:
        return (self._tails, self._mu, self._sigma, self._pmean, self._pcomp,
                self._ar_phi, self._ar_mu, self._sqring, self._qa_ring,
                self._qa_count, self._qa_step, self._mem_x, self._mem_y,
                self._mem_bb, self._mem_abs, self._mem_lo, self._mem_hi)

    def _grow_rows(self) -> None:
        old = self._row_arrays()
        n = len(self._rows)
        self._alloc(2 * self._tails.shape[0])
        for dst, src in zip(self._row_arrays(), old):
            dst[:n] = src[:n]

    def _grow_memory(self, needed: int) -> None:
        """Widen the per-stream memory mirror; rows reload lazily."""
        self._mem_cap = _pow2_at_least(needed)
        self._alloc_memory(self._tails.shape[0])
        for entry in self._rows:
            entry.generation = -1  # force a full reload on next sync

    def _buf(self, name: str, shape: tuple) -> np.ndarray:
        """A recycled float64 scratch array (fresh when gather_free off)."""
        if not self.gather_free:
            return np.empty(shape, dtype=np.float64)
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._scratch[name] = buf
        return buf

    def _selector(self, rows: np.ndarray):
        """A basic-indexing slice when *rows* is consecutive, else *rows*.

        Slices make every gather below a zero-copy view; the returned
        selector is only ever used for reads (scatters keep the fancy
        ``rows`` array, whose pointwise semantics a slice cannot
        express).
        """
        if not self.gather_free:
            return rows
        n = rows.shape[0]
        first = int(rows[0])
        if int(rows[n - 1]) - first == n - 1 and (
            n <= 2 or bool((rows[1:] > rows[:-1]).all())
        ):
            return slice(first, first + n)
        return rows

    @staticmethod
    def _shift_append(arr: np.ndarray, sel, rows: np.ndarray, new) -> None:
        """Roll ``arr[sel]`` one step left along axis 1, appending *new*."""
        if isinstance(sel, slice):
            view = arr[sel]
            view[:, :-1] = view[:, 1:]
            view[:, -1] = new
        else:
            arr[rows, :-1] = arr[rows, 1:]
            arr[rows, -1] = new

    # -- membership ---------------------------------------------------------

    def prepare(self) -> None:
        """Reconcile membership and memory mirrors with the fleet.

        Call once before a batched operation (or a batch of them within
        one tick); :meth:`forecast_batch` calls it itself,
        :meth:`PredictionFleet.ingest` calls it before filtering streams
        through :meth:`serves`.
        """
        self.sync()
        if self._rows:
            self._sync_memory()

    def sync(self) -> None:
        """Reconcile the registry with the fleet's current stream table."""
        if not self._supported:
            return
        states = self._fleet._streams
        stale = [
            e for e in self._rows
            if (s := states.get(e.name)) is None or s.predictor is not e.predictor
        ]
        for entry in stale:
            self._detach(entry)
        for name, state in states.items():
            if state.predictor is not None and name not in self._entries:
                self._try_attach(name, state.predictor)

    def serves(self, name: str) -> bool:
        """Whether *name* is currently served by the batched path."""
        return name in self._entries

    def _try_attach(self, name: str, predictor: OnlineLARPredictor) -> None:
        if not self._eligible(predictor):
            return
        state = self._fleet._streams.get(name)
        qa = state.qa if state is not None else None
        # The stacked QA ring shares one geometry across rows, so a
        # stream whose assuror diverges from the fleet policy (or is a
        # subclass with its own behavior) stays on the per-stream loop.
        if (
            type(qa) is not PredictionQualityAssuror
            or qa.audit_window != self._qa_window
            or qa.audit_interval != self._qa_interval
            or qa.threshold != self._qa_threshold
        ):
            return
        if len(self._rows) == self._tails.shape[0]:
            self._grow_rows()
        entry = _Entry(name, predictor, len(self._rows))
        entry.qa = qa
        self._rows.append(entry)
        self._entries[name] = entry
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
        self._tails[row] = predictor._tail(self._window + 1)
        self._sqring[row] = 0.0
        entry.sq_count = len(predictor._recent_sq)
        if entry.sq_count:
            self._sqring[row, self._smoothing - entry.sq_count :] = np.stack(
                list(predictor._recent_sq), axis=0
            )
        self._reload_qa(entry)
        self._reload_memory(entry)

    def _detach(self, entry: _Entry) -> None:
        last = self._rows[-1]
        if last is not entry:
            # Swap-remove: move the last row's data into the freed slot.
            dst, src = entry.row, last.row
            for arr in self._row_arrays():
                arr[dst] = arr[src]
            last.row = dst
            self._rows[dst] = last
        self._rows.pop()
        del self._entries[entry.name]

    def _eligible(self, predictor: OnlineLARPredictor) -> bool:
        clf = predictor._classifier
        if type(clf) is not KNNClassifier or clf.weights != "uniform":
            return False
        if clf._tree is not None or clf._resolve_backend() != "brute":
            return False
        pool = predictor._runner.pool
        if not is_paper_pool(pool):
            return False
        if pool[1].order != self._ar_order or pool[2].window is not None:
            return False
        pca = predictor._runner.pipeline.pca
        if pca is None:
            return self._n_features == self._window
        return pca.components_.shape == (self._n_features, self._window)

    # -- memory mirror ------------------------------------------------------

    def _reload_memory(self, entry: _Entry) -> None:
        clf = entry.classifier
        lo, hi = clf.discarded_total_, clf.appended_total_
        if hi - lo > self._mem_cap:
            self._grow_memory(hi - lo)
        row = entry.row
        abs_idx = np.arange(lo, hi, dtype=np.int64)
        slots = abs_idx % self._mem_cap
        self._mem_abs[row] = _DEAD_KEY
        self._mem_bb[row] = np.inf
        self._mem_abs[row, slots] = abs_idx
        self._mem_x[row, slots] = clf._X
        self._mem_y[row, slots] = clf._y
        self._mem_bb[row, slots] = np.einsum("ij,ij->i", clf._X, clf._X)
        self._mem_lo[row] = lo
        self._mem_hi[row] = hi
        entry.generation = clf.store_generation
        entry.synced_appended = hi

    def _retire(self, row: int, lo: int, hi: int) -> None:
        """Mark the ring slots of absolute rows ``lo .. hi - 1`` dead."""
        slots = np.arange(lo, hi, dtype=np.int64) % self._mem_cap
        self._mem_bb[row, slots] = np.inf
        self._mem_abs[row, slots] = _DEAD_KEY

    def _reload_qa(self, entry: _Entry) -> None:
        """Mirror one stream's QA error window into the stacked ring."""
        qa = entry.qa
        row = entry.row
        w = self._qa_window
        count = len(qa._sq_errors)
        self._qa_ring[row] = 0.0
        if count:
            self._qa_ring[row, w - count :] = qa._sq_errors
        self._qa_count[row] = count
        self._qa_step[row] = qa._step
        entry.qa_version = qa.version

    def _sync_memory(self) -> list[_Entry]:
        """Bring every row's memory and QA mirrors up to date.

        Returns entries that stopped being batchable (e.g. the auto
        backend crossed over to the KD-tree as the memory grew); the
        caller detaches them and serves those streams per-stream.
        """
        demoted: list[_Entry] = []
        qa_live = self.gather_free
        cap = self._mem_cap
        for entry in self._rows:
            clf = entry.classifier
            if clf._tree is not None or clf._resolve_backend() != "brute":
                demoted.append(entry)
                continue
            # The engine's own write-backs leave `version` untouched, so
            # a mismatch means someone else mutated the QA (a retrain's
            # acknowledge_retraining, a per-stream-loop tick, a restore)
            # and this row's window mirror must be rebuilt.
            if qa_live and entry.qa_version != entry.qa.version:
                self._reload_qa(entry)
            if entry.generation != clf.store_generation:
                self._reload_memory(entry)
                continue
            row = entry.row
            lo, hi = clf.discarded_total_, clf.appended_total_
            if hi - lo > self._mem_cap:
                self._grow_memory(hi - lo)
                self._reload_memory(entry)
                continue
            mirror_lo = int(self._mem_lo[row])
            if lo != mirror_lo:
                # Rows retired outside the engine's learn step (a
                # per-stream-loop tick, a direct discard_oldest). Retire
                # before appending: a new row may reuse a freed slot.
                self._retire(row, mirror_lo, min(lo, entry.synced_appended))
                self._mem_lo[row] = lo
            if hi != entry.synced_appended:
                rows_x, rows_y, first = clf.rows_since(entry.synced_appended)
                abs_idx = np.arange(first, hi, dtype=np.int64)
                slots = abs_idx % self._mem_cap
                self._mem_x[row, slots] = rows_x
                self._mem_y[row, slots] = rows_y
                self._mem_abs[row, slots] = abs_idx
                self._mem_bb[row, slots] = np.einsum(
                    "ij,ij->i", rows_x, rows_x
                )
                entry.synced_appended = hi
                self._mem_hi[row] = hi
        for entry in demoted:
            self._detach(entry)
        if self._mem_cap != cap:
            # The ring grew mid-pass, which emptied the rows synced
            # before the growth; reload them before anyone queries.
            demoted += self._sync_memory()
        return demoted

    # -- batched kernels ----------------------------------------------------

    def _classify(self, sel, feats: np.ndarray) -> np.ndarray:
        """Batched k-NN majority vote: one label per selected row."""
        mem_x = self._mem_x[sel]
        n, cap = feats.shape[0], mem_x.shape[1]
        aa = self._buf("aa", (n,))
        np.einsum("ij,ij->i", feats, feats, out=aa)
        cross3 = self._buf("cross3", (n, 1, cap))
        np.matmul(feats[:, None, :], mem_x.transpose(0, 2, 1), out=cross3)
        cross = cross3[:, 0, :]
        d2 = self._buf("d2", (n, cap))
        np.add(aa[:, None], self._mem_bb[sel], out=d2)
        np.multiply(cross, 2.0, out=cross)
        np.subtract(d2, cross, out=d2)
        np.maximum(d2, 0.0, out=d2)
        _, slots = lexicographic_topk(d2, self._k, tie_keys=self._mem_abs[sel])
        neighbor_labels = np.take_along_axis(self._mem_y[sel], slots, axis=1)
        return majority_vote(neighbor_labels)

    def _features(self, sel, frames: np.ndarray) -> np.ndarray:
        """Stacked PCA projection (or the frames themselves, PCA off)."""
        if self._n_features == self._window:
            if frames.flags.c_contiguous:
                return frames
            feats = self._buf("feats_copy", frames.shape)
            np.copyto(feats, frames)
            return feats
        n = frames.shape[0]
        centered = self._buf("centered", (n, self._window))
        np.subtract(frames, self._pmean[sel], out=centered)
        comp_t = self._pcomp[sel].transpose(0, 2, 1)
        feats3 = self._buf("feats3", (n, 1, self._n_features))
        np.matmul(centered[:, None, :], comp_t, out=feats3)
        return feats3[:, 0, :]

    def _pool_dispatch(
        self, sel, frames: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Run each selected pool member once over its group of rows."""
        normalized = self._buf("normalized", (frames.shape[0],))
        ar_rows = labels == 2
        if ar_rows.any():
            ar = StackedARParams(
                self._ar_phi[sel][ar_rows], self._ar_mu[sel][ar_rows]
            )
            normalized[ar_rows] = ar_predict_stacked(frames[ar_rows], ar)
        last_rows = labels == 1
        if last_rows.any():
            normalized[last_rows] = frames[last_rows][:, -1]
        sw_rows = labels == 3
        if sw_rows.any():
            normalized[sw_rows] = frames[sw_rows].mean(axis=1)
        return normalized

    def _forecast_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, normalized values, labels) for the selected rows."""
        tel = self._fleet._tel
        if tel is not None:
            return self._forecast_rows_traced(rows, tel.tracer)
        sel = self._selector(rows)
        n = rows.shape[0]
        mu = self._mu[sel]
        sigma = self._sigma[sel]
        frames = self._buf("frames", (n, self._window))
        np.subtract(self._tails[sel, 1:], mu[:, None], out=frames)
        np.divide(frames, sigma[:, None], out=frames)
        feats = self._features(sel, frames)
        labels = self._classify(sel, feats)
        normalized = self._pool_dispatch(sel, frames, labels)
        values = self._buf("values", (n,))
        np.multiply(normalized, sigma, out=values)
        np.add(values, mu, out=values)
        return values, normalized, labels

    def _forecast_rows_traced(
        self, rows: np.ndarray, tracer
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_forecast_rows` with per-phase tracing spans."""
        sel = self._selector(rows)
        n = rows.shape[0]
        mu = self._mu[sel]
        sigma = self._sigma[sel]
        with tracer.span("tick.zscore", batch=n):
            frames = self._buf("frames", (n, self._window))
            np.subtract(self._tails[sel, 1:], mu[:, None], out=frames)
            np.divide(frames, sigma[:, None], out=frames)
        with tracer.span("tick.pca_project", batch=n):
            feats = self._features(sel, frames)
        with tracer.span("tick.knn_query", batch=n):
            labels = self._classify(sel, feats)
        with tracer.span("tick.pool_dispatch", batch=n):
            normalized = self._pool_dispatch(sel, frames, labels)
        values = self._buf("values", (n,))
        np.multiply(normalized, sigma, out=values)
        np.add(values, mu, out=values)
        return values, normalized, labels

    # -- stacked QA ----------------------------------------------------------

    def _record_audits_stacked(
        self,
        items: list,
        entries: list,
        sel,
        rows: np.ndarray,
        pending_norm: np.ndarray,
        observed_norm: np.ndarray,
        pending_name: list,
    ) -> "list[tuple[str, AuditRecord]] | None":
        """Record one (prediction, observation) pair per served stream.

        Bit-identical to calling ``state.qa.record(...)`` per stream —
        the audit boundary is one modulo over the stacked step counters,
        window MSEs are grouped trailing-slice row-sums over the stacked
        ring (the summation order ``np.mean`` uses over the deque), and
        everything is written back to the per-stream QA objects, audits
        list and lifetime counters included, without bumping their
        ``version`` (the mirror advanced in lockstep). Returns the
        ``(stream, audit)`` pairs for the fleet's aggregated telemetry
        note, or ``None`` when telemetry is off.
        """
        fleet = self._fleet
        n = len(items)
        w = self._qa_window
        errs = self._buf("qa_errs", (n,))
        np.subtract(pending_norm, observed_norm, out=errs)
        if not np.isfinite(errs).all():
            # A non-finite pair must raise exactly like the per-stream
            # loop (mid-loop, earlier streams already recorded). The
            # version bumps the records make mark the mirror stale, so
            # the next prepare() reloads whatever was mutated.
            for i, (state, _) in enumerate(items):
                state.qa.record(
                    float(pending_norm[i]), float(observed_norm[i])
                )
            raise AssertionError("finite errors must have raised")  # pragma: no cover
        np.multiply(errs, errs, out=errs)
        sq = errs
        ring = self._qa_ring
        self._shift_append(ring, sel, rows, sq)
        if isinstance(sel, slice):
            counts = self._qa_count[sel]
            counts += 1
            np.minimum(counts, w, out=counts)
            steps = self._qa_step[sel]
            steps += 1
        else:
            counts = np.minimum(self._qa_count[rows] + 1, w)
            self._qa_count[rows] = counts
            steps = self._qa_step[rows] + 1
            self._qa_step[rows] = steps
        audited = np.flatnonzero(steps % self._qa_interval == 0)
        audit_info: dict[int, tuple[float, bool]] = {}
        if audited.size:
            ring_sel = ring[sel]
            mses = np.empty(audited.size, dtype=np.float64)
            acounts = counts[audited]
            for count in np.unique(acounts):
                grp = acounts == count
                # Trailing slices of fancy-selected rows are contiguous
                # copies, so this row-sum reduces each window in the
                # exact order np.mean reduces the per-stream deque.
                mses[grp] = ring_sel[audited[grp], w - int(count) :].sum(
                    axis=1
                ) / int(count)
            breached = mses > self._qa_threshold
            for j, i in enumerate(audited.tolist()):
                audit_info[i] = (float(mses[j]), bool(breached[j]))
        tel = fleet._tel
        audited_events: list[tuple[str, AuditRecord]] | None = (
            [] if tel is not None else None
        )
        sq_list = sq.tolist()
        step_list = steps.tolist()
        for i, (state, _) in enumerate(items):
            qa = entries[i].qa
            v = sq_list[i]
            dq = qa._sq_errors
            if len(dq) == w:
                qa._sq_sum -= dq[0]
            dq.append(v)
            qa._sq_sum += v
            qa._step += 1
            info = audit_info.get(i)
            if info is not None:
                window_mse, breach = info
                record = AuditRecord(
                    step=step_list[i], window_mse=window_mse, breached=breach
                )
                qa.audits.append(record)
                qa.audits_total += 1
                if breach:
                    qa.breaches_total += 1
                    qa._retraining_due = True
                    if qa.on_breach is not None:
                        qa.on_breach(record)
                if audited_events is not None:
                    audited_events.append((state.name, record))
            name = pending_name[i]
            state.selections[name] = state.selections.get(name, 0) + 1
            state.pending = None
        return audited_events

    # -- fleet-facing operations --------------------------------------------

    def forecast_batch(self, names) -> dict[str, Forecast]:
        """Batched :meth:`PredictionFleet.forecast_all` for served streams.

        *names* is the fleet-ordered candidate list; streams not served
        by the engine are skipped (the fleet loops over those).
        """
        self.prepare()
        if not self._rows:
            return {}
        entries = [
            e for name in names if (e := self._entries.get(name)) is not None
        ]
        if not entries:
            return {}
        rows = np.fromiter((e.row for e in entries), dtype=np.intp,
                           count=len(entries))
        values, normalized, labels = self._forecast_rows(rows)
        out: dict[str, Forecast] = {}
        for i, entry in enumerate(entries):
            label = int(labels[i])
            out[entry.name] = Forecast(
                value=float(values[i]),
                normalized_value=float(normalized[i]),
                predictor_label=label,
                predictor_name=_POOL_NAMES[label - 1],
            )
        return out

    def ingest_batch(self, items: list) -> dict[str, int]:
        """Batched trained-stream ingest: audit, learn, schedule retrains.

        *items* is a list of ``(state, value)`` pairs for streams the
        engine serves. Returns the learned label per stream. Mirrors
        the per-stream loop in :meth:`PredictionFleet.ingest` exactly —
        every per-stream state object (QA, selections, predictor
        history, classifier memory) ends up in the identical state.
        """
        if not items:
            return {}
        fleet = self._fleet
        tracer = fleet._tel.tracer if fleet._tel is not None else None
        t0 = perf_counter() if tracer is not None else 0.0
        entries = [self._entries[state.name] for state, _ in items]
        n = len(items)
        rows = np.fromiter((e.row for e in entries), dtype=np.intp, count=n)
        sel = self._selector(rows)
        values = np.fromiter((v for _, v in items), dtype=np.float64, count=n)
        mu = self._mu[sel]
        sigma = self._sigma[sel]

        # 1. Audit the forecast that predicted this tick. Streams whose
        # pending forecast is stale (or absent) get it recomputed in one
        # batched pass, exactly like the loop's inline predictor.forecast().
        pending_norm = self._buf("pending", (n,))
        pending_name: list[str | None] = [None] * n
        stale: list[int] = []
        for i, (state, _) in enumerate(items):
            if (
                state.pending is not None
                and state.pending_at == entries[i].predictor.history_length
            ):
                pending_norm[i] = state.pending.normalized_value
                pending_name[i] = state.pending.predictor_name
            else:
                stale.append(i)
        if stale:
            stale_idx = np.asarray(stale, dtype=np.intp)
            _, stale_norm, stale_labels = self._forecast_rows(rows[stale_idx])
            pending_norm[stale_idx] = stale_norm
            for j, i in enumerate(stale):
                pending_name[i] = _POOL_NAMES[int(stale_labels[j]) - 1]
        observed_norm = self._buf("observed", (n,))
        np.subtract(values, mu, out=observed_norm)
        np.divide(observed_norm, sigma, out=observed_norm)
        if self.gather_free:
            audited_events = self._record_audits_stacked(
                items, entries, sel, rows, pending_norm, observed_norm,
                pending_name,
            )
            if audited_events is not None:
                fleet._note_audits_batch(audited_events)
        else:
            for i, (state, _) in enumerate(items):
                audit = state.qa.record(
                    float(pending_norm[i]), float(observed_norm[i])
                )
                fleet._note_audit(state.name, audit)
                name = pending_name[i]
                state.selections[name] = state.selections.get(name, 0) + 1
                state.pending = None
        if tracer is not None:
            t1 = perf_counter()
            tracer.record("tick.audit", t1 - t0, batch=n, start=t0)

        # 2. Advance histories and the stacked tail mirror.
        values_list = values.tolist()
        for i, entry in enumerate(entries):
            entry.predictor._history.append(values_list[i])
        self._shift_append(self._tails, sel, rows, values)
        if tracer is not None:
            t2 = perf_counter()
            tracer.record("tick.window_stack", t2 - t1, batch=n, start=t1)

        # 3. Label the completed windows: stacked pool errors, trailing
        # smoothed MSE argmin (chronological ring slices keep the
        # summation order of the per-stream deque stack).
        w = self._window
        z = self._buf("z", (n, w + 1))
        np.subtract(self._tails[sel], mu[:, None], out=z)
        np.divide(z, sigma[:, None], out=z)
        frames, targets = z[:, :w], z[:, w]
        ar = StackedARParams(self._ar_phi[sel], self._ar_mu[sel])
        # `sq` stays freshly allocated (not scratch): per-stream
        # `_recent_sq` deques hold views of its rows across ticks.
        errors = paper_pool_predict_all_stacked(frames, ar) - targets[:, None]
        np.multiply(errors, errors, out=errors)
        sq = errors
        L = self._smoothing
        ring = self._sqring
        self._shift_append(ring, sel, rows, sq)
        counts = np.empty(n, dtype=np.int64)
        for i, entry in enumerate(entries):
            entry.predictor._recent_sq.append(sq[i])
            entry.sq_count = min(entry.sq_count + 1, L)
            counts[i] = entry.sq_count
        sums = self._buf("sums", (n, 3))
        ring_sel = ring[sel]
        for count in np.unique(counts):
            grp = counts == count
            sums[grp] = ring_sel[grp, L - count :, :].sum(axis=1)
        labels = np.argmin(sums, axis=1).astype(np.int64) + 1
        if tracer is not None:
            t3 = perf_counter()
            tracer.record("tick.label_pool", t3 - t2, batch=n, start=t2)

        # 4. Learn: append the (feature, label) pair to each classifier
        # (evicting down to max_memory), then mirror the step into the
        # stacked memory with one scatter. The ring is sized by the live
        # count *after* eviction, so a memory full at max_memory writes
        # its new row into the slot its oldest row frees.
        feats = self._features(sel, frames)
        if self.gather_free:
            bulk_learn_rows(
                [e.classifier for e in entries], feats, labels,
                [e.max_memory for e in entries],
            )
        else:
            for i, entry in enumerate(entries):
                entry.classifier._append_rows(
                    feats[i : i + 1], labels[i : i + 1]
                )
                entry.predictor._evict_if_needed()
        hi = self._mem_hi[rows]
        old_lo = self._mem_lo[rows]
        new_lo = np.fromiter(
            (e.classifier._discarded for e in entries), dtype=np.int64,
            count=n,
        )
        needed = int((hi + 1 - new_lo).max())
        if needed > self._mem_cap:
            self._grow_memory(needed)  # every row reloads on the next sync
        else:
            cap = self._mem_cap
            gone = new_lo - old_lo
            if gone.any():
                # Retire evicted slots first: the new row may reuse one.
                one = gone == 1
                freed = old_lo[one] % cap
                self._mem_bb[rows[one], freed] = np.inf
                self._mem_abs[rows[one], freed] = _DEAD_KEY
                for i in np.flatnonzero(gone > 1).tolist():
                    self._retire(int(rows[i]), int(old_lo[i]), int(new_lo[i]))
            slots = hi % cap
            self._mem_x[rows, slots] = feats
            self._mem_y[rows, slots] = labels
            self._mem_abs[rows, slots] = hi
            self._mem_bb[rows, slots] = np.einsum("ij,ij->i", feats, feats)
        self._mem_hi[rows] = hi + 1
        self._mem_lo[rows] = new_lo
        learned: dict[str, int] = {}
        label_list = labels.tolist()
        for i, (state, _) in enumerate(items):
            entry = entries[i]
            entry.predictor._windows_learned += 1
            entry.synced_appended = entry.classifier._appended
            learned[state.name] = label_list[i]
            state.ticks += 1
            if state.qa.retraining_due:
                fleet._schedule(state, initial=False)
        if tracer is not None:
            tracer.record(
                "tick.memory_learn", perf_counter() - t3, batch=n, start=t3
            )
        return learned
