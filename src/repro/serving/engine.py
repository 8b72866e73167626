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

Fleet-ordered rows
------------------
Attached rows are kept in the fleet's stream order. A retrained model
is swapped into its stream's existing row, and after adds, removes,
demotions, and out-of-order attaches :meth:`BatchedTickEngine.sync`
restores fleet order with one permutation per row array. A full-fleet
tick therefore always selects ``slice(0, S)``: basic indexing makes
every kernel read **views** of the stacked tensors instead of copying
the ``(S, cap, d)`` memory mirror, and per-tick scratch buffers are
recycled across ticks. Partial row subsets fall back to fancy-index
gathers, bit-identically.

Counter-gated sync
------------------
Each row is stamped with the ``version`` counters of its stream's
predictor, classifier, and QA. The engine's own write-backs leave the
counters alone, so a row whose three counters still match its stamps is
skipped without further checks; a predictor bump (an out-of-band
``observe``, an in-place ``retrain``, a per-stream-loop tick) reloads
the whole row, a classifier bump resyncs its memory, and a QA bump its
error window. Membership is reconciled only when the fleet's
``(epoch, stream count)`` key moves.

One tick, four Python passes
----------------------------
:meth:`BatchedTickEngine.forecast_batch` builds the forecasts and keeps
each row's normalized value and label in the engine, flagged fresh
until the row is ingested or reloaded, so
:meth:`BatchedTickEngine.ingest_batch` audits from those arrays and
recomputes only rows that are not fresh. The ingest then runs its
kernels and writes everything back to the per-stream objects in one
loop (QA window, selections, history, labelling window, classifier
append and eviction), plus a pass over the rows that audited and the
rows whose QA latch is set.

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
from repro.learn.knn import _AUTO_TREE_THRESHOLD, KNNClassifier
from repro.learn.topk import lexicographic_topk
from repro.learn.voting import majority_vote
from repro.predictors.stacked import (
    StackedARParams,
    ar_predict_stacked,
    is_paper_pool,
    paper_pool_predict_all_stacked,
)

__all__ = ["BatchedTickEngine"]

#: Paper-pool member names indexed by label (slot 0 unused).
_POOL_NAMES = np.array(("", "LAST", "AR", "SW_AVG"), dtype=object)
_MIN_ROW_CAPACITY = 4
#: Tie key of a dead ring slot. It sorts after every live row's
#: absolute index, so a dead slot (distance ``+inf`` through its
#: ``_mem_bb``) loses even to a live row whose distance overflowed.
_DEAD_KEY = np.iinfo(np.int64).max
#: ``max_memory`` of an uncapped row: ``hi + 1 - _NO_CAP`` never exceeds
#: a live ``lo``, so the learn step's eviction mirror keeps every row.
_NO_CAP = np.iinfo(np.int64).max // 2


def _pow2_at_least(n: int) -> int:
    cap = 1
    while cap < n:
        cap *= 2
    return cap


class _Entry:
    """Engine-side bookkeeping for one attached stream.

    ``pred_version`` / ``clf_version`` / ``qa_version`` stamp the
    counters the row was last synced at; ``-1`` forces a check.
    """

    __slots__ = ("name", "state", "predictor", "classifier", "qa", "row",
                 "generation", "pred_version", "clf_version", "qa_version")

    def __init__(self, name: str, state, row: int):
        self.name = name
        self.state = state
        self.predictor: OnlineLARPredictor = state.predictor
        self.classifier: KNNClassifier = self.predictor._classifier
        self.qa: PredictionQualityAssuror = state.qa
        self.row = row
        self.generation = -1
        self.pred_version = -1
        self.clf_version = -1
        self.qa_version = -1


class BatchedTickEngine:
    """Stacked per-stream state + batched tick kernels for one fleet.

    The engine self-synchronizes: :meth:`prepare` reconciles the fleet's
    stream table with the registry (attaching newly trained streams,
    swapping retrained models into their rows, detaching removed ones)
    and then brings every row's mirrors up to date. Rows are kept in
    fleet order, and each is stamped with its predictor's, classifier's
    and QA's ``version`` counters, so the steady-state sync is one
    counter comparison per row and the full-fleet tick reads slices.
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
        # Stacked QA mirror: each row holds the stream's audit window
        # oldest-first (zero-padded on the left while warming up), plus
        # its live pair count, step counter and breach latch.
        self._qa_ring = np.zeros((row_cap, self._qa_window), dtype=np.float64)
        self._qa_count = np.zeros(row_cap, dtype=np.int64)
        self._qa_step = np.zeros(row_cap, dtype=np.int64)
        self._qa_due = np.zeros(row_cap, dtype=bool)
        # The last batched forecast per row, fresh until the row is
        # ingested or reloaded.
        self._pend_norm = np.zeros(row_cap, dtype=np.float64)
        self._pend_label = np.ones(row_cap, dtype=np.int64)
        self._fresh = np.zeros(row_cap, dtype=bool)
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
                self._ar_phi, self._ar_mu, self._sqring, self._sq_count,
                self._max_mem, self._qa_ring, self._qa_count, self._qa_step,
                self._qa_due, self._pend_norm, self._pend_label, self._fresh,
                self._mem_x, self._mem_y, self._mem_bb, self._mem_abs,
                self._mem_lo, self._mem_hi)

    def _grow_rows(self, used: int) -> None:
        old = self._row_arrays()
        self._alloc(2 * self._tails.shape[0])
        for dst, src in zip(self._row_arrays(), old):
            dst[:used] = src[:used]

    def _grow_memory(self, needed: int) -> None:
        """Widen the per-stream memory mirror; rows reload lazily."""
        self._mem_cap = _pow2_at_least(needed)
        self._alloc_memory(self._tails.shape[0])
        for entry in self._rows:
            entry.generation = -1  # force a full reload on next sync
            entry.clf_version = -1

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

    def prepare(self) -> None:
        """Reconcile membership and every row's mirrors with the fleet.

        Call once before a batched operation; :meth:`forecast_batch`
        calls it itself, :meth:`PredictionFleet.ingest` calls it before
        :meth:`ingest_batch`.
        """
        self.sync()
        if self._rows:
            self._sync_memory()

    def sync(self) -> None:
        """Reconcile the registry with the fleet's current stream table.

        Runs only when the fleet's epoch clock or stream count moved:
        every predictor swap and every added stream advances the clock,
        every removal changes the count.
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
        cap = self._mem_cap
        for entry in self._rows:
            state = states.get(entry.name)
            if state is not None and state is entry.state and (
                state.predictor is entry.predictor
            ):
                continue
            del entries[entry.name]
            if (
                state is not None
                and state.predictor is not None
                and self._eligible(state.predictor, state.qa)
            ):
                # A retrained model takes over its stream's row.
                swapped = _Entry(entry.name, state, entry.row)
                entries[entry.name] = swapped
                self._load_row(swapped)
        used = len(self._rows)
        for name, state in states.items():
            if (
                state.predictor is not None
                and name not in entries
                and self._eligible(state.predictor, state.qa)
            ):
                if used == self._tails.shape[0]:
                    self._grow_rows(used)
                entry = _Entry(name, state, used)
                used += 1
                entries[name] = entry
                self._load_row(entry)
        self._reorder(
            [e for name in states if (e := entries.get(name)) is not None]
        )
        if self._mem_cap != cap:
            # The ring grew while loading a row, which emptied the rows
            # loaded before the growth; the memory sync reloads them.
            for entry in self._rows:
                entry.generation = -1
                entry.clf_version = -1

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

    def _eligible(
        self, predictor: OnlineLARPredictor, qa: PredictionQualityAssuror
    ) -> bool:
        # The stacked QA ring shares one geometry across rows, so a
        # stream whose assuror diverges from the fleet policy (or is a
        # subclass with its own behavior) stays on the per-stream loop.
        if (
            type(qa) is not PredictionQualityAssuror
            or qa.audit_window != self._qa_window
            or qa.audit_interval != self._qa_interval
            or qa.threshold != self._qa_threshold
        ):
            return False
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

    # -- mirrors ------------------------------------------------------------

    def _load_row(self, entry: _Entry) -> None:
        """Mirror one stream's whole predictor, QA and memory."""
        predictor = entry.predictor
        entry.classifier = predictor._classifier
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
        entry.pred_version = predictor.version
        self._reload_qa(entry)
        self._reload_memory(entry)

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
        entry.clf_version = clf.version

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
        self._qa_due[row] = qa._retraining_due
        entry.qa_version = qa.version

    def _sync_memory(self) -> None:
        """Bring every row's mirrors up to date with its counters.

        A row whose predictor, QA and classifier counters all match its
        stamps is skipped. Rows that stopped being batchable (e.g. the
        auto backend crossed over to the KD-tree as the memory grew)
        are detached; those streams are served per-stream.
        """
        while True:
            cap = self._mem_cap
            demoted: list[_Entry] = []
            for entry in self._rows:
                predictor = entry.predictor
                if predictor.version != entry.pred_version:
                    # Mutated outside the engine (an observe, an
                    # in-place retrain): every mirror of it is stale.
                    if self._eligible(predictor, entry.qa):
                        self._load_row(entry)
                    else:
                        demoted.append(entry)
                    continue
                # The engine's own write-backs leave `version` alone, so
                # a mismatch means someone else mutated the QA (a
                # retrain's acknowledge_retraining, a restore).
                if entry.qa.version != entry.qa_version:
                    self._reload_qa(entry)
                clf = entry.classifier
                if clf.version != entry.clf_version:
                    if clf._tree is not None or clf._resolve_backend() != "brute":
                        demoted.append(entry)
                    else:
                        self._sync_rows(entry, clf)
            if demoted:
                for entry in demoted:
                    del self._entries[entry.name]
                self._reorder(
                    [e for e in self._rows if e.name in self._entries]
                )
            if self._mem_cap == cap:
                return
            # The ring grew mid-pass, which emptied the rows synced
            # before the growth; reload them before anyone queries.

    def _sync_rows(self, entry: _Entry, clf: KNNClassifier) -> None:
        """Mirror one classifier's out-of-band appends and evictions."""
        if entry.generation != clf.store_generation:
            self._reload_memory(entry)
            return
        row = entry.row
        lo, hi = clf.discarded_total_, clf.appended_total_
        if hi - lo > self._mem_cap:
            self._grow_memory(hi - lo)
            self._reload_memory(entry)
            return
        mirror_lo = int(self._mem_lo[row])
        mirror_hi = int(self._mem_hi[row])
        if lo != mirror_lo:
            # Retire before appending: a new row may reuse a freed slot.
            self._retire(row, mirror_lo, min(lo, mirror_hi))
            self._mem_lo[row] = lo
        if hi != mirror_hi:
            rows_x, rows_y, first = clf.rows_since(mirror_hi)
            abs_idx = np.arange(first, hi, dtype=np.int64)
            slots = abs_idx % self._mem_cap
            self._mem_x[row, slots] = rows_x
            self._mem_y[row, slots] = rows_y
            self._mem_abs[row, slots] = abs_idx
            self._mem_bb[row, slots] = np.einsum("ij,ij->i", rows_x, rows_x)
            self._mem_hi[row] = hi
        entry.clf_version = clf.version

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
        self, sel, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, normalized values, labels) for the *n* selected rows."""
        tel = self._fleet._tel
        if tel is not None:
            return self._forecast_rows_traced(sel, n, tel.tracer)
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
        self, sel, n: int, tracer
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_forecast_rows` with per-phase tracing spans."""
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

    # -- fleet-facing operations --------------------------------------------

    def forecast_batch(self, names=None) -> dict[str, Forecast]:
        """Batched :meth:`PredictionFleet.forecast_all` for served streams.

        *names* is the fleet-ordered candidate list (``None`` = every
        served stream); streams not served by the engine are skipped
        (the fleet loops over those). Each forecast is also left as its
        stream's ``pending`` forecast, and kept in the engine for the
        matching :meth:`ingest_batch` to audit.
        """
        self.prepare()
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
        self._pend_norm[sel] = normalized
        self._pend_label[sel] = labels
        self._fresh[sel] = True
        out: dict[str, Forecast] = {}
        new, install = object.__new__, object.__setattr__
        for entry, value, norm, label, name in zip(
            entries, values.tolist(), normalized.tolist(), labels.tolist(),
            _POOL_NAMES[labels].tolist(),
        ):
            # Forecast(value, norm, label, name), with its fields
            # installed in one write instead of the frozen dataclass's
            # four guarded setattr calls.
            fc = new(Forecast)
            install(fc, "__dict__", {
                "value": value, "normalized_value": norm,
                "predictor_label": label, "predictor_name": name,
            })
            out[entry.name] = fc
            state = entry.state
            state.pending = fc
            state.pending_at = len(entry.predictor._history)
        return out

    def ingest_batch(self, names: list, values: np.ndarray) -> dict[str, int]:
        """Batched trained-stream ingest: audit, learn, schedule retrains.

        *names* and *values* are one tick's validated input in the
        caller's order; streams the engine does not serve are skipped
        (the fleet loops over those). Returns the learned label per
        served stream. Mirrors the per-stream loop in
        :meth:`PredictionFleet.ingest` exactly — every per-stream state
        object (QA, selections, predictor history, classifier memory)
        ends up in the identical state. ``on_breach`` callbacks run
        after the whole tick has been written back.
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
        tracer = fleet._tel.tracer if fleet._tel is not None else None
        t0 = perf_counter() if tracer is not None else 0.0
        n = len(entries)
        rows = self._row_index[sel]
        mu = self._mu[sel]
        sigma = self._sigma[sel]

        # 1. Audit the forecast that predicted this tick. A row without
        # a fresh batched forecast audits its stream's pending forecast
        # when the loop would (one made per-stream since), and otherwise
        # gets one recomputed in one batched pass, exactly like the
        # loop's inline predictor.forecast().
        stale = np.flatnonzero(~self._fresh[sel])
        if stale.size:
            recompute = []
            for i in stale.tolist():
                entry = entries[i]
                fc = entry.state.pending
                if fc is not None and entry.state.pending_at == len(
                    entry.predictor._history
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
            # loop (mid-loop, earlier streams already recorded). The
            # version bumps the records make mark the mirror stale, so
            # the next prepare() reloads whatever was mutated.
            pending = self._pend_norm[sel]
            observed = (values - mu) / sigma
            for i, entry in enumerate(entries):
                entry.qa.record(float(pending[i]), float(observed[i]))
            raise AssertionError("finite errors must have raised")  # pragma: no cover
        np.multiply(errs, errs, out=errs)
        qa_sq = errs.tolist()
        w = self._qa_window
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
        if tracer is not None:
            t1 = perf_counter()
            tracer.record("tick.audit", t1 - t0, batch=n, start=t0)

        # 2. Advance the stacked tail mirror.
        self._shift_append(self._tails, sel, values)
        if tracer is not None:
            t2 = perf_counter()
            tracer.record("tick.window_stack", t2 - t1, batch=n, start=t1)

        # 3. Label the completed windows: stacked pool errors, trailing
        # smoothed MSE argmin (chronological ring slices keep the
        # summation order of the per-stream deque stack).
        win = self._window
        z = self._buf("z", (n, win + 1))
        np.subtract(self._tails[sel], mu[:, None], out=z)
        np.divide(z, sigma[:, None], out=z)
        frames, targets = z[:, :win], z[:, win]
        ar = StackedARParams(self._ar_phi[sel], self._ar_mu[sel])
        # `sq` stays freshly allocated (not scratch): per-stream
        # `_recent_sq` deques hold views of its rows across ticks.
        sq = paper_pool_predict_all_stacked(frames, ar) - targets[:, None]
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
        if tracer is not None:
            t3 = perf_counter()
            tracer.record("tick.label_pool", t3 - t2, batch=n, start=t2)

        # 4. Learn: mirror each classifier's append and eviction (down
        # to max_memory) into the stacked memory with one scatter, then
        # write the whole tick back to the per-stream objects. The ring
        # is sized by the live count *after* eviction, so a memory full
        # at max_memory writes its new row into the slot its oldest row
        # frees.
        feats = self._features(sel, frames)
        lo = self._mem_lo[rows]
        hi = self._mem_hi[rows]
        new_lo = np.maximum(lo, hi + 1 - self._max_mem[rows])
        gone = new_lo - lo
        needed = int((hi + 1 - new_lo).max())
        if needed > self._mem_cap:
            self._grow_memory(needed)  # every row reloads on the next sync
        else:
            cap = self._mem_cap
            if gone.any():
                # Retire evicted slots first: the new row may reuse one.
                one = gone == 1
                freed = lo[one] % cap
                self._mem_bb[rows[one], freed] = np.inf
                self._mem_abs[rows[one], freed] = _DEAD_KEY
                for i in np.flatnonzero(gone > 1).tolist():
                    self._retire(int(rows[i]), int(lo[i]), int(new_lo[i]))
            slots = hi % cap
            self._mem_x[rows, slots] = feats
            self._mem_y[rows, slots] = labels
            self._mem_abs[rows, slots] = hi
            self._mem_bb[rows, slots] = np.einsum("ij,ij->i", feats, feats)
        self._mem_hi[sel] = hi + 1
        self._mem_lo[sel] = new_lo
        self._fresh[sel] = False
        for i in np.flatnonzero(hi + 1 - new_lo >= _AUTO_TREE_THRESHOLD).tolist():
            # Deep enough for the auto backend to pick the KD-tree: the
            # next sync checks the backend and demotes the row.
            entries[i].clf_version = -1
        label_list = labels.tolist()
        for entry, qa_v, value, sq_row, feat, label, chosen, drop in zip(
            entries, qa_sq, values.tolist(), sq, feats, label_list,
            _POOL_NAMES[pending_label].tolist(), gone.tolist(),
        ):
            qa = entry.qa
            window = qa._sq_errors
            if len(window) == w:
                qa._sq_sum -= window[0]
            window.append(qa_v)
            qa._sq_sum += qa_v
            qa._step += 1
            state = entry.state
            picks = state.selections
            picks[chosen] = picks.get(chosen, 0) + 1
            state.pending = None
            state.ticks += 1
            predictor = entry.predictor
            predictor._history.append(value)
            predictor._recent_sq.append(sq_row)
            predictor._windows_learned += 1
            # The classifier's append + evict, as observe() runs it:
            # the common case (capacity free, known label, one row out)
            # inline, everything else through the classifier's own
            # helpers, which leave its version alone too.
            clf = entry.classifier
            end = clf._buf_end
            counts = clf._label_counts
            if end < len(clf._ybuf) and label in counts:
                clf._Xbuf[end] = feat
                clf._ybuf[end] = label
                clf._buf_end = end + 1
                clf._appended += 1
                counts[label] += 1
            else:
                clf._append_rows(
                    feat[None, :], np.array([label], dtype=np.int64)
                )
            if drop == 1:
                start = clf._buf_start
                old = clf._ybuf.item(start)
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
                    clf._refresh_classes()
                clf._buf_start = start + 1
                clf._discarded += 1
            elif drop:
                clf._discard_rows(drop)
        if audited.size:
            self._record_audits(entries, audited, mses, breached, steps)
        for i in np.flatnonzero(self._qa_due[sel]).tolist():
            fleet._retrain.schedule(entries[i].state, initial=False)
        if tracer is not None:
            tracer.record(
                "tick.memory_learn", perf_counter() - t3, batch=n, start=t3
            )
        return dict(zip(names, label_list))

    def _record_audits(self, entries, audited, mses, breached, steps) -> None:
        """Write this tick's audits back to the audited streams' QAs.

        Bit-identical to the audits ``qa.record`` would have run: same
        records, lifetime counters and breach latches, without bumping
        ``version`` (the mirror advanced in lockstep). Breaches go to
        the fleet's telemetry, aggregated.
        """
        breaches: list[tuple[str, AuditRecord]] = []
        for i, mse, breach, step in zip(
            audited.tolist(), mses.tolist(), breached.tolist(),
            steps[audited].tolist(),
        ):
            entry = entries[i]
            qa = entry.qa
            record = AuditRecord(step=step, window_mse=mse, breached=breach)
            qa.audits.append(record)
            qa.audits_total += 1
            if breach:
                qa.breaches_total += 1
                qa._retraining_due = True
                breaches.append((entry.name, record))
                if qa.on_breach is not None:
                    qa.on_breach(record)
        if self._fleet._tel is not None:
            self._fleet._note_audits_batch(len(mses), breaches)
