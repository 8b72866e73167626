"""Retrain scheduling: everything between a stream falling due and its
new model serving.

In the paper the Quality Assuror orders a retrain and the stream keeps
serving its current model until the new one is in place (§3.2). Each
:class:`~repro.serving.fleet.PredictionFleet` hands that whole operation
to one :class:`RetrainScheduler`:

* **The due queue.** :meth:`RetrainScheduler.schedule` marks a stream
  due, stamped with the ingest tick, and
  :meth:`~RetrainScheduler.take_due` pops the budgeted head of the queue
  oldest-breach-first.
* **Work units.** Every (re)train is a full refit: an initial train
  fits the warm-up buffer, and a QA-ordered retrain refits the
  normalizer, the predictors, the PCA basis and the k-NN memory on the
  last ``retrain_window`` stored values, as the paper's QA orders.
  :meth:`~RetrainScheduler.snapshot` copies each due stream's
  history, and :func:`build_units` turns that plan into work units of
  two kinds: a stacked group per history length, or one per-stream
  unit per stream when the round is not batched or the config has no
  stacked kernels. :func:`run_unit` computes a unit from picklable
  inputs; :func:`assemble` builds its result into predictors.
* **Sync** (``retrain_mode="sync"``) runs a round's units in-process on
  the fleet's :class:`~repro.serving.trainer.BatchedTrainEngine` and
  integrates every stream in due order before returning. A round that
  raises integrates nothing.
* **Async** (``retrain_mode="async"``) submits the same units to the
  persistent worker pool (:func:`repro.parallel.pool_exec.submit`),
  with cold groups split into chunks of at most
  ``_COLD_CHUNK_STREAMS`` streams, and returns. Submitted streams keep
  serving their current model and record every value they ingest. At a
  later tick boundary the landed unit is assembled, the model swaps in,
  and it learns the recorded values: on its engine row, in one batched
  replay for every stream the drain integrated
  (:meth:`~repro.serving.engine.BatchedTickEngine.replay`), or through
  :meth:`~repro.core.online.OnlineLARPredictor.observe_many` for a
  stream the engine does not serve. Training reads only the submission
  snapshot and both replays take the ``observe()`` path the live model
  would have taken, so the integrated model is bit-identical to a sync
  retrain at the submission tick served since (pinned by
  ``tests/test_serving_async.py``).

A landed result whose stream was removed (``removed``) or swapped models
under it (``stale``) is dropped with a ``retrain_dropped`` event. A
:class:`BrokenProcessPool` fails every unit still on the dead pool: the
pool-failure hooks fire, the pool is torn down, and the lost streams go
back on the queue with their original due stamps and run as a sync
round on the spot.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from repro.core.online import OnlineLARPredictor
from repro.parallel.pool_exec import (
    notify_pool_failure,
    shutdown_persistent_pool,
    submit as pool_submit,
)
from repro.serving.trainer import BatchedTrainEngine, _stack_by_length

__all__ = ["RetrainScheduler", "assemble", "build_units", "run_unit"]

#: Largest row chunk one asynchronous cold-group unit carries. A group
#: of *n* streams goes out as ``ceil(n / 32)`` near-equal units, which
#: land, and integrate, over several ticks instead of one.
#: Measured on a 2-core Intel Xeon (numpy 2.4.6) with the 500-stream
#: async tick-latency gate in ``benchmarks/bench_fleet.py`` (async/sync
#: p99 ratio, bound <= 0.5), three runs each: chunks of at most 32
#: streams read 0.26 / 0.33 / 0.31, no split 0.21 / 0.25 / 0.26.
_COLD_CHUNK_STREAMS = 32

#: Work-unit kinds (see :func:`build_units`).
COLD, COLD_ONE = "cold", "cold_one"


def _chunk_bounds(n_rows: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[lo, hi)`` row chunks covering *n_rows*,
    each at most :data:`_COLD_CHUNK_STREAMS` rows."""
    chunks = -(-n_rows // _COLD_CHUNK_STREAMS)
    base, extra = divmod(n_rows, chunks)
    bounds = []
    lo = 0
    for index in range(chunks):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _train_stream(config, history) -> OnlineLARPredictor:
    """Train one stream's model from its history, per stream.

    *config* is anything with the fleet config's ``lar``,
    ``label_smoothing``, ``max_memory`` and ``history_limit``.
    """
    return OnlineLARPredictor(
        config.lar,
        label_smoothing=config.label_smoothing,
        max_memory=config.max_memory,
        history_limit=config.history_limit,
    ).train(history)


class _BurstPlan(NamedTuple):
    """One retrain round's work (see ``RetrainScheduler.snapshot``).

    Self-contained: histories are snapshotted, so the plan outlives the
    tick that built it, which is what lets an asynchronous round train
    on it while the streams keep serving.
    """

    names: list
    histories: list


class _Unit(NamedTuple):
    """One piece of a round's work (see :func:`build_units`)."""

    kind: str
    #: The unit's streams, in row order.
    names: list
    #: Picklable input :func:`run_unit` computes from; :func:`assemble`
    #: reads it again to build the predictors.
    payload: object


def build_units(
    plan: _BurstPlan,
    engine: BatchedTrainEngine,
    *,
    batched: bool,
    chunk: bool = False,
) -> list[_Unit]:
    """Turn a planned round into work units, all of one kind.

    Stacked units run when *batched* and the engine has stacked kernels
    for the config; otherwise every stream is its own unit. With
    *chunk*, stacked groups split into row chunks of at most
    :data:`_COLD_CHUNK_STREAMS` streams. Every training kernel reads
    only its own row, so a chunk fits exactly like the whole group.
    """
    if not (batched and engine.supported):
        return [
            _Unit(COLD_ONE, [name], history)
            for name, history in zip(plan.names, plan.histories)
        ]
    units: list[_Unit] = []
    for indices, stack in _stack_by_length(plan.histories):
        names = [plan.names[i] for i in indices]
        bounds = _chunk_bounds(len(names)) if chunk else [(0, len(names))]
        units.extend(
            _Unit(COLD, names[lo:hi], stack[lo:hi])
            for lo, hi in bounds
        )
    return units


def run_unit(engine: BatchedTrainEngine, kind: str, payload):
    """Compute one unit: the kernels both modes run, sync on the fleet's
    engine and async on a pool worker's."""
    if kind == COLD:
        return engine._compute_train_group(payload)
    return _train_stream(engine._config, payload)


def assemble(
    engine: BatchedTrainEngine, kind: str, payload, value
) -> list[OnlineLARPredictor]:
    """Build the *value* :func:`run_unit` computed from *payload* into
    predictors, in the unit's row order."""
    if kind == COLD:
        return engine._build_group_predictors(payload, value)
    return [value]


# -- worker side --------------------------------------------------------------

_worker_engine: tuple[object, BatchedTrainEngine] | None = None


def _run_in_worker(config, kind: str, payload):
    """Pool entry point: :func:`run_unit` on this worker's engine.

    The engine is rebuilt only when *config* changes: its recycled
    scratch tensors are as valuable across a storm's units in a worker
    as they are in the parent. Aliasing them inside the worker is safe
    because pickling the result copies every tensor.
    """
    global _worker_engine
    if _worker_engine is None or _worker_engine[0] != config:
        _worker_engine = (config, BatchedTrainEngine(config))
    return run_unit(_worker_engine[1], kind, payload)


# -- parent side --------------------------------------------------------------


class _PendingStream:
    """Submission-time snapshot of one in-flight stream (internal)."""

    __slots__ = ("name", "epoch", "was_retrain", "due_at", "replay")

    def __init__(self, state):
        self.name = state.name
        self.epoch = state.epoch
        self.was_retrain = state.trained
        self.due_at = state.due_at
        # Values the stream ingests while its unit flies, in tick
        # order; integration replays them through observe().
        self.replay: list[float] = []


class _Burst(NamedTuple):
    """One submitted unit: its future plus what assembly needs."""

    kind: str
    payload: object
    future: object
    records: list


class RetrainScheduler:
    """The due queue and retrain rounds of one fleet.

    Created by :class:`~repro.serving.fleet.PredictionFleet`, which
    delegates ``pending_retrains``, ``run_pending_retrains`` and
    ``drain_retrains`` here. Reads and updates the fleet's stream
    states and telemetry; owns the due count, the deferral total and
    the in-flight bookkeeping.
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        # Live count of due streams, so the per-tick retrain check costs
        # one comparison instead of an O(S) scan + sort when nothing is
        # due (the overwhelmingly common tick).
        self.due_count = 0
        # Lifetime count of budget deferrals (kept telemetry or not:
        # FleetMetrics reports it either way).
        self.deferred_total = 0
        # Streams whose unit is in flight.
        self.inflight = 0
        self._bursts: list[_Burst] = []
        # name -> live records, for O(1) schedule guards and O(inflight)
        # replay appends (a record can briefly coexist with a stale
        # same-named one after a remove + re-add).
        self._by_name: dict[str, list[_PendingStream]] = {}

    def _span(self, name: str | None, batch: int):
        tel = self._fleet._tel
        if tel is None or name is None:
            return nullcontext()
        return tel.tracer.span(name, batch=batch)

    def _emit(self, kind: str, **data) -> None:
        fleet = self._fleet
        if fleet._tel is not None:
            fleet._tel.events.emit(kind, tick=fleet._due_seq, **data)

    # -- the due queue --------------------------------------------------------

    def pending(self) -> tuple[str, ...]:
        """Due streams, oldest-breach-first (then registration order)."""
        if not self.due_count:
            return ()
        due = [
            (state.due_at, index, name)
            for index, (name, state) in enumerate(self._fleet._streams.items())
            if state.train_due or state.retrain_due
        ]
        due.sort()
        return tuple(name for _, _, name in due)

    def schedule(self, state, *, initial: bool) -> None:
        """Mark *state* due for (re)training.

        Stamps the due clock and emits the order event only on the
        not-due -> due transition, preserving the oldest breach for
        queue ordering (re-breaching while queued is not a new order).
        A stream whose retrain is already in flight is never re-marked:
        its QA stays latched until the integration acknowledges it, and
        double-submitting the same stream would race its own result.
        """
        if self.blocks(state.name, state.epoch):
            return
        newly = not (state.train_due or state.retrain_due)
        if newly:
            state.due_at = self._fleet._due_seq
            self.due_count += 1
        if initial:
            state.train_due = True
        else:
            state.retrain_due = True
        if newly:
            self._emit(
                "train_order" if initial else "retrain_order",
                stream=state.name,
            )

    def blocks(self, name: str, epoch: int) -> bool:
        """Whether *name* has a unit in flight for model generation
        *epoch* (a record left over for a removed-and-re-added stream
        never blocks the new one)."""
        return any(rec.epoch == epoch for rec in self._by_name.get(name, ()))

    def clear_due(self, state) -> None:
        """Take *state* off the due queue (idempotent)."""
        if state.train_due or state.retrain_due:
            self.due_count -= 1
            state.train_due = False
            state.retrain_due = False

    def restore(self) -> None:
        """Rebuild the queue after a restore set the due flags directly."""
        fleet = self._fleet
        states = fleet._streams.values()
        # Resume the due-stamp clock past every persisted stamp: streams
        # that become due after the restore sort strictly behind
        # everything already queued, as they would have in the original.
        fleet._due_seq = max((s.due_at for s in states), default=0)
        self.due_count = sum(
            1 for s in states if s.train_due or s.retrain_due
        )

    def take_due(self, budget: int | None) -> tuple[str, ...]:
        """Pop the budgeted head of the due queue, narrating deferrals."""
        due = self.pending()
        if budget is not None and len(due) > budget:
            deferred = due[budget:]
            due = due[:budget]
            self.deferred_total += len(deferred)
            if self._fleet._tel is not None:
                self._fleet._m.deferrals.inc(len(deferred))
                for name in deferred:
                    self._emit("retrain_deferred", stream=name)
        return due

    # -- planning -------------------------------------------------------------

    def snapshot(self, due: tuple[str, ...]) -> _BurstPlan:
        """Snapshot the history each due stream (re)trains on.

        An initial train fits the warm-up buffer; a QA-ordered retrain
        refits on the last ``retrain_window`` stored values (all of
        them when ``None``). The snapshot makes the plan
        self-contained.
        """
        fleet = self._fleet
        limit = fleet.config.retrain_window
        histories: list[np.ndarray] = []
        for name in due:
            state = fleet._streams[name]
            predictor = state.predictor
            if predictor is None:
                history = np.asarray(state.buffer, dtype=np.float64)
            else:
                history = predictor.recent_history(
                    limit or predictor.history_length
                )
            histories.append(history)
        return _BurstPlan(names=list(due), histories=histories)

    # -- rounds ---------------------------------------------------------------

    def run(self, budget: int | None, batched: bool) -> tuple[str, ...]:
        """One retrain round in the fleet's ``retrain_mode``."""
        if self._fleet.config.retrain_mode == "async":
            # Draining first means a unit submitted at tick T can
            # integrate at the T+1 boundary, and a stream that drained
            # and re-breached is resubmitted on its fresh model.
            integrated = self.drain(wait=False, batched=batched)
            due = self.take_due(budget)
            if due:
                self.submit(due, batched=batched)
            return integrated
        due = self.take_due(budget)
        if not due:
            return ()
        return self.run_sync(due, batched=batched)

    def run_sync(self, due: tuple[str, ...], *, batched: bool):
        """Run one round to completion in-process, then integrate every
        stream in due order. A unit that raises leaves every stream as
        it was."""
        fleet = self._fleet
        engine = fleet._get_train_engine()
        units = build_units(self.snapshot(due), engine, batched=batched)
        fitted: dict[str, OnlineLARPredictor] = {}
        # Stacked groups record only the engine's own train.* phase
        # spans; the per-stream loop records one span around the round.
        span = "train.per_stream" if units[0].kind == COLD_ONE else None
        with self._span(span, len(due)):
            for unit in units:
                value = run_unit(engine, unit.kind, unit.payload)
                fitted.update(zip(
                    unit.names,
                    assemble(engine, unit.kind, unit.payload, value),
                ))
        for name in due:
            was_retrain = self._integrate(fleet._streams[name], fitted[name])
            self._emit(
                "retrain_complete" if was_retrain else "train_complete",
                stream=name,
            )
        return due

    def submit(self, due: tuple[str, ...], *, batched: bool) -> None:
        """Send one round's units to the worker pool and return.

        Each submitted stream leaves the due queue and keeps serving its
        current model until a drain integrates its unit.
        """
        fleet = self._fleet
        plan = self.snapshot(due)
        engine = fleet._get_train_engine()
        records = {name: _PendingStream(fleet._streams[name]) for name in due}
        for unit in build_units(plan, engine, batched=batched, chunk=True):
            burst = _Burst(
                unit.kind,
                unit.payload,
                pool_submit(
                    _run_in_worker, engine._config, unit.kind, unit.payload
                ),
                [records[name] for name in unit.names],
            )
            self._bursts.append(burst)
            for rec in burst.records:
                self._by_name.setdefault(rec.name, []).append(rec)
            self.inflight += len(burst.records)
        for name in due:
            self.clear_due(fleet._streams[name])
            self._emit("retrain_submitted", stream=name)
        if fleet._tel is not None:
            fleet._m.inflight.set(self.inflight)

    def note_values(self, values) -> None:
        """Append this tick's values to the in-flight replay lists."""
        for name, records in self._by_name.items():
            value = values.get(name)
            if value is not None:
                for rec in records:
                    rec.replay.append(value)

    # -- drain ----------------------------------------------------------------

    def drain(self, *, wait: bool, batched: bool = True) -> tuple[str, ...]:
        """Integrate landed units; returns the integrated stream names.

        ``wait=False`` assembles every finished future (the
        tick-boundary call); ``wait=True`` blocks until everything
        lands (the flush path, ``train.async_wait`` span). Streams whose
        unit was lost to a broken pool run as a sync round.
        """
        if not self.inflight:
            return ()
        fleet = self._fleet
        with self._span("train.async_wait" if wait else None, self.inflight):
            ready, failed = self._collect(wait)
        integrated: list[str] = []
        if ready:
            with self._span("train.integrate", len(ready)):
                integrated = self._integrate_landed(ready, batched)
        if fleet._tel is not None:
            fleet._m.inflight.set(self.inflight)
        if failed:
            integrated.extend(self._requeue_failed(failed, batched))
        return tuple(integrated)

    def _collect(self, wait: bool):
        """Take landed units off the in-flight list and assemble them.

        Returns ``(ready, failed)``: *ready* rows are ``(record,
        predictor)``; *failed* records lost
        their unit to a broken pool (hooks already notified, pool
        already torn down).
        """
        engine = self._fleet._get_train_engine()
        ready: list[tuple] = []
        failed: list[_PendingStream] = []
        keep: list[_Burst] = []
        broken = None
        for burst in self._bursts:
            if broken is not None:
                # The pool just died under an earlier unit; siblings on
                # the same pool are doomed, so fail them now rather than
                # letting each one surface the same corpse.
                failed.extend(burst.records)
                continue
            if not wait and not burst.future.done():
                keep.append(burst)
                continue
            try:
                value = burst.future.result()
            except BrokenProcessPool as exc:
                broken = exc
                failed.extend(burst.records)
                continue
            ready.extend(zip(
                burst.records,
                assemble(engine, burst.kind, burst.payload, value),
            ))
        self._bursts = keep
        if broken is not None:
            notify_pool_failure(broken)
            shutdown_persistent_pool()
            for burst in keep:
                failed.extend(burst.records)
            self._bursts = []
        for rec in [rec for rec, _ in ready] + failed:
            records = self._by_name[rec.name]
            records.remove(rec)
            self.inflight -= 1
            if not records:
                del self._by_name[rec.name]
        return ready, failed

    def _live(self, rec: _PendingStream):
        """*rec*'s stream state, or ``None`` with a ``retrain_dropped``
        event when the stream was removed or swapped models mid-flight."""
        state = self._fleet._streams.get(rec.name)
        if state is not None and state.epoch == rec.epoch:
            return state
        self._emit(
            "retrain_dropped",
            stream=rec.name,
            reason="removed" if state is None else "stale",
        )
        return None

    def _integrate_landed(self, ready, batched: bool) -> list[str]:
        """Integrate landed results (dropping stale ones); returns the
        integrated stream names.

        Every live result swaps in first. Then each new model learns
        the ticks that arrived while its unit ran (the old model served
        them): engine-served streams in one batched replay on their rows
        (:meth:`~repro.serving.engine.BatchedTickEngine.replay`), the
        rest through ``observe_many()``. Both take the ``observe()``
        path the live model would have taken, so the result is
        bit-identical to a model trained synchronously at the
        submission tick and served since.
        """
        live = []
        for rec, predictor in ready:
            state = self._live(rec)
            if state is None:
                continue
            was_retrain = self._integrate(state, predictor)
            self._emit(
                "retrain_integrated",
                stream=rec.name,
                replayed=len(rec.replay),
                retrain=was_retrain,
            )
            live.append((rec, state))
        replay = [(state, rec.replay) for rec, state in live if rec.replay]
        engine = self._fleet._engine
        if batched and engine is not None and replay:
            replay = engine.replay(replay)
        for state, values in replay:
            state.predictor.observe_many(values)
        return [rec.name for rec, _ in live]

    def _requeue_failed(self, failed, batched: bool) -> tuple[str, ...]:
        """The pool died mid-flight: run the lost streams as a sync round.

        They go back on the due queue with their original due stamps.
        The histories their lost units trained on are still prefixes of
        the live ones, so a fresh sync round on current state is always
        correct, just not overlapped.
        """
        self._emit("pool_failure", streams=len(failed))
        requeued: list[tuple[int, str]] = []
        for rec in failed:
            state = self._live(rec)
            if state is None:
                continue
            if not (state.train_due or state.retrain_due):
                self.due_count += 1
            state.due_at = rec.due_at
            state.train_due = not rec.was_retrain
            state.retrain_due = rec.was_retrain
            requeued.append((rec.due_at, rec.name))
        if not requeued:
            return ()
        requeued.sort()
        return self.run_sync(
            tuple(name for _, name in requeued), batched=batched
        )

    # -- integration ----------------------------------------------------------

    def _integrate(self, state, predictor) -> bool:
        """Swap *predictor* in with full retrain bookkeeping.

        The one place a (re)trained model becomes the serving model, for
        sync rounds and async drains alike, so QA acknowledgement and
        counters cannot diverge between the modes. Returns whether the
        swap was a retrain (vs. an initial train).
        """
        fleet = self._fleet
        was_retrain = state.trained
        if was_retrain:
            state.retrain_count += 1
        state.predictor = predictor
        state.epoch = fleet._next_epoch()
        state.buffer.clear()
        state.pending = None
        state.pending_at = -1
        state.qa.acknowledge_retraining()
        self.clear_due(state)
        if fleet._tel is not None:
            (fleet._m.retrains if was_retrain else fleet._m.trains).inc()
        return was_retrain
