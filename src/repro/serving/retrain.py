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
  fits the stream's warm-up values, and a QA-ordered retrain refits the
  normalizer, the predictors, the PCA basis and the k-NN memory on the
  last ``retrain_window`` stored values, as the paper's QA orders.
  :meth:`~RetrainScheduler.snapshot` copies each due stream's
  history (a cold stream's in one gather per length from the fleet's
  warm-up ring, an engine-served stream's likewise from the tick
  engine's history ring), and :func:`build_units` turns that plan
  into work units of two kinds: a stacked group per history length, or
  one per-stream unit per stream when the round is not batched or the
  config has no stacked kernels. :func:`run_unit` computes a unit from
  picklable inputs.
* **Integration.** A stacked unit's fit is installed straight into the
  tick engine's rows
  (:meth:`~repro.serving.engine.BatchedTickEngine.install`); each
  stream's predictor object is built when something first reads it. A
  per-stream unit's predictor swaps in as an object. Either way the old
  model is dropped unwritten.
* **Sync** (``retrain_mode="sync"``) runs a round's units in-process on
  the fleet's :class:`~repro.serving.trainer.BatchedTrainEngine` and
  integrates every stream in due order before returning. A round that
  raises integrates nothing.
* **Async** (``retrain_mode="async"``) submits the same units to the
  persistent worker pool (:func:`repro.parallel.pool_exec.submit`),
  with cold groups split into chunks of at most
  ``_COLD_CHUNK_STREAMS`` streams, and returns. Submitted streams keep
  serving their current model and record every value they ingest. At a
  later tick boundary the landed unit is integrated as above, and each
  new model learns the recorded values: on its engine row, in one batched
  replay for every stream the drain integrated
  (:meth:`~repro.serving.engine.BatchedTickEngine.replay`), or through
  :meth:`~repro.core.online.OnlineLARPredictor.observe_many` on a
  per-stream drain (which detaches an engine-served stream first) and
  for a stream the engine does not serve. Training reads only the
  submission snapshot and both replays take the ``observe()`` path the
  live model would have taken, so the integrated model is bit-identical
  to a sync retrain at the submission tick served since (pinned by
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

from repro.core.online import OnlineLARPredictor
from repro.parallel.pool_exec import (
    notify_pool_failure,
    shutdown_persistent_pool,
    submit as pool_submit,
)
from repro.serving.trainer import BatchedTrainEngine, _stack_by_length

__all__ = ["RetrainScheduler", "build_units", "run_unit"]

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

    #: Due streams in due order, and each one's 1-D history.
    names: list
    histories: list
    #: ``(positions, (S, T) stack)`` per history length: the same
    #: histories, stacked for the stacked trainer.
    groups: list


class _Unit(NamedTuple):
    """One piece of a round's work (see :func:`build_units`)."""

    kind: str
    #: The unit's streams, in row order.
    names: list
    #: Picklable input :func:`run_unit` computes from; integration
    #: reads it again (a stacked unit's training histories).
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
    for indices, stack in plan.groups:
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
    """One submitted unit: its future plus what integration needs."""

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

    def restore(self, due_seq: int = 0) -> None:
        """Rebuild the queue after a restore set the due flags directly.

        *due_seq* is the saved fleet's due-stamp clock (0 when the
        manifest predates it).
        """
        fleet = self._fleet
        states = fleet._streams.values()
        # Resume the due-stamp clock where the saved fleet left it, and
        # at least at every persisted stamp: a stream that becomes due
        # after the restore, inside an ingest or between ticks, gets the
        # stamp it would have got in the original.
        fleet._due_seq = max(
            due_seq, max((s.due_at for s in states), default=0)
        )
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

        An initial train fits every warm-up value the stream holds; a
        QA-ordered retrain refits on the last ``retrain_window`` stored
        values (all of them when ``None``). Cold streams are read from
        the fleet's warm-up ring and engine-served streams from the
        tick engine's history ring, one gather per history length, with
        no check-out; other streams from their objects. The snapshot
        makes the plan self-contained.
        """
        fleet = self._fleet
        limit = fleet.config.retrain_window
        warmup = fleet._warmup
        engine = fleet._engine
        if engine is not None:
            # Streams detached since the last batched call reload first.
            engine.sync()
        histories: list = [None] * len(due)
        # One gather per (ring, length): the positions in *due* it
        # serves and what the ring knows their streams by.
        gathers: dict[tuple, tuple[list, list]] = {}
        rest: list[int] = []
        for i, name in enumerate(due):
            state = fleet._streams[name]
            entry = state._entry
            if entry is not None:
                stored = engine.stored(entry)
                key = (engine.history_tails, min(limit or stored, stored))
                ref = entry
            elif state._predictor is None:
                key, ref = (warmup.tails, warmup.stored(name)), name
            else:
                rest.append(i)
                predictor = state._predictor
                histories[i] = predictor.recent_history(
                    limit or predictor.history_length
                )
                continue
            positions, refs = gathers.setdefault(key, ([], []))
            positions.append(i)
            refs.append(ref)
        groups = []
        for (gather, length), (positions, refs) in gathers.items():
            stack = gather(refs, length)
            for position, history in zip(positions, stack):
                histories[position] = history
            groups.append((positions, stack))
        groups.extend(
            ([rest[j] for j in indices], stack)
            for indices, stack in _stack_by_length(
                [histories[i] for i in rest]
            )
        )
        return _BurstPlan(names=list(due), histories=histories, groups=groups)

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
        # Stacked groups record only the engine's own train.* phase
        # spans; the per-stream loop records one span around the round.
        span = "train.per_stream" if units[0].kind == COLD_ONE else None
        with self._span(span, len(due)):
            values = [
                run_unit(engine, unit.kind, unit.payload) for unit in units
            ]
        states = [fleet._streams[name] for name in due]
        was_retrain = [state.trained for state in states]
        fitted: dict[str, OnlineLARPredictor | None] = {}
        for unit, value in zip(units, values):
            fitted.update(zip(unit.names, self._land(
                unit.kind, unit.payload, value,
                [fleet._streams[name] for name in unit.names],
            )))
        for name, state, was in zip(due, states, was_retrain):
            self._integrate(state, fitted[name], was)
            self._emit(
                "retrain_complete" if was else "train_complete", stream=name
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

        ``wait=False`` integrates every finished future (the
        tick-boundary call); ``wait=True`` blocks until everything
        lands (the flush path, ``train.async_wait`` span). Streams whose
        unit was lost to a broken pool run as a sync round.
        """
        if not self.inflight:
            return ()
        fleet = self._fleet
        with self._span("train.async_wait" if wait else None, self.inflight):
            landed, failed = self._collect(wait)
        integrated: list[str] = []
        if landed:
            count = sum(len(burst.records) for burst, _ in landed)
            with self._span("train.integrate", count):
                integrated = self._integrate_landed(landed, batched)
        if fleet._tel is not None:
            fleet._m.inflight.set(self.inflight)
        if failed:
            integrated.extend(self._requeue_failed(failed, batched))
        return tuple(integrated)

    def _collect(self, wait: bool):
        """Take landed units off the in-flight list.

        Returns ``(landed, failed)``: *landed* holds ``(burst, value)``
        pairs; *failed* records lost their unit to a broken pool (hooks
        already notified, pool already torn down).
        """
        landed: list[tuple] = []
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
            landed.append((burst, value))
        self._bursts = keep
        if broken is not None:
            notify_pool_failure(broken)
            shutdown_persistent_pool()
            for burst in keep:
                failed.extend(burst.records)
            self._bursts = []
        done = [rec for burst, _ in landed for rec in burst.records]
        for rec in done + failed:
            records = self._by_name[rec.name]
            records.remove(rec)
            self.inflight -= 1
            if not records:
                del self._by_name[rec.name]
        return landed, failed

    def _current(self, rec: _PendingStream):
        """*rec*'s stream state, or ``None`` when the stream was removed
        or swapped models mid-flight."""
        state = self._fleet._streams.get(rec.name)
        if state is not None and state.epoch == rec.epoch:
            return state
        return None

    def _drop_stale(self, rec: _PendingStream) -> None:
        self._emit(
            "retrain_dropped",
            stream=rec.name,
            reason="stale" if rec.name in self._fleet._streams else "removed",
        )

    def _integrate_landed(self, landed, batched: bool) -> list[str]:
        """Integrate landed units (dropping stale results); returns the
        integrated stream names.

        Every live result swaps in first, in landing order. Then each
        new model learns the ticks that arrived while its unit ran (the
        old model served them): engine-served streams in one batched
        replay on their rows
        (:meth:`~repro.serving.engine.BatchedTickEngine.replay`), the
        rest through ``observe_many()``. Both take the ``observe()``
        path the live model would have taken, so the result is
        bit-identical to a model trained synchronously at the
        submission tick and served since.
        """
        live = []
        for burst, value in landed:
            states = [self._current(rec) for rec in burst.records]
            was_retrain = [
                state is not None and state.trained for state in states
            ]
            fitted = self._land(burst.kind, burst.payload, value, states)
            for rec, state, was, predictor in zip(
                burst.records, states, was_retrain, fitted
            ):
                if state is None:
                    self._drop_stale(rec)
                    continue
                self._integrate(state, predictor, was)
                self._emit(
                    "retrain_integrated",
                    stream=rec.name,
                    replayed=len(rec.replay),
                    retrain=was,
                )
                live.append((rec, state))
        replay = [(state, rec.replay) for rec, state in live if rec.replay]
        engine = self._fleet._engine
        if batched and engine is not None and replay:
            replay = engine.replay(replay)
        for state, values in replay:
            entry = state._entry
            if entry is not None:
                # observe_many() writes the objects: hand them back, and
                # the engine's next sync reloads the row whole.
                entry.engine.detach(entry)
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
            state = self._current(rec)
            if state is None:
                self._drop_stale(rec)
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

    def _land(self, kind: str, payload, value, states: list) -> list:
        """What each stream of a computed unit swaps in: its new
        predictor, or ``None`` where the model went straight into the
        tick engine's rows (:meth:`BatchedTickEngine.install`, timed by
        the ``train.rebuild`` span). A ``None`` in *states* (a stale
        result) gets nothing."""
        if kind == COLD_ONE:
            return [value]
        with self._span("train.rebuild", len(states)):
            self._fleet._get_engine().install(states, payload, value)
        return [None] * len(states)

    def _integrate(self, state, predictor, was_retrain: bool) -> None:
        """Make a (re)trained model the serving model, with full retrain
        bookkeeping.

        The one place a (re)trained model becomes the serving model, for
        sync rounds and async drains alike, so QA acknowledgement and
        counters cannot diverge between the modes. *predictor* is the
        new model, or ``None`` when it was installed into the stream's
        engine row. The old model is dropped unwritten: an engine row
        it served settles only the stream-level state
        (:meth:`BatchedTickEngine.release`). Writes the backing slots,
        so nothing here checks a stream out.
        """
        fleet = self._fleet
        if was_retrain:
            state.retrain_count += 1
        else:
            # An initial train: the stream's warm-up row goes back to
            # the ring, and its count is the stream's tick count.
            state._ticks = fleet._warmup.release(state.name)
        if predictor is not None:
            entry = state._entry
            if entry is not None:
                entry.engine.release(entry)
            state._predictor = predictor
        state.epoch = fleet._next_epoch()
        state._pending = None
        state.pending_at = -1
        # An installed row already holds the acknowledged QA.
        state._qa.acknowledge_retraining()
        self.clear_due(state)
        if fleet._tel is not None:
            (fleet._m.retrains if was_retrain else fleet._m.trains).inc()
