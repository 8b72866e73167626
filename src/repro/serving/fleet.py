"""Multi-stream prediction fleet: concurrent online serving.

The paper evaluates the LARPredictor one trace at a time; a production
deployment (an NWS-style monitoring service, a VM farm, a network of
devices) serves *many* resource streams at once, each with its own
lightweight model. :class:`PredictionFleet` composes the per-stream
pieces the repo already has — one
:class:`~repro.core.online.OnlineLARPredictor` plus one
:class:`~repro.core.qa.PredictionQualityAssuror` per stream — into that
serving layer:

* **Batched APIs** — :meth:`PredictionFleet.ingest` takes one
  ``{stream: value}`` dict per tick and :meth:`PredictionFleet.forecast_all`
  returns every stream's next-value forecast, so callers make one call
  per tick instead of N.
* **Lazy training** — a new stream buffers raw values until
  ``min_train`` of them exist, then trains on first use; before that it
  simply has no forecast yet. Every cold stream buffers into one
  fleet-level ring (:mod:`repro.serving.warmup`), so a tick stores all
  their values with one scatter, on either tick path.
* **QA-driven retraining, out of band** — every ingested observation is
  audited against the forecast that predicted it; streams whose audit
  window breaches the threshold are *scheduled* and retrained together.
  A retrain refits the stream's whole model (normalizer, predictors,
  PCA basis, k-NN memory) on its last ``retrain_window`` values, as the
  paper's QA orders.
  Eligible configurations run the whole burst through the
  :class:`~repro.serving.trainer.BatchedTrainEngine` (one stacked
  training computation for all due streams, bit-identical to the
  per-stream path); others fall back to a plain per-stream training
  loop. Both retrain modes run this one path, in
  :mod:`repro.serving.retrain`.
* **Retrain budgeting** — ``max_retrains_per_tick`` caps how many
  scheduled (re)trains any single :meth:`ingest` call pays for; the
  rest stay queued oldest-breach-first and keep serving their current
  model, so a fleet-wide drift storm never stalls one tick.
* **Metrics** — :meth:`PredictionFleet.metrics` snapshots per-stream
  rolling MSE, the selected-predictor histogram, retrain counts, and
  memory sizes.
* **Telemetry** — construct with ``telemetry=True`` (or a
  :class:`~repro.obs.Telemetry` instance) and the serving stack
  reports itself: fleet-level counters/gauges, phase-level tracing
  spans through both batched engines and the per-stream fallbacks, and
  a bounded structured event log of QA audits, breaches, retrain
  orders/completions/deferrals, and stream lifecycle. Disabled (the
  default), every hook sits behind one attribute check.
* **Persistence** — :meth:`PredictionFleet.save` /
  :meth:`PredictionFleet.load` round-trip the whole fleet (see
  :mod:`repro.serving.persistence`), so a restored service resumes with
  the exact forecasts the original would have produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LARConfig
from repro.core.larpredictor import Forecast
from repro.core.online import OnlineLARPredictor
from repro.core.qa import AuditRecord, PredictionQualityAssuror
from repro.exceptions import ConfigurationError, NotFittedError
from repro.obs import Telemetry
from repro.serving.engine import BatchedTickEngine
from repro.serving.retrain import RetrainScheduler
from repro.serving.trainer import BatchedTrainEngine
from repro.serving.warmup import WarmupRing
from repro.util.validation import check_positive_int_fields

__all__ = ["FleetConfig", "PredictionFleet", "FleetMetrics", "StreamMetrics"]


@dataclass(frozen=True)
class FleetConfig:
    """Policy shared by every stream of a :class:`PredictionFleet`.

    Every count is stored as a plain ``int``: a numpy integer is
    converted, and a bool or a float raises ``ConfigurationError``.

    Attributes
    ----------
    lar:
        Per-stream pipeline configuration (paper defaults).
    min_train:
        Raw values a stream buffers before its model is trained; must be
        at least ``lar.window + max(lar.k, 2)`` so training yields enough
        (frame, label) pairs to fit the k-NN selector.
    label_smoothing:
        Trailing window of the online labelling rule (an integer >= 1).
    max_memory:
        Per-stream cap on stored k-NN windows, at least ``lar.k``
        (``None`` = unbounded).
        Serving many long-running streams, a cap keeps both memory and
        query cost flat.
    history_limit:
        Per-stream cap on stored raw values (``None`` = unbounded).
    qa_threshold:
        Normalized-MSE retraining threshold (1.0 == mean predictor).
    audit_window / audit_interval:
        The QA's audit geometry (see
        :class:`~repro.core.qa.PredictionQualityAssuror`).
    retrain_window:
        History tail a QA-ordered retrain refits everything on: the
        normalizer, the predictors, the PCA basis and the k-NN memory
        (``None`` = all stored history).
    auto_retrain:
        Run scheduled (re)trains at the end of each :meth:`ingest` call.
        ``False`` leaves them pending until
        :meth:`PredictionFleet.run_pending_retrains` — the mode for
        callers that want to control when training cost is paid.
    retrain_mode:
        ``"sync"`` (the default) runs each retrain burst to completion
        inside :meth:`PredictionFleet.run_pending_retrains` — the tick
        that triggers a drift storm pays for the whole burst.
        ``"async"`` dispatches bursts to the persistent worker pool as
        futures and returns immediately; each subsequent tick boundary
        integrates whatever finished, replaying the in-flight ticks so
        the swapped-in model is bit-identical to one trained
        synchronously at the submission tick and served since (see
        :mod:`repro.serving.retrain`).
    max_retrains_per_tick:
        Budget on how many scheduled (re)trains a single
        :meth:`PredictionFleet.run_pending_retrains` call processes
        (``None`` = unlimited). Due streams are served
        oldest-breach-first; streams over budget stay queued with their
        current model still serving, so one ingest call is never blocked
        on more than the budgeted trainings.
    """

    lar: LARConfig = field(default_factory=LARConfig)
    min_train: int = 64
    label_smoothing: int = 10
    max_memory: int | None = 512
    history_limit: int | None = 1024
    qa_threshold: float = 2.0
    audit_window: int = 32
    audit_interval: int = 8
    retrain_window: int | None = 256
    auto_retrain: bool = True
    retrain_mode: str = "sync"
    max_retrains_per_tick: int | None = None

    def __post_init__(self) -> None:
        check_positive_int_fields(
            self,
            ("min_train", "label_smoothing", "audit_window", "audit_interval"),
            optional=("max_memory", "history_limit", "retrain_window",
                      "max_retrains_per_tick"),
        )
        # A series of length L yields L - window training pairs, and the
        # k-NN selector needs at least k of them to fit.
        floor = self.lar.window + max(self.lar.k, 2)
        if self.min_train < floor:
            raise ConfigurationError(
                f"min_train must be >= window + max(k, 2) ({floor}), "
                f"got {self.min_train}"
            )
        if self.history_limit is not None and self.history_limit < self.min_train:
            raise ConfigurationError(
                f"history_limit ({self.history_limit}) must be >= "
                f"min_train ({self.min_train}); streams could never train"
            )
        if self.retrain_window is not None and self.retrain_window < floor:
            raise ConfigurationError(
                f"retrain_window must be >= window + max(k, 2) ({floor}), "
                f"got {self.retrain_window}"
            )
        if self.max_memory is not None and self.max_memory < self.lar.k:
            raise ConfigurationError(
                f"max_memory must be >= k ({self.lar.k}) or None, "
                f"got {self.max_memory}"
            )
        # Written so that NaN fails too: every comparison with NaN is
        # false, and a NaN threshold would never order a retrain.
        if not self.qa_threshold > 0.0:
            raise ConfigurationError(
                f"qa_threshold must be positive, got {self.qa_threshold}"
            )
        if self.retrain_mode not in ("sync", "async"):
            raise ConfigurationError(
                f"retrain_mode must be 'sync' or 'async', "
                f"got {self.retrain_mode!r}"
            )


@dataclass(frozen=True)
class StreamMetrics:
    """Snapshot of one stream's serving state."""

    name: str
    ticks: int
    trained: bool
    history_length: int
    memory_size: int
    windows_learned: int
    retrain_count: int
    rolling_mse: float
    audits: int
    breaches: int
    selections: dict[str, int]


@dataclass(frozen=True)
class FleetMetrics:
    """Fleet-level snapshot: per-stream rows plus aggregates.

    ``deferred_retrains`` counts the budget scheduler's deferral
    decisions over the fleet's lifetime (every time a due stream was
    passed over by a budgeted retrain round) — distinct from
    ``pending_retrains``, the streams currently queued. ``telemetry``
    embeds the registry aggregates when the fleet runs with telemetry
    enabled (``None`` otherwise).
    """

    streams: tuple[StreamMetrics, ...]
    n_streams: int
    n_trained: int
    total_ticks: int
    total_retrains: int
    pending_retrains: int
    deferred_retrains: int
    selections: dict[str, int]
    telemetry: dict | None = None
    inflight_retrains: int = 0

    def render(self, *, max_rows: int = 20) -> str:
        """Fixed-width text report (truncated to *max_rows* streams)."""
        # Imported here: the experiments package pulls in the trace
        # generators, which serving does not otherwise need.
        from repro.experiments.report import format_table

        rows = [
            [
                m.name,
                m.ticks,
                "yes" if m.trained else "no",
                m.memory_size,
                m.retrain_count,
                m.audits,
                m.breaches,
                m.rolling_mse,
                "/".join(f"{k}:{v}" for k, v in sorted(m.selections.items()))
                or "-",
            ]
            for m in self.streams[:max_rows]
        ]
        table = format_table(
            ["stream", "ticks", "trained", "memory", "retrains",
             "audits", "breaches", "rolling MSE", "selections"],
            rows,
            title=(
                f"Fleet: {self.n_streams} streams, {self.n_trained} trained, "
                f"{self.total_retrains} retrains, "
                f"{self.pending_retrains} pending, "
                f"{self.deferred_retrains} deferred, "
                f"{self.inflight_retrains} in flight"
            ),
        )
        if len(self.streams) > max_rows:
            table += f"\n... ({len(self.streams) - max_rows} more streams)"
        return table

    def as_dict(self) -> dict:
        """JSON-safe dump (the ``--stats-out`` document body)."""
        return {
            "n_streams": self.n_streams,
            "n_trained": self.n_trained,
            "total_ticks": self.total_ticks,
            "total_retrains": self.total_retrains,
            "pending_retrains": self.pending_retrains,
            "deferred_retrains": self.deferred_retrains,
            "inflight_retrains": self.inflight_retrains,
            "selections": dict(self.selections),
            "streams": [
                {
                    "name": m.name,
                    "ticks": m.ticks,
                    "trained": m.trained,
                    "history_length": m.history_length,
                    "memory_size": m.memory_size,
                    "windows_learned": m.windows_learned,
                    "retrain_count": m.retrain_count,
                    "rolling_mse": m.rolling_mse,
                    "audits": m.audits,
                    "breaches": m.breaches,
                    "selections": dict(m.selections),
                }
                for m in self.streams
            ],
            "telemetry": self.telemetry,
        }


def _checked_out(field: str, *, settable: bool = True) -> property:
    """A ``_StreamState`` attribute stored in slot *field* that checks
    its stream out of the batched engine before every read and write.

    Without *settable*, the attribute is read-only: the fleet swaps a
    stream's model only through retrain integration and ``load``,
    which write the backing slot.
    """

    def get(state):
        while True:
            entry = state._entry
            if entry is not None:
                entry.engine.checkout(entry)
            value = getattr(state, field)
            # A retrain may install a new row from another thread
            # meanwhile; read again through the new one.
            if state._entry is entry:
                return value

    def set_(state, value):
        entry = state._entry
        if entry is not None:
            entry.engine.checkout(entry)
        setattr(state, field, value)

    return property(get, set_ if settable else None)


class _StreamState:
    """Mutable per-stream serving state (internal).

    A cold stream's values live in the fleet's
    :class:`~repro.serving.warmup.WarmupRing`, not here: until its
    initial train integrates, ``ticks`` reads the stream's count in the
    ring, and the ring's row is the history the initial train fits.

    While the :class:`~repro.serving.engine.BatchedTickEngine` serves the
    stream (``_entry`` is its engine row), the engine holds the stream's
    newest tick state. ``predictor``, ``qa``, ``pending``, ``ticks`` and
    ``selections`` check the stream out of the engine on every access,
    so whoever reads them sees current objects; ``predictor``, ``qa``
    and ``ticks`` are read-only. A check-out leaves the row the
    engine's, so fleet code that writes a served stream's objects
    detaches it first
    (:meth:`~repro.serving.engine.BatchedTickEngine.detach`). Engine
    and fleet hot paths read the ``_``-prefixed backing slots. A model
    installed into its engine row by a stacked retrain has no object
    until the first check-out builds it: ``_predictor`` is ``None``
    while ``_entry`` is set.
    """

    __slots__ = (
        "name", "_warmup", "_predictor", "_qa", "_pending", "pending_at",
        "_ticks", "retrain_count", "_selections", "train_due", "retrain_due",
        "due_at", "epoch", "_entry",
    )

    predictor = _checked_out("_predictor", settable=False)
    qa = _checked_out("_qa", settable=False)
    pending = _checked_out("_pending")
    selections = _checked_out("_selections")
    _trained_ticks = _checked_out("_ticks", settable=False)

    def __init__(self, name: str, config: FleetConfig, warmup: WarmupRing):
        self.name = name
        self._warmup = warmup
        self._entry = None
        self._predictor: OnlineLARPredictor | None = None
        self._qa = PredictionQualityAssuror(
            config.qa_threshold,
            audit_window=config.audit_window,
            audit_interval=config.audit_interval,
        )
        self._pending: Forecast | None = None
        self.pending_at = -1
        self._ticks = 0
        self.retrain_count = 0
        self._selections: dict[str, int] = {}
        self.train_due = False
        self.retrain_due = False
        # Ingest-tick sequence number at which this stream first became
        # due; orders the retrain queue oldest-breach-first.
        self.due_at = 0
        # Fleet-unique model generation stamp, advanced on every
        # predictor swap (and at registration, so a removed-then-readded
        # name never matches). An asynchronous burst records it at
        # submission; a drained result whose stream moved on — swapped
        # models or was replaced under the same name — is stale and
        # dropped instead of integrated.
        self.epoch = 0

    @property
    def trained(self) -> bool:
        """Whether the stream has a model (no check-out needed)."""
        return self._predictor is not None or self._entry is not None

    @property
    def ticks(self) -> int:
        """Values the stream has ingested: a cold stream's count in the
        warm-up ring, a trained one's checked-out tick count."""
        if not self.trained:
            return self._warmup.count(self.name)
        return self._trained_ticks


class _FleetInstruments:
    """Fleet-level instruments, bound once so hooks skip registry lookups."""

    __slots__ = (
        "ticks", "observations", "forecasts", "audits", "breaches",
        "trains", "retrains", "deferrals", "streams", "trained", "pending",
        "inflight",
    )

    def __init__(self, registry):
        self.ticks = registry.counter(
            "repro_fleet_ticks_total", "Ingest calls processed."
        )
        self.observations = registry.counter(
            "repro_fleet_observations_total", "Stream values ingested."
        )
        self.forecasts = registry.counter(
            "repro_fleet_forecasts_total", "Per-stream forecasts served."
        )
        self.audits = registry.counter(
            "repro_fleet_qa_audits_total", "QA audits run across the fleet."
        )
        self.breaches = registry.counter(
            "repro_fleet_qa_breaches_total",
            "QA audits that breached the retraining threshold.",
        )
        self.trains = registry.counter(
            "repro_fleet_trains_total", "Initial trainings completed."
        )
        self.retrains = registry.counter(
            "repro_fleet_retrains_total", "QA-ordered retrainings completed."
        )
        self.deferrals = registry.counter(
            "repro_fleet_retrain_deferrals_total",
            "Times the retrain budget passed over a due stream.",
        )
        self.streams = registry.gauge(
            "repro_fleet_streams", "Registered streams."
        )
        self.trained = registry.gauge(
            "repro_fleet_trained_streams", "Streams past warm-up."
        )
        self.pending = registry.gauge(
            "repro_fleet_pending_retrains",
            "Streams currently scheduled for (re)training.",
        )
        self.inflight = registry.gauge(
            "repro_fleet_retrains_inflight",
            "Streams whose retrain burst is currently running in flight.",
        )


class PredictionFleet:
    """N named streams, one lightweight adaptive predictor each.

    Parameters
    ----------
    config:
        Shared per-stream policy; default :class:`FleetConfig`.
    streams:
        Stream names to register immediately (more can be added and
        removed at any time).
    telemetry:
        ``True`` builds a fresh :class:`~repro.obs.Telemetry`; a
        :class:`~repro.obs.Telemetry` instance is used as given (pass
        one to share a registry across fleets); ``None``/``False`` (the
        default) turns instrumentation off — the hot loops then skip
        every hook behind one attribute check. Any other value raises
        :class:`~repro.exceptions.ConfigurationError`.
    flight_dir:
        Directory for anomaly flight dumps. Setting it implies
        telemetry (a fresh :class:`~repro.obs.Telemetry` is built if
        none was given), attaches a flight recorder to the tracer, and
        arms an :class:`~repro.obs.AnomalyTrigger` that snapshots the
        recorder there on QA-breach storms, phase-latency spikes, and
        broken worker pools (see :attr:`anomaly_trigger`).

    Usage
    -----
    >>> fleet = PredictionFleet(streams=["vm1.cpu", "vm1.net"])  # doctest: +SKIP
    >>> for tick in feed:                                        # doctest: +SKIP
    ...     forecasts = fleet.forecast_all()
    ...     fleet.ingest(tick)   # audits forecasts, learns, schedules retrains
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        *,
        streams: Iterable[str] = (),
        telemetry: "Telemetry | bool | None" = None,
        flight_dir=None,
    ):
        self.config = config if config is not None else FleetConfig()
        self._streams: dict[str, _StreamState] = {}
        # Created lazily so persistence round-trips and pickling never
        # depend on the engine's internal tensors.
        self._engine: "BatchedTickEngine | None" = None
        self._train_engine: "BatchedTrainEngine | None" = None
        # Every cold stream's warm-up values (one row per stream).
        self._warmup = WarmupRing(
            self.config.min_train, self.config.history_limit
        )
        # Monotonic ingest-tick counter; stamps when streams become due.
        self._due_seq = 0
        # Model generation clock for _StreamState.epoch stamps.
        self._epoch_seq = 0
        # The due queue and every retrain round, sync or async.
        self._retrain = RetrainScheduler(self)
        # Selection counters are settled lazily: the tick paths bump
        # plain dicts (``state.selections``) and a registry collector
        # (:meth:`_flush_selections`) derives labelled-counter deltas
        # whenever the registry is read. ``_sel_counters`` caches the
        # counter children, ``_sel_flushed`` the per-key high-water
        # count already pushed into them.
        self._sel_counters: dict[tuple[str, str], object] = {}
        self._sel_flushed: dict[tuple[str, str], int] = {}
        # None when telemetry is off: hooks are `if self._tel is not
        # None` so the disabled cost is one attribute load and a branch.
        if telemetry is None or telemetry is False:
            self._tel = None
        elif telemetry is True:
            self._tel = Telemetry()
        elif isinstance(telemetry, Telemetry):
            self._tel = telemetry
        else:
            raise ConfigurationError(
                f"telemetry must be None, a bool or a Telemetry, "
                f"got {telemetry!r}"
            )
        # QA breaches seen during the current ingest tick — the anomaly
        # trigger's storm signal (only counted with telemetry on).
        self._breaches_this_tick = 0
        self._trigger = None
        if flight_dir is not None:
            if self._tel is None:
                self._tel = Telemetry()
            self._tel.enable_flight()
            from repro.obs import AnomalyTrigger

            self._trigger = AnomalyTrigger(flight_dir, self._tel)
        self._m = (
            _FleetInstruments(self._tel.registry)
            if self._tel is not None
            else None
        )
        if self._tel is not None:
            self._tel.registry.add_collector(self._flush_selections)
        for name in streams:
            self.add_stream(name)

    @property
    def anomaly_trigger(self):
        """The armed :class:`~repro.obs.AnomalyTrigger`, or ``None``."""
        return self._trigger

    def close(self) -> None:
        """Unhook the fleet from its telemetry's registry (idempotent).

        Settles the selection counters once and unregisters the fleet's
        registry collector, so a registry shared with other fleets
        neither keeps this one alive nor flushes it on later reads.
        Disarms the anomaly trigger, if one was armed. Nothing else is
        unhooked: a fleet used after ``close`` still records its ticks,
        forecasts, spans and events, but its selection counters are
        then settled only by :meth:`remove_stream`.
        """
        if self._tel is not None:
            self._flush_selections()
            self._tel.registry.remove_collector(self._flush_selections)
        if self._trigger is not None:
            self._trigger.close()

    # -- stream lifecycle ---------------------------------------------------

    @property
    def telemetry(self) -> Telemetry | None:
        """The fleet's telemetry, or ``None`` when it is off."""
        return self._tel

    @property
    def stream_names(self) -> tuple[str, ...]:
        """Registered stream names in insertion order."""
        return tuple(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def add_stream(self, name: str) -> "PredictionFleet":
        """Register a new (cold) stream."""
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"stream name must be a non-empty string, got {name!r}"
            )
        if name in self._streams:
            raise ConfigurationError(f"stream {name!r} already exists")
        state = _StreamState(name, self.config, self._warmup)
        state.epoch = self._next_epoch()
        self._streams[name] = state
        self._warmup.claim(name)
        if self._tel is not None:
            self._m.streams.set(len(self._streams))
            self._tel.events.emit(
                "stream_add", tick=self._due_seq, stream=name
            )
        return self

    def remove_stream(self, name: str) -> "PredictionFleet":
        """Drop a stream and its model.

        A retrain in flight for the stream keeps running — its result is
        recognized as stale and dropped at the next drain.
        """
        state = self._require_stream(name)
        self._retrain.clear_due(state)
        if not state.trained:
            self._warmup.release(name)
        # Settle any unflushed selections while the state still exists.
        # The registry keeps the stream's selection series (scrapes stay
        # monotone); only the local caches are pruned.
        self._flush_selections()
        del self._streams[name]
        for key in [k for k in self._sel_counters if k[0] == name]:
            del self._sel_counters[key]
            self._sel_flushed.pop(key, None)
        if self._tel is not None:
            self._m.streams.set(len(self._streams))
            self._tel.events.emit(
                "stream_remove", tick=self._due_seq, stream=name
            )
        return self

    def is_trained(self, name: str) -> bool:
        """Whether *name*'s model exists (its warm-up has completed)."""
        return self._require_stream(name).trained

    # -- batched serving ----------------------------------------------------

    def ingest(
        self, values: Mapping[str, float], *, batched: bool = True
    ) -> dict[str, int | None]:
        """Ingest one tick of measurements — the fleet's write path.

        For each ``(stream, value)``: audit the forecast that predicted
        this value with the stream's QA (computing it on the spot if the
        caller skipped :meth:`forecast_all`), learn from the completed
        window, and schedule a retrain if the QA latched a breach.
        Streams still warming up just buffer the value in the fleet's
        warm-up ring, training lazily once ``min_train`` values exist.

        With ``batched=True`` (the default), trained streams served by
        the :class:`~repro.serving.engine.BatchedTickEngine` are
        processed fleet-wide in a handful of NumPy ops; the result is
        bit-identical to the per-stream loop (``batched=False``), which
        remains both the path of configs the engine does not cover and
        the parity reference.

        Returns the online label learned per stream (``None`` while a
        stream is warming up). The whole batch is validated before any
        stream is touched. The warm-up values are stored last, with one
        scatter on either path, so a tick that raises in a trained
        stream stores none of them.
        """
        names, clean = self._validate_values(values)

        # One tick of the due-stamp clock per ingest call: every stream
        # that first becomes due during this call shares the same stamp,
        # so batched and per-stream processing order the queue alike.
        self._due_seq += 1
        tel = self._tel
        if tel is not None:
            self._m.ticks.inc()
            self._m.observations.inc(len(names))
            if tel.flight is not None:
                tel.flight.set_tick(self._due_seq)
            self._breaches_this_tick = 0

        learned: dict[str, int | None] = {}
        if batched:
            engine = self._get_engine()
            engine.sync()
            learned = engine.ingest_batch(names, clean)
        warmup = self._warmup
        pick = warmup.pick(names)
        by_name = None
        loop_n = len(names) - len(learned)
        if pick is not None:
            loop_n -= len(pick.names)
        if loop_n:
            by_name = dict(zip(names, clean.tolist()))
            loop = {
                name: value for name, value in by_name.items()
                if name not in learned and name not in warmup
            }
            if tel is not None:
                with tel.tracer.span("tick.per_stream_loop", batch=loop_n):
                    learned.update(self._ingest_per_stream(loop))
            else:
                learned.update(self._ingest_per_stream(loop))
        if pick is not None:
            if tel is not None:
                with tel.tracer.span("tick.warmup", batch=len(pick.names)):
                    due = warmup.write(pick, clean)
            else:
                due = warmup.write(pick, clean)
            for name in due:
                self._retrain.schedule(self._streams[name], initial=True)
            # Cold streams learn nothing; the labels keep tick order.
            learned = (
                {name: learned.get(name) for name in names}
                if learned
                else dict.fromkeys(names)
            )

        if self._trigger is not None and self._breaches_this_tick:
            self._trigger.note_breaches(
                self._breaches_this_tick, tick=self._due_seq
            )

        # Streams with a retrain in flight served this tick on their old
        # model; record the value so the drained model replays it —
        # before any drain below, which must see this tick's values.
        if self._retrain.inflight:
            if by_name is None:
                by_name = dict(zip(names, clean.tolist()))
            self._retrain.note_values(by_name)

        if self.config.auto_retrain:
            self.run_pending_retrains(batched=batched)
        return learned

    def _validate_values(
        self, values: Mapping[str, float]
    ) -> tuple[list[str], np.ndarray]:
        """One tick's names and float64 values, checked before any use.

        The whole tick converts in one ``np.fromiter`` pass (which
        converts each value exactly as ``float()`` does) and is checked
        with one ``np.isfinite``. Anything that fails either check takes
        the per-value path, which raises the first error in input order:
        an unknown stream, an unconvertible value, or a non-finite one.
        """
        names = list(values)
        try:
            known = bool(values.keys() <= self._streams.keys())
            clean = np.fromiter(
                values.values(), dtype=np.float64, count=len(names)
            )
        except (TypeError, ValueError, ArithmeticError):
            known = False
        if known and np.isfinite(clean).all():
            return names, clean
        floats = []
        for name, value in values.items():
            self._require_stream(name)
            value = float(value)
            if not np.isfinite(value):
                raise ConfigurationError(
                    f"value for stream {name!r} must be finite, got {value}"
                )
            floats.append(value)
        return names, np.array(floats, dtype=np.float64)

    def _ingest_per_stream(self, clean: dict[str, float]) -> dict[str, int]:
        """The per-stream tick loop over trained streams: the serve path
        of a ``batched=False`` tick, of a config the batched engine does
        not cover, and of a tick the engine handed back (a non-finite
        audit error, which must raise at its stream)."""
        learned: dict[str, int] = {}
        for name, value in clean.items():
            state = self._streams[name]
            entry = state._entry
            if entry is not None:
                # The loop writes the stream's objects: hand them back,
                # and the engine's next sync reloads the row whole.
                entry.engine.detach(entry)
            predictor = state.predictor
            if (
                state.pending is not None
                and state.pending_at == predictor.history_length
            ):
                fc = state.pending
            else:
                fc = predictor.forecast()
            normalizer = predictor._runner.pipeline.normalizer
            audit = state.qa.record(
                fc.normalized_value, normalizer.transform_value(value)
            )
            if audit is not None and self._tel is not None:
                self._note_audits(1, [(name, audit)] if audit.breached else [])
            state.selections[fc.predictor_name] = (
                state.selections.get(fc.predictor_name, 0) + 1
            )
            state.pending = None
            learned[name] = predictor.observe(value)
            state._ticks += 1
            if state.qa.retraining_due:
                self._retrain.schedule(state, initial=False)
        return learned

    def forecast_all(
        self, names: Iterable[str] | None = None, *, batched: bool = True
    ) -> dict[str, Forecast]:
        """Next-value forecasts for every trained stream — the read path.

        Streams still warming up are silently omitted (they have no
        model yet); pass *names* to restrict to a subset. Each forecast
        is remembered so the matching :meth:`ingest` audits it instead
        of recomputing. When the engine's batch and the cold streams
        make up the whole fleet (an all-cold fleet included), the batch
        is returned at once, with no per-stream pass.

        With ``batched=True`` (the default), the trained streams of a
        config the engine covers are forecast fleet-wide by the
        :class:`~repro.serving.engine.BatchedTickEngine` — bit-identical
        to the per-stream loop (``batched=False``), just a handful of
        NumPy ops instead of N Python call chains.
        """
        targets = None
        if names is not None:
            targets = tuple(names)
            for name in targets:
                self._require_stream(name)
        batch: dict[str, Forecast] = {}
        if batched:
            batch = self._get_engine().forecast_batch(targets)
        tel = self._tel
        if targets is None:
            if len(batch) + len(self._warmup) == len(self._streams):
                # The engine served every trained stream (and already
                # left each forecast as the stream's pending one).
                if tel is not None:
                    self._m.forecasts.inc(len(batch))
                return batch
            targets = self.stream_names
        span = None
        if tel is not None:
            loop_n = sum(
                1
                for name in targets
                if name not in batch and self._streams[name].trained
            )
            if loop_n:
                span = tel.tracer.span("read.per_stream_loop", batch=loop_n)
                span.__enter__()
        out: dict[str, Forecast] = {}
        for name in targets:
            fc = batch.get(name)
            if fc is None:
                state = self._streams[name]
                if state._predictor is None and state._entry is None:
                    continue  # warming up
                fc = state.predictor.forecast()
                state.pending = fc
                state.pending_at = state.predictor.history_length
            out[name] = fc
        if span is not None:
            span.__exit__(None, None, None)
        if tel is not None:
            self._m.forecasts.inc(len(out))
        return out

    def forecast(self, name: str) -> Forecast:
        """Next-value forecast for one stream (must be past warm-up).

        A stream the engine holds (served, or installed by a stacked
        retrain and not yet read) is forecast from its engine row
        without being checked out; a detached stream is forecast
        through its objects, with no engine sync.
        """
        state = self._require_stream(name)
        if not state.trained:
            raise NotFittedError(
                f"stream {name!r} is still warming up "
                f"({self._warmup.stored(name)}/{self.config.min_train} "
                f"values)"
            )
        return self.forecast_all(
            (name,), batched=state._entry is not None
        )[name]

    # -- training / retraining ----------------------------------------------

    @property
    def pending_retrains(self) -> tuple[str, ...]:
        """Streams scheduled for (re)training but not yet processed.

        Ordered oldest-breach-first (by the ingest tick at which each
        stream became due, then by registration order) — the order in
        which a budgeted :meth:`run_pending_retrains` serves them.
        """
        return self._retrain.pending()

    def run_pending_retrains(
        self, *, budget: int | None = None, batched: bool = True
    ) -> tuple[str, ...]:
        """Run scheduled initial trains and QA-ordered retrains.

        The out-of-band path that keeps training cost off the ingest
        hot loop. With ``batched=True`` (the default) and an eligible
        configuration, the whole burst runs as one stacked computation
        through the :class:`~repro.serving.trainer.BatchedTrainEngine`,
        bit-identical to training each stream alone; otherwise each
        due stream trains in turn, in-process.

        *budget* caps how many due streams this call processes
        (defaulting to ``config.max_retrains_per_tick``); the queue is
        served oldest-breach-first and deferred streams stay scheduled,
        serving their current model until a later call reaches them.

        Returns the names actually (re)trained, in processing order.

        With ``config.retrain_mode="async"`` the call instead drains
        whatever bursts *finished* (integrating their models, see
        :meth:`drain_retrains`), then dispatches the budgeted due
        streams to the worker pool and returns without waiting — the
        returned names are the streams integrated this call, and
        submitted streams keep serving their current model until a
        later call integrates them.
        """
        if budget is None:
            budget = self.config.max_retrains_per_tick
        elif budget < 0:
            raise ConfigurationError(
                f"budget must be >= 0 or None, got {budget}"
            )
        return self._retrain.run(budget, batched)

    def drain_retrains(self, *, wait: bool = False) -> tuple[str, ...]:
        """Integrate finished asynchronous retrains, out of band.

        The tick-boundary half of async mode, exposed for callers that
        need a flush point: ``wait=True`` blocks until every in-flight
        burst lands (``train.async_wait`` span) and integrates them all
        — :meth:`save` flushes this way so a persisted fleet never has
        work in flight. Returns the integrated stream names; an empty
        tuple in sync mode or when nothing is in flight.
        """
        return self._retrain.drain(wait=wait)

    # -- observability -------------------------------------------------------

    def metrics(self) -> FleetMetrics:
        """Point-in-time snapshot of the whole fleet."""
        rows = []
        merged: dict[str, int] = {}
        total_ticks = 0
        total_retrains = 0
        n_trained = 0
        for name, state in self._streams.items():
            # Each checked-out attribute is read once.
            predictor, qa = state.predictor, state.qa
            ticks, selections = state.ticks, state.selections
            trained = predictor is not None
            n_trained += trained
            total_ticks += ticks
            total_retrains += state.retrain_count
            for key, count in selections.items():
                merged[key] = merged.get(key, 0) + count
            rows.append(
                StreamMetrics(
                    name=name,
                    ticks=ticks,
                    trained=trained,
                    history_length=(
                        predictor.history_length
                        if trained
                        else self._warmup.stored(name)
                    ),
                    memory_size=predictor.memory_size if trained else 0,
                    windows_learned=(
                        predictor.windows_learned_online if trained else 0
                    ),
                    retrain_count=state.retrain_count,
                    rolling_mse=qa.rolling_mse,
                    audits=qa.audits_total,
                    breaches=qa.breaches_total,
                    selections=dict(selections),
                )
            )
        pending = len(self.pending_retrains)
        inflight = self._retrain.inflight
        telemetry = None
        if self._tel is not None:
            self._m.trained.set(n_trained)
            self._m.pending.set(pending)
            self._m.inflight.set(inflight)
            telemetry = self._tel.registry.snapshot()
        return FleetMetrics(
            streams=tuple(rows),
            n_streams=len(self._streams),
            n_trained=n_trained,
            total_ticks=total_ticks,
            total_retrains=total_retrains,
            pending_retrains=pending,
            deferred_retrains=self._retrain.deferred_total,
            selections=merged,
            telemetry=telemetry,
            inflight_retrains=inflight,
        )

    # -- persistence ----------------------------------------------------------

    def save(self, directory) -> None:
        """Write the whole fleet under *directory* (see
        :func:`repro.serving.persistence.save_fleet`)."""
        from repro.serving.persistence import save_fleet

        save_fleet(self, directory)

    @classmethod
    def load(cls, directory, *, telemetry=None) -> "PredictionFleet":
        """Restore a fleet saved by :meth:`save`.

        *telemetry* is forwarded to the constructor, so a restored
        fleet can come back with observation wired in (telemetry state
        itself is process-local and never persisted).
        """
        from repro.serving.persistence import load_fleet

        return load_fleet(directory, telemetry=telemetry)

    # -- internals -------------------------------------------------------------

    def _get_engine(self) -> BatchedTickEngine:
        if self._engine is None:
            self._engine = BatchedTickEngine(self)
        return self._engine

    def _get_train_engine(self) -> BatchedTrainEngine:
        if self._train_engine is None:
            self._train_engine = BatchedTrainEngine(
                self.config, telemetry=self._tel
            )
        return self._train_engine

    def _next_epoch(self) -> int:
        self._epoch_seq += 1
        return self._epoch_seq

    def _flush_selections(self) -> None:
        """Settle ``state.selections`` into labelled registry counters.

        Registered as a registry collector, so it runs before every
        registry read (snapshot, exposition, scrape). The per-stream
        loop bumps ``state.selections`` directly and the batched engine
        counts selections in its arrays until the read checks the
        stream out, so the per-stream label distribution
        (``repro_fleet_selections_total{stream=...,predictor=...}``) is
        identical whichever executed the tick, and the tick hot loop
        never touches a counter at all. Deltas against the per-key
        high-water mark keep repeated flushes idempotent and keep a
        re-added stream's registry series monotone.
        """
        tel = self._tel
        if tel is None:
            return
        counters = self._sel_counters
        flushed = self._sel_flushed
        for name, state in list(self._streams.items()):
            for predictor_name, count in list(state.selections.items()):
                key = (name, predictor_name)
                done = flushed.get(key, 0)
                if count <= done:
                    continue
                counter = counters.get(key)
                if counter is None:
                    counter = tel.registry.counter(
                        "repro_fleet_selections_total",
                        "Pool-member selections, labelled by stream "
                        "and predictor.",
                        stream=name,
                        predictor=predictor_name,
                    )
                    counters[key] = counter
                counter.inc(count - done)
                flushed[key] = count

    def _note_audits(
        self, audits: int, breaches: "list[tuple[str, AuditRecord]]"
    ) -> None:
        """Record QA audits (and breaches) with the telemetry.

        Both tick paths funnel through here, so counters and events are
        identical whichever ran the tick: the per-stream loop calls it
        once per audit, the batched engine once per tick with the
        tick's audit count. *breaches* holds only the ``(stream,
        audit)`` pairs that breached: routine audits fold into the
        ``repro_fleet_qa_audits_total`` counter only, and the event log
        narrates breaches — one event per audited stream per audit tick
        would dominate the telemetry budget and evict everything else
        from the ring. Only called with telemetry enabled.
        """
        tel = self._tel
        self._m.audits.inc(audits)
        for name, audit in breaches:
            tel.events.emit(
                "qa_breach",
                tick=self._due_seq,
                stream=name,
                window_mse=audit.window_mse,
            )
        if breaches:
            self._m.breaches.inc(len(breaches))
            self._breaches_this_tick += len(breaches)

    def _require_stream(self, name: str) -> _StreamState:
        try:
            return self._streams[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown stream {name!r}; registered: "
                f"{sorted(self._streams) or 'none'}"
            ) from None

    def __repr__(self) -> str:
        n_trained = sum(1 for s in self._streams.values() if s.trained)
        return (
            f"PredictionFleet(streams={len(self._streams)}, "
            f"trained={n_trained}, "
            f"pending_retrains={len(self.pending_retrains)})"
        )
