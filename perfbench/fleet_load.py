"""Serving workloads: a closed loop of fleet ticks through ``repro.serving``.

One caller process drives each :class:`~repro.serving.PredictionFleet`.
Every tick is ``forecast_all()`` -> ``ingest()`` -> ``run_pending_retrains()``
and the caller issues the next tick only after the previous one returned
(no think time), as a monitoring agent polling its fleet would. The fleet
runs with ``auto_retrain=False`` so the retrain call is timed on its own;
the fleet does the same work either way.

A run is a sequence of *episodes*. Each episode builds a fresh fleet from
the same seeded feed (set-up: fleet build plus warm-up until every stream
is trained), then serves ``EPISODE_TICKS`` timed ticks. Sync episodes of
one run therefore do exactly the same work, which is what the fingerprint
check relies on. In a traced run, episodes alternate untraced / traced,
and the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.obs import Telemetry
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series, conflict_series, white_noise_series

from common import Metric, median, percentile

N_STREAMS = 500
EPISODE_TICKS = 250
#: Episodes replay the same feed, and interference from the shared host
#: only adds time, so p50 and throughput come from each tick's fastest
#: time over a run's untraced episodes (see ``best_ticks``), p95 from
#: each tick's median time over them, and p99 from the ticks of the
#: TAIL_EPISODES fastest of them (1000 ticks: ten beyond p99), which is
#: also the fewest an untraced run serves.
TAIL_EPISODES = 4
CHECKPOINT_TRIPS = 2
SHIFT_EVERY = 50
SHIFT_LEVEL = 25.0
#: Streams replayed through the per-stream reference; a spread of
#: indices covers all three feed families and both storm halves.
REFERENCE_STREAMS = 6
#: Large enough that one episode's events and span records never wrap,
#: so event counts and span coverage are exact.
EVENT_CAPACITY = 1 << 16
FLIGHT_CAPACITY = 1 << 17


def _storm_config(mode: str) -> FleetConfig:
    return FleetConfig(
        min_train=1024,
        max_memory=64,
        history_limit=1024,
        retrain_window=1024,
        auto_retrain=False,
        retrain_mode=mode,
    )


@dataclass(frozen=True)
class Spec:
    """One serving workload: fleet policy, warm-up length and checks."""

    config: FleetConfig
    warm: int
    drift: bool
    reference_check: bool
    checkpoint: bool


SPECS = {
    # min_train=552 trains every stream on enough windows to fill the
    # default max_memory=512 before timing starts.
    "serve_deep": Spec(
        FleetConfig(min_train=552, auto_retrain=False),
        warm=552, drift=False, reference_check=True, checkpoint=True,
    ),
    "drift_storm": Spec(
        _storm_config("sync"),
        warm=1024, drift=True, reference_check=True, checkpoint=False,
    ),
    "storm_async": Spec(
        _storm_config("async"),
        warm=1024, drift=True, reference_check=False, checkpoint=False,
    ),
}


@dataclass
class Feed:
    names: list
    values: np.ndarray  # (ticks, streams)
    shifts: list  # (tick, stream indices) per injected level shift


def build_feed(seed: int, spec: Spec) -> Feed:
    """Seeded per-stream series, round-robin over three synthetic families.

    With ``spec.drift``, alternating halves of the fleet toggle a
    +``SHIFT_LEVEL`` level shift every ``SHIFT_EVERY`` timed ticks.
    """
    families = (
        lambda n, s: 20.0 + 4.0 * ar1_series(n, phi=0.9, seed=s),
        lambda n, s: conflict_series(n, seed=s),
        lambda n, s: 30.0 + 5.0 * white_noise_series(n, seed=s),
    )
    n_ticks = spec.warm + EPISODE_TICKS
    values = np.stack(
        [families[i % 3](n_ticks, (seed, i)) for i in range(N_STREAMS)], axis=1
    )
    shifts = []
    if spec.drift:
        halves = np.array_split(np.arange(N_STREAMS), 2)
        shifted = [False, False]
        starts = range(spec.warm + SHIFT_EVERY, n_ticks, SHIFT_EVERY)
        for k, tick in enumerate(starts):
            h = k % 2
            shifted[h] = not shifted[h]
            values[tick:, halves[h]] += SHIFT_LEVEL if shifted[h] else -SHIFT_LEVEL
            shifts.append((tick, halves[h]))
    return Feed([f"stream-{i:03d}" for i in range(N_STREAMS)], values, shifts)


@dataclass
class Episode:
    traced: bool
    setup_s: float
    tick_s: np.ndarray
    drain_s: float
    wall_s: float
    forecast_s: float
    ingest_s: float
    retrain_s: float
    forecasts: np.ndarray
    retrains: int
    recovery: list
    unrecovered: int
    fingerprint: dict
    qa_audits: int
    qa_breaches: int
    memory_rows_mean: float
    inflight_left: int = 0
    layers: dict = field(default_factory=dict)


def _row(feed: Feed, t: int) -> dict:
    return dict(zip(feed.names, feed.values[t].tolist()))


def _qa_totals(metrics) -> tuple[int, int, list]:
    streams = metrics.streams
    return (
        sum(m.audits for m in streams),
        sum(m.breaches for m in streams),
        [m.memory_size for m in streams],
    )


def _covered_seconds(records, prefixes: tuple) -> float:
    """Length of the union of the main-process spans named *prefixes*.

    A union, not a sum: some trainer spans nest (``train.relabel`` inside
    ``train.label_cache``; the burst assembly inside ``train.async_wait``).
    """
    spans = sorted(
        (r.start, r.start + r.duration)
        for r in records
        if r.shard is None and r.name.startswith(prefixes)
    )
    total = 0.0
    lo = hi = None
    for start, end in spans:
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    if hi is not None:
        total += hi - lo
    return total


def _counter(tel: Telemetry, name: str) -> float:
    return tel.registry.counter(name).value


_CACHE_COUNTERS = {
    "hits": "repro_fleet_label_cache_hits_total",
    "misses": "repro_fleet_label_cache_misses_total",
    "spliced_frames": "repro_fleet_label_cache_spliced_frames_total",
}


def run_episode(spec: Spec, feed: Feed, *, traced: bool) -> tuple:
    """Set up one fleet and serve the timed ticks; returns (episode, fleet)."""
    tel = (
        Telemetry(
            event_capacity=EVENT_CAPACITY,
            flight=True,
            flight_capacity=FLIGHT_CAPACITY,
        )
        if traced
        else None
    )
    start = perf_counter()
    fleet = PredictionFleet(spec.config, streams=feed.names, telemetry=tel)
    for t in range(spec.warm):
        row = _row(feed, t)
        fleet.forecast_all()
        fleet.ingest(row)
        fleet.run_pending_retrains()
    fleet.drain_retrains(wait=True)
    setup_s = perf_counter() - start

    audits0, breaches0, _ = _qa_totals(fleet.metrics())
    if tel is not None:
        spans0 = {k: s.total_seconds for k, s in tel.tracer.stats().items()}
        counts0 = {k: _counter(tel, c) for k, c in _CACHE_COUNTERS.items()}
        seq0 = tel.events.total_emitted
        tel.flight.clear()

    names = feed.names
    index = {name: i for i, name in enumerate(names)}
    n = EPISODE_TICKS
    tick_s = np.empty(n)
    forecasts = np.full((n, len(names)), np.nan)
    retrain_at = [[] for _ in names]
    forecast_s = ingest_s = retrain_s = 0.0
    for j in range(n):
        row = _row(feed, spec.warm + j)
        t0 = perf_counter()
        served = fleet.forecast_all()
        t1 = perf_counter()
        fleet.ingest(row)
        t2 = perf_counter()
        done = fleet.run_pending_retrains()
        t3 = perf_counter()
        tick_s[j] = t3 - t0
        forecast_s += t1 - t0
        ingest_s += t2 - t1
        retrain_s += t3 - t2
        for name in done:
            retrain_at[index[name]].append(j)
        for i, name in enumerate(names):
            fc = served.get(name)
            if fc is not None:
                forecasts[j, i] = fc.value
    t0 = perf_counter()
    done = fleet.drain_retrains(wait=True)
    drain_s = perf_counter() - t0
    for name in done:
        retrain_at[index[name]].append(n)
    retrain_s += drain_s

    recovery, unrecovered = [], 0
    for tick, streams in feed.shifts:
        j = tick - spec.warm
        for s in streams:
            k = bisect.bisect_left(retrain_at[s], j)
            if k < len(retrain_at[s]):
                recovery.append(retrain_at[s][k] - j)
            else:
                unrecovered += 1

    metrics = fleet.metrics()
    audits, breaches, memory = _qa_totals(metrics)
    retrains = sum(len(r) for r in retrain_at)
    episode = Episode(
        traced=traced,
        setup_s=setup_s,
        tick_s=tick_s,
        drain_s=drain_s,
        wall_s=float(tick_s.sum()) + drain_s,
        forecast_s=forecast_s,
        ingest_s=ingest_s,
        retrain_s=retrain_s,
        forecasts=forecasts,
        retrains=retrains,
        recovery=recovery,
        unrecovered=unrecovered,
        fingerprint={
            "ticks": n,
            "retrains": retrains,
            "qa_audits": audits,
            "qa_breaches": breaches,
            "memory_rows": int(sum(memory)),
        },
        qa_audits=audits - audits0,
        qa_breaches=breaches - breaches0,
        memory_rows_mean=float(np.mean(memory)),
        inflight_left=metrics.inflight_retrains,
    )
    if tel is not None:
        episode.layers = _layer_numbers(tel, episode, spans0, counts0, seq0)
        for key in ("hits", "misses"):
            episode.fingerprint[f"label_cache_{key}"] = int(
                _counter(tel, _CACHE_COUNTERS[key])
            )
    return episode, fleet


_ENGINE_SPANS = {
    "engine.knn_query_s": ("tick.knn_query",),
    "engine.memory_learn_s": ("tick.memory_learn",),
    "engine.audit_s": ("tick.audit",),
    "engine.label_pool_s": ("tick.label_pool",),
    "engine.window_stack_s": ("tick.window_stack",),
    "engine.pool_dispatch_s": ("tick.pool_dispatch",),
    "engine.pca_project_s": ("tick.pca_project",),
    "engine.zscore_s": ("tick.zscore",),
    "engine.per_stream_loop_s": ("tick.per_stream_loop", "read.per_stream_loop"),
}
_TRAINER_SPANS = {
    "trainer.zscore_fit_s": "train.zscore_fit",
    "trainer.ar_fit_s": "train.ar_fit",
    "trainer.labelling_s": "train.labelling",
    "trainer.pca_eigh_s": "train.pca_eigh",
    "trainer.rebuild_s": "train.rebuild",
    "trainer.relabel_s": "train.relabel",
    "trainer.relabel_project_s": "train.relabel_project",
    "label_cache.s": "train.label_cache",
    "async.wait_s": "train.async_wait",
    "async.integrate_s": "train.integrate",
}


def _layer_numbers(tel, ep: Episode, spans0, counts0, seq0) -> dict:
    """Per-layer numbers of one traced episode's timed phase."""
    stats = tel.tracer.stats()

    def spent(*names) -> float:
        return sum(
            stats[k].total_seconds - spans0.get(k, 0.0)
            for k in names
            if k in stats
        )

    out = {
        "fleet.forecast_all_s": ep.forecast_s,
        "fleet.ingest_s": ep.ingest_s,
        "fleet.retrain_s": ep.retrain_s,
    }
    for metric, names in _ENGINE_SPANS.items():
        out[metric] = spent(*names)
    for metric, name in _TRAINER_SPANS.items():
        out[metric] = spent(name)
    records = tel.flight.records()
    out["engine.unattributed_s"] = (ep.forecast_s + ep.ingest_s) - _covered_seconds(
        records, ("tick.", "read.")
    )
    out["trainer.unattributed_s"] = ep.retrain_s - _covered_seconds(
        records, ("train.",)
    )
    out["trainer.retrains"] = ep.retrains
    out["trainer.retrains_per_s"] = (
        ep.retrains / ep.retrain_s if ep.retrain_s > 0 else 0.0
    )
    cache = {k: _counter(tel, c) - counts0[k] for k, c in _CACHE_COUNTERS.items()}
    looked_up = cache["hits"] + cache["misses"]
    out["label_cache.hits"] = cache["hits"]
    out["label_cache.misses"] = cache["misses"]
    out["label_cache.hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    out["label_cache.spliced_frames"] = cache["spliced_frames"]
    events = [e for e in tel.events.records() if e.seq >= seq0]
    dropped = sum(e.kind == "retrain_dropped" for e in events)
    submitted = sum(e.kind == "retrain_submitted" for e in events)
    out["async.dropped"] = dropped
    out["async.dropped_ratio"] = dropped / submitted if submitted else 0.0
    out["qa.audits"] = ep.qa_audits
    out["qa.breaches"] = ep.qa_breaches
    out["knn.memory_rows_mean"] = ep.memory_rows_mean
    out["obs.events_dropped"] = tel.events.dropped + tel.flight.dropped
    return out


def reference_check(spec: Spec, feed: Feed, forecasts: np.ndarray) -> tuple:
    """Replay a sample of streams through the per-stream reference path.

    A small side fleet serves the same values with ``batched=False``;
    every timed forecast must be bit-identical to the big fleet's.
    Returns (forecasts compared, mismatches).
    """
    picks = np.linspace(0, N_STREAMS - 1, REFERENCE_STREAMS).astype(int)
    names = [feed.names[i] for i in picks]
    config = dataclasses.replace(spec.config, retrain_mode="sync")
    side = PredictionFleet(config, streams=names)
    compared = mismatched = 0
    for t in range(spec.warm + EPISODE_TICKS):
        served = side.forecast_all(batched=False)
        if t >= spec.warm:
            for name, i in zip(names, picks):
                compared += 1
                fc = served.get(name)
                if fc is None or fc.value != forecasts[t - spec.warm, i]:
                    mismatched += 1
        side.ingest(
            {name: float(feed.values[t, i]) for name, i in zip(names, picks)},
            batched=False,
        )
        side.run_pending_retrains(batched=False)
    return compared, mismatched


def checkpoint_trip(fleet: PredictionFleet, directory: Path) -> dict:
    """save() then load(); the restored fleet must forecast bit-identically."""
    start = perf_counter()
    fleet.save(directory)
    save_s = perf_counter() - start
    start = perf_counter()
    restored = PredictionFleet.load(directory)
    load_s = perf_counter() - start
    sizes = [p.stat().st_size for p in directory.rglob("*") if p.is_file()]
    shutil.rmtree(directory)
    return {
        "save_s": save_s,
        "load_s": load_s,
        "bytes": sum(sizes),
        "files": len(sizes),
        "ok": restored.forecast_all() == fleet.forecast_all(),
    }


def best_ticks(episodes) -> np.ndarray:
    """Each timed tick's fastest time over *episodes*.

    Every episode replays the same feed from a fresh fleet, so tick j
    does the same work in each of them (in async mode, up to where the
    landed retrains are integrated). The host slows whole stretches of a
    run by up to 1.8x; keeping the best of the repeats, as ``timeit``
    does, drops a stretch unless it covers tick j in every episode.
    """
    return np.min([e.tick_s for e in episodes], axis=0)


def best_wall(episodes) -> float:
    """Timed wall of one episode made of each tick's fastest time, plus
    the fastest final drain."""
    return float(best_ticks(episodes).sum()) + min(e.drain_s for e in episodes)


def nmse(feed: Feed, spec: Spec, forecasts: np.ndarray) -> float:
    """Squared error of each served forecast against the value ingested
    next, over the stream's variance, averaged over ticks then streams."""
    actual = feed.values[spec.warm : spec.warm + EPISODE_TICKS]
    err = np.nanmean((forecasts - actual) ** 2, axis=0)
    return float(np.mean(err / actual.var(axis=0)))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one serving workload; returns a result dict for the reporter."""
    spec = SPECS[workload]
    feed = build_feed(seed, spec)
    episodes: list[Episode] = []
    trips: list[dict] = []
    attempted = failed = 0
    nmses = []
    # The run lasts *seconds*, set-ups and checks included, so a slower
    # host costs episodes rather than run time. A traced run alternates
    # untraced / traced episodes and ends on an untraced one: U T U [T U ...].
    min_episodes = 3 if trace else TAIL_EPISODES
    start = perf_counter()
    while (
        len(episodes) < min_episodes
        or perf_counter() - start < seconds
        or (trace and len(episodes) % 2 == 0)
    ):
        traced = trace and len(episodes) % 2 == 1
        episode, fleet = run_episode(spec, feed, traced=traced)
        episodes.append(episode)
        nmses.append(nmse(feed, spec, episode.forecasts))
        # Every tick is one closed-loop operation; a tick that failed to
        # serve a trained stream's forecast counts as failed.
        attempted += EPISODE_TICKS
        failed += int(np.isnan(episode.forecasts).any(axis=1).sum())
        if workload == "storm_async":
            attempted += 1
            failed += episode.inflight_left != 0
        if spec.checkpoint and len(trips) < CHECKPOINT_TRIPS:
            trip = checkpoint_trip(fleet, workdir / f"checkpoint-{len(episodes)}")
            trips.append(trip)
            attempted += 1
            failed += not trip["ok"]
        if len(episodes) == 1 and spec.reference_check:
            compared, mismatched = reference_check(spec, feed, episode.forecasts)
            attempted += compared
            failed += mismatched
        # Fleets hold reference cycles; collect each one so the next
        # episode's peak memory does not include it.
        del fleet
        gc.collect()

    fingerprints = _fingerprints(episodes)
    if spec.config.retrain_mode == "sync" and len(set(map(_key, fingerprints))) > 1:
        failed += 1
    untraced = [e for e in episodes if not e.traced]
    traced = [e for e in episodes if e.traced]
    by_wall = sorted(untraced, key=lambda e: e.wall_s)
    tail = np.concatenate([e.tick_s for e in by_wall[:TAIL_EPISODES]])
    stream_ticks = N_STREAMS * EPISODE_TICKS
    recovery = [r for e in episodes for r in e.recovery]
    end_to_end = {
        "setup_s": Metric(median(e.setup_s for e in episodes), len(episodes)),
        "stream_ticks_per_s": Metric(
            stream_ticks / best_wall(untraced), stream_ticks * len(untraced)
        ),
        "tick_p50_ms": Metric(
            percentile(best_ticks(untraced), 50) * 1e3, EPISODE_TICKS
        ),
        "tick_p95_ms": Metric(
            percentile(np.median([e.tick_s for e in untraced], axis=0), 95) * 1e3,
            EPISODE_TICKS,
        ),
        "forecast_nmse": Metric(median(nmses), len(nmses)),
    }
    layers = {
        "tick_p99_ms": Metric(percentile(tail, 99) * 1e3, len(tail)),
        "drift_recovery_ticks": Metric(
            float(np.mean(recovery)) if recovery else 0.0, len(recovery)
        ),
        "save_s": Metric(median(t["save_s"] for t in trips), len(trips)),
        "load_s": Metric(median(t["load_s"] for t in trips), len(trips)),
    }
    if trips:
        layers["persistence.bytes"] = Metric(trips[-1]["bytes"], len(trips))
        layers["persistence.files"] = Metric(trips[-1]["files"], len(trips))
    if traced:
        for key in traced[0].layers:
            layers[key] = Metric(
                float(np.mean([e.layers[key] for e in traced])), len(traced)
            )
        layers["obs.trace_overhead_frac"] = Metric(
            best_wall(traced) / best_wall(untraced) - 1.0,
            len(traced) + len(untraced),
        )
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "fingerprints": fingerprints,
        "extra": {
            "episode_wall_s": [round(e.wall_s, 4) for e in episodes],
            "episode_p50_ms": [round(percentile(e.tick_s, 50) * 1e3, 3) for e in episodes],
            "episode_p99_ms": [round(percentile(e.tick_s, 99) * 1e3, 3) for e in episodes],
            "episode_setup_s": [round(e.setup_s, 4) for e in episodes],
            "unrecovered_shifts": sum(e.unrecovered for e in episodes),
        },
        "params": _params(workload, spec),
    }


def _fingerprints(episodes) -> list:
    # Label-cache counts exist only on traced episodes; compare the keys
    # every episode has.
    common = set.intersection(*(set(e.fingerprint) for e in episodes))
    return [{k: e.fingerprint[k] for k in sorted(common)} for e in episodes]


def _key(fingerprint: dict) -> tuple:
    return tuple(sorted(fingerprint.items()))


def _params(workload: str, spec: Spec) -> dict:
    cfg = spec.config
    return {
        "workload": workload,
        "streams": N_STREAMS,
        "warmup_ticks": spec.warm,
        "episode_ticks": EPISODE_TICKS,
        "drift": (
            f"+{SHIFT_LEVEL} level shift toggled on alternating halves "
            f"every {SHIFT_EVERY} ticks"
            if spec.drift
            else "none"
        ),
        "fleet_config": {
            "min_train": cfg.min_train,
            "max_memory": cfg.max_memory,
            "history_limit": cfg.history_limit,
            "retrain_window": cfg.retrain_window,
            "retrain_mode": cfg.retrain_mode,
            "auto_retrain": cfg.auto_retrain,
            "lar_window": cfg.lar.window,
        },
    }
