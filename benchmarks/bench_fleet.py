"""Fleet serving throughput bench: streams/sec across fleet sizes.

Not a paper artifact — measures the :mod:`repro.serving` layer: a
:class:`~repro.serving.fleet.PredictionFleet` serving many concurrent
streams through the batched ``forecast_all`` + ``ingest`` tick loop.
Each size is warmed up (all streams trained), then two serve phases are
timed and reported as stream-ticks/sec:

* **write-heavy** — one forecast + one audited observation + one online
  learning step per stream per tick (the classic monitoring loop);
* **read-heavy** — ``READ_FANOUT`` full-fleet forecasts per ingest (a
  scheduler polling predictions far more often than metrics arrive).

``test_batched_forecast_faster_than_loop`` is the CI smoke gate for the
batched tick engine: at 500 streams, one batched ``forecast_all`` must
beat the per-stream loop (the two are bit-identical, so slower would
mean the engine has silently degenerated into the loop it replaces).

Set ``FLEET_BENCH_MAX_STREAMS`` to cap the largest fleet size (e.g.
``500`` in CI smoke runs; the default includes the 2000-stream size).
"""

import json
import os
from pathlib import Path
from time import perf_counter

from conftest import emit, machine_info

from repro.core.config import LARConfig
from repro.experiments.report import format_table
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series

#: Warm-up ticks (== min_train, so every stream trains exactly once).
WARMUP = 40
#: Timed serving ticks per fleet size.
SERVE_TICKS = 40
#: Full-fleet forecasts per ingest in the read-heavy phase.
READ_FANOUT = 5
#: Concurrent stream counts to report (capped by FLEET_BENCH_MAX_STREAMS).
FLEET_SIZES = (50, 500, 2000)

#: Deep-memory steady-state workload: every stream's k-NN memory filled
#: to ``max_memory``, so each tick pays the full distance kernel AND a
#: learn + evict per stream — the worst steady-state tick there is.
DEEP_STREAMS = 500
DEEP_MAX_MEMORY = 128
DEEP_TICKS = 25
DEEP_ROUNDS = 3

_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


def _sizes() -> tuple[int, ...]:
    cap = int(os.environ.get("FLEET_BENCH_MAX_STREAMS", FLEET_SIZES[-1]))
    sizes = tuple(n for n in FLEET_SIZES if n <= cap)
    return sizes or (cap,)


def _build_feeds(n: int) -> dict:
    return {
        f"s{i:04d}": 10.0 + 3.0 * ar1_series(
            WARMUP + SERVE_TICKS, phi=0.85, seed=i
        )
        for i in range(n)
    }


def _warm_fleet(feeds: dict, *, telemetry=None) -> PredictionFleet:
    config = FleetConfig(
        lar=LARConfig(window=5),
        min_train=WARMUP,
        qa_threshold=4.0,
    )
    fleet = PredictionFleet(config, streams=feeds, telemetry=telemetry)
    for t in range(WARMUP):
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    assert fleet.metrics().n_trained == len(feeds)
    return fleet


def _serve(fleet: PredictionFleet, feeds: dict, *, forecasts: int = 1) -> float:
    start = perf_counter()
    for t in range(WARMUP, WARMUP + SERVE_TICKS):
        for _ in range(forecasts):
            fleet.forecast_all()
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    return perf_counter() - start


def _serve_interleaved(fleets: dict, feeds: dict) -> dict:
    """Serve every fleet through the same tick sequence, alternating
    modes *inside each tick*.

    Shared CI boxes drift by more than the effects these gates measure
    (throttling, noisy neighbours — serve times have been observed to
    triple within one run), so timing whole serve loops back to back
    systematically penalises whichever mode runs later. Interleaving at
    tick granularity lands the drift on every mode almost evenly: each
    mode's ticks are at most one tick away in time from every other
    mode's. Payload dicts are built outside the timed region, and the
    within-tick order flips every tick so cache-warming from the
    previous mode's serve is shared around too. Returns per-mode
    seconds.
    """
    elapsed = dict.fromkeys(fleets, 0.0)
    order = list(fleets)
    for t in range(WARMUP, WARMUP + SERVE_TICKS):
        payloads = {
            mode: {
                name: feeds[name][t]
                for name in fleets[mode].stream_names
            }
            for mode in order
        }
        for mode in order:
            fleet = fleets[mode]
            start = perf_counter()
            fleet.forecast_all()
            fleet.ingest(payloads[mode])
            elapsed[mode] += perf_counter() - start
        order.reverse()
    return elapsed


def test_fleet_throughput(benchmark, capsys):
    def run():
        results = []
        for n in _sizes():
            feeds = _build_feeds(n)
            fleet = _warm_fleet(feeds)
            write_heavy = _serve(fleet, feeds)
            results.append((n, "write-heavy", 1, write_heavy))
            fleet = _warm_fleet(feeds)
            read_heavy = _serve(fleet, feeds, forecasts=READ_FANOUT)
            results.append((n, "read-heavy", READ_FANOUT, read_heavy))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, workload, f"{fanout}:1", elapsed,
         n * SERVE_TICKS * (fanout + 1) / elapsed]
        for n, workload, fanout, elapsed in results
    ]
    emit(
        capsys,
        format_table(
            ["streams", "workload", "fc:ingest", "serve seconds",
             "stream-ticks/sec"],
            rows,
            precision=2,
            title="Fleet serving throughput (batched tick engine)",
        ),
    )
    # The serving layer must actually serve every configured size.
    assert [n for n, w, *_ in results if w == "write-heavy"] == list(_sizes())


def test_batched_forecast_faster_than_loop(capsys):
    """CI gate: the batched read path must beat the per-stream loop.

    Both paths produce bit-identical forecasts (pinned by
    ``tests/test_serving_engine.py``); this guards the *point* of the
    batched engine — that one fleet-wide forecast is cheaper than N
    per-stream call chains.
    """
    n = 500
    feeds = _build_feeds(n)
    fleet = _warm_fleet(feeds)
    # Warm both paths once: engine attach + memory mirror on one side,
    # allocator effects on the other.
    assert fleet.forecast_all(batched=True) == fleet.forecast_all(batched=False)

    def timed(batched: bool, reps: int = 5) -> float:
        start = perf_counter()
        for _ in range(reps):
            fleet.forecast_all(batched=batched)
        return (perf_counter() - start) / reps

    t_loop = timed(False)
    t_batched = timed(True)
    emit(
        capsys,
        format_table(
            ["path", "forecast_all seconds", "speedup"],
            [
                ["per-stream loop", t_loop, 1.0],
                ["batched engine", t_batched, t_loop / t_batched],
            ],
            precision=4,
            title=f"forecast_all at {n} streams",
        ),
    )
    assert t_batched < t_loop, (
        f"batched forecast_all ({t_batched:.4f}s) is not faster than the "
        f"per-stream loop ({t_loop:.4f}s) at {n} streams"
    )


def _deep_feed_length() -> int:
    # Warm-up + enough post-training ticks to fill every memory to
    # DEEP_MAX_MEMORY + the interleaved timed rounds for both modes.
    return WARMUP + DEEP_MAX_MEMORY + 2 * (DEEP_ROUNDS + 1) * DEEP_TICKS


def _warm_deep_fleet(feeds: dict) -> "tuple[PredictionFleet, int]":
    """A fleet at deep-memory steady state: every memory at max_memory."""
    config = FleetConfig(
        lar=LARConfig(window=5),
        min_train=WARMUP,
        qa_threshold=50.0,  # no retrains: the bench times pure ticks
        max_memory=DEEP_MAX_MEMORY,
    )
    fleet = PredictionFleet(config, streams=feeds)
    names = fleet.stream_names

    def full() -> bool:
        return all(
            s.predictor is not None
            and s.predictor._classifier.n_samples_ >= DEEP_MAX_MEMORY
            for s in fleet._streams.values()
        )

    t = 0
    while not full():
        fleet.ingest({name: feeds[name][t] for name in names})
        t += 1
        assert t < WARMUP + 2 * DEEP_MAX_MEMORY, "memories failed to fill"
    return fleet, t


def test_gather_free_deep_memory_gate(capsys):
    """CI gate: batched deep-memory ticks >= 1.3x over the per-stream loop.

    Two identical deep-memory fleets (memories at ``max_memory``, so
    every tick pays the full distance kernel plus one learn + evict per
    stream) serve the same ticks, one through the batched engine's
    gather-free slice path and one through the per-stream reference
    loop (``batched=False``). The two are bit-identical (pinned in
    ``tests/test_serving_engine.py``), so this measures only the
    engine's constant factor on the whole write-heavy tick. Modes are
    timed interleaved so clock drift lands on both sides evenly.
    Results are recorded in ``BENCH_fleet.json``.
    """
    n = min(DEEP_STREAMS, int(os.environ.get("FLEET_BENCH_MAX_STREAMS", DEEP_STREAMS)))
    length = _deep_feed_length()
    feeds = {
        f"s{i:04d}": 10.0 + 3.0 * ar1_series(length, phi=0.85, seed=i)
        for i in range(n)
    }
    batched, t_batched = _warm_deep_fleet(feeds)
    loop, t_loop = _warm_deep_fleet(feeds)
    assert t_batched == t_loop
    clocks = {"batched": t_batched, "loop": t_loop}
    fleets = {"batched": batched, "loop": loop}

    def serve_ticks(mode: str) -> float:
        fleet, start = fleets[mode], clocks[mode]
        names = fleet.stream_names
        use_engine = mode == "batched"
        elapsed = perf_counter()
        for t in range(start, start + DEEP_TICKS):
            fleet.forecast_all(batched=use_engine)
            fleet.ingest(
                {name: feeds[name][t] for name in names}, batched=use_engine
            )
        clocks[mode] = start + DEEP_TICKS
        return perf_counter() - elapsed

    # One untimed round per mode settles allocators and scratch caches.
    for mode in fleets:
        serve_ticks(mode)
    totals = dict.fromkeys(fleets, 0.0)
    for _ in range(DEEP_ROUNDS):
        for mode in fleets:
            totals[mode] += serve_ticks(mode)

    ticks = DEEP_ROUNDS * DEEP_TICKS
    throughput = {mode: n * ticks / totals[mode] for mode in fleets}
    speedup = totals["loop"] / totals["batched"]
    emit(
        capsys,
        format_table(
            ["path", "serve seconds", "stream-ticks/sec", "speedup"],
            [
                ["per-stream loop", totals["loop"], throughput["loop"], 1.0],
                ["batched engine", totals["batched"], throughput["batched"],
                 speedup],
            ],
            precision=2,
            title=(
                f"Deep-memory steady state at {n} streams x "
                f"{DEEP_MAX_MEMORY} memories"
            ),
        ),
    )
    _JSON_PATH.write_text(
        json.dumps(
            {
                "workload": "deep-memory steady state (write-heavy ticks)",
                "machine": machine_info(),
                "streams": n,
                "max_memory": DEEP_MAX_MEMORY,
                "ticks": ticks,
                "results": [
                    {
                        "mode": mode,
                        "serve_seconds": totals[mode],
                        "stream_ticks_per_sec": throughput[mode],
                    }
                    for mode in ("loop", "batched")
                ],
                "speedup": speedup,
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= 1.3, (
        f"batched engine is only {speedup:.2f}x over the per-stream loop "
        f"at {n} streams x {DEEP_MAX_MEMORY} memories (gate: 1.3x)"
    )


def test_flight_recorder_overhead_gate(capsys):
    """CI gate: the flight recorder must cost <= 3% on the serve loop.

    The recorder's pitch is "cheap enough to leave on in production":
    every completed span costs one ring append on top of the aggregates
    live telemetry already pays (tail quantiles are computed from the
    ring only when asked for). This
    gate holds a flight-enabled fleet against the telemetry-off
    baseline at 500 streams — the full price of always-on observability,
    not just the recorder increment.

    Timing is tick-interleaved (see :func:`_serve_interleaved`): box
    drift lands on both modes evenly, each round yields one flight/off
    ratio, and the gate holds the median ratio — single noise spikes
    are discarded while a real systematic slowdown shifts every ratio.
    """
    from statistics import median

    from repro.obs import Telemetry

    n = 500
    rounds = 8
    feeds = _build_feeds(n)
    fleets = {
        "off": _warm_fleet(feeds),
        "flight": _warm_fleet(feeds, telemetry=Telemetry(flight=True)),
    }
    # One untimed serve per mode to settle allocators and engine caches.
    for fleet in fleets.values():
        _serve(fleet, feeds)

    ratios = []
    times = {mode: [] for mode in fleets}
    for _ in range(rounds):
        elapsed = _serve_interleaved(fleets, feeds)
        for mode, t in elapsed.items():
            times[mode].append(t)
        ratios.append(elapsed["flight"] / elapsed["off"])

    overhead = median(ratios) - 1.0
    flight = fleets["flight"].telemetry.flight
    emit(
        capsys,
        format_table(
            ["mode", "best round seconds", "mean seconds"],
            [
                [mode, min(ts), sum(ts) / rounds]
                for mode, ts in times.items()
            ],
            precision=4,
            title=(
                f"Flight recorder overhead at {n} streams x {rounds} "
                f"rounds: median {overhead:+.2%} "
                f"(per-round {min(ratios) - 1.0:+.2%} .. "
                f"{max(ratios) - 1.0:+.2%})"
            ),
        ),
    )
    # The recorder actually recorded: the gate must not pass vacuously.
    assert flight is not None and flight.total_recorded > 0
    assert overhead <= 0.03, (
        f"flight-enabled telemetry costs {overhead:+.2%} (median of "
        f"{rounds} alternating rounds) over the telemetry-off serve "
        f"loop at {n} streams (budget: +3%)"
    )


# -- async retrain tick latency ----------------------------------------------

#: Drift-storm latency gate: streams, ticks per storm round, timed rounds.
STORM_STREAMS = 500
STORM_TICKS = 30
STORM_ROUNDS = 4
#: Retrain window of the storm fleet. Long deliberately: the gate
#: measures tick latency, and the asynchronous pipeline moves only the
#: *compute* half of a burst off the tick (assembly + replay still run
#: at integration, spread over the ticks the storm's chunked futures
#: land on).
#: Long windows make the stacked compute dominate the burst, so a
#: healthy pipeline clears 0.5x with margin; at the serving default of
#: 256 the compute and assembly halves are near parity and the gate
#: would measure noise.
STORM_HISTORY = 4096


def _storm_feeds(n: int, rounds: int) -> dict:
    """Feeds whose drifting half toggles a +25 level shift every storm
    segment — the data really drifts when the storm is ordered."""
    length = WARMUP + STORM_HISTORY + (rounds + 1) * STORM_TICKS
    feeds = {}
    for i in range(n):
        series = 10.0 + 3.0 * ar1_series(length, phi=0.85, seed=i)
        if i % 2 == 0:
            series = series.copy()
            for r in range(1, rounds + 2, 2):
                lo = WARMUP + STORM_HISTORY + (r - 1) * STORM_TICKS
                series[lo : lo + STORM_TICKS] += 25.0
        feeds[f"s{i:04d}"] = series
    return feeds


def _storm_fleet(feeds: dict, mode: str) -> PredictionFleet:
    config = FleetConfig(
        lar=LARConfig(window=5),
        min_train=WARMUP,
        # No organic retrains: each round's storm is *ordered* (see
        # _order_storm) so both modes pay identical, deterministic
        # bursts; the online model adapts to level shifts within a few
        # ticks, so QA re-breach timing would be noise, not signal.
        qa_threshold=50.0,
        retrain_window=STORM_HISTORY,
        history_limit=STORM_HISTORY,
        retrain_mode=mode,
    )
    fleet = PredictionFleet(config, streams=feeds)
    # Warm-up, then grow every history to the full retrain window so
    # each storm burst trains on STORM_HISTORY-value snapshots.
    for t in range(WARMUP + STORM_HISTORY):
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    fleet.run_pending_retrains()
    fleet.drain_retrains(wait=True)
    assert fleet.metrics().n_trained == len(feeds)
    return fleet


def _order_storm(fleet: PredictionFleet, names) -> None:
    """Order a retrain for *names*, exactly as a QA breach storm would
    (same scheduler entry point, so the async in-flight guard and due
    bookkeeping all apply)."""
    for name in names:
        fleet._retrain.schedule(fleet._streams[name], initial=False)


def test_async_retrain_tick_latency_gate(capsys):
    """CI gate: during a drift storm, async-mode p99 tick latency must
    be at most half of sync mode's.

    This is the asynchronous pipeline's whole point: in sync mode the
    tick that triggers the storm pays the entire stacked training burst
    before ``ingest`` returns, while in async mode the burst runs on
    the worker pool and the tick pays only submission and (later)
    integration + replay. Both end states are bit-identical (pinned by
    ``tests/test_serving_async.py``); this guards the latency.

    Ticks are timed interleaved (sync/async alternating within each
    tick, order flipped every tick — see :func:`_serve_interleaved` for
    why) and the gate holds the median of per-round p99 ratios, so one
    noisy round cannot fail it while a real regression shifts them all.
    Skipped on single-core machines, where there is no pool to overlap
    with.
    """
    import numpy as np
    import pytest
    from statistics import median

    if (os.cpu_count() or 1) < 2:
        pytest.skip("async overlap needs >= 2 cores")
    n = min(
        STORM_STREAMS,
        int(os.environ.get("FLEET_BENCH_MAX_STREAMS", STORM_STREAMS)),
    )
    feeds = _storm_feeds(n, STORM_ROUNDS)
    fleets = {
        "sync": _storm_fleet(feeds, "sync"),
        "async": _storm_fleet(feeds, "async"),
    }
    names = fleets["sync"].stream_names
    storm_names = [name for i, name in enumerate(names) if i % 2 == 0]
    baseline = {
        mode: fleet.metrics().total_retrains
        for mode, fleet in fleets.items()
    }
    clock = WARMUP + STORM_HISTORY

    def storm_round(timed: bool):
        nonlocal clock
        # Kick off the storm: every drifting stream is ordered to
        # retrain, exactly as a QA breach sweep would order it.  The
        # first sync tick pays the full stacked burst; async ticks pay
        # submission now and integration + replay when futures land.
        for fleet in fleets.values():
            _order_storm(fleet, storm_names)
        latencies = {mode: [] for mode in fleets}
        order = list(fleets)
        for t in range(clock, clock + STORM_TICKS):
            payloads = {name: feeds[name][t] for name in names}
            for mode in order:
                fleet = fleets[mode]
                start = perf_counter()
                fleet.forecast_all()
                fleet.ingest(dict(payloads))
                latencies[mode].append(perf_counter() - start)
            order.reverse()
        clock += STORM_TICKS
        if not timed:
            return None
        return {
            mode: float(np.percentile(lat, 99))
            for mode, lat in latencies.items()
        }

    # One untimed storm settles allocators, engine scratch tensors, and
    # the worker pool (fork + imports) before anything is measured.
    storm_round(timed=False)
    p99s = {mode: [] for mode in fleets}
    ratios = []
    for _ in range(STORM_ROUNDS):
        p99 = storm_round(timed=True)
        for mode, value in p99.items():
            p99s[mode].append(value)
        ratios.append(p99["async"] / p99["sync"])
    for fleet in fleets.values():
        fleet.drain_retrains(wait=True)

    # Not vacuous: every round's ordered storm must really have
    # retrained (async may skip re-orders for still-in-flight streams,
    # so it is only required to land one full sweep).
    for mode, fleet in fleets.items():
        stormed = fleet.metrics().total_retrains - baseline[mode]
        assert stormed >= len(storm_names), (
            f"{mode}: storm fizzled ({stormed} retrains)"
        )
    ratio = median(ratios)
    emit(
        capsys,
        format_table(
            ["mode", "median p99 tick seconds", "worst p99 tick seconds"],
            [
                [mode, median(values), max(values)]
                for mode, values in p99s.items()
            ],
            precision=4,
            title=(
                f"Drift-storm tick latency at {n} streams x "
                f"{STORM_ROUNDS} rounds: async/sync p99 ratio "
                f"{ratio:.2f} (per-round {min(ratios):.2f} .. "
                f"{max(ratios):.2f})"
            ),
        ),
    )
    assert ratio <= 0.5, (
        f"async-mode p99 tick latency is {ratio:.2f}x sync mode during a "
        f"{n}-stream drift storm (median of {STORM_ROUNDS} tick-interleaved "
        f"rounds); the gate requires <= 0.5x"
    )
