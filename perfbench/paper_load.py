"""The paper workload: repeated Table 2 / Table 3 / Fig 6 reproductions.

Each closed-loop step ("tick") is one uncached
``run_full_evaluation(traces, n_folds=10)`` sweep on the default worker
pool followed by the ``table2``, ``table3`` and ``figure6`` projections.

The trace set is the paper's own (``DEFAULT_SEED``); the workload seed
drives the ten-fold cross-validation timestamps. Generating the traces
from the workload seed instead makes the mean LAR MSE swing by a factor
of eight between seeds (one trace's MSE reaches 100 on some seeds), which
no regression bound could absorb.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.experiments import (
    circular_split,
    evaluate_trace,
    figure6,
    run_full_evaluation,
    table2,
    table3,
)
from repro.parallel import ParallelConfig, shutdown_persistent_pool
from repro.traces.generate import DEFAULT_SEED, generate_paper_traces

from common import Metric, median, percentile

N_FOLDS = 10
#: Set-up (trace generation + the first sweep, which spawns the pool) is
#: repeated this many times per run and reported as a median.
SETUP_REPEATS = 3
MIN_SWEEPS = 5


def _same(a, b) -> bool:
    """Bit-equality of two trace results (NaN cells of constant traces
    compare by their empty metric dicts)."""
    return (
        a.valid == b.valid
        and a.mean_mse == b.mean_mse
        and a.mean_accuracy == b.mean_accuracy
    )


def run(seed: int, seconds: float) -> dict:
    """Run the paper workload; returns a result dict for the reporter.

    The run lasts *seconds*, set-ups and the serial reference included.
    """
    run_start = perf_counter()
    setups, generate = [], []
    for _ in range(SETUP_REPEATS):
        # A fresh pool each time, so every set-up pays the spawn, and
        # generate_paper_traces (the uncached body of load_paper_traces)
        # so every set-up pays generation in full.
        shutdown_persistent_pool()
        start = perf_counter()
        traces = generate_paper_traces(DEFAULT_SEED)
        generated = perf_counter()
        run_full_evaluation(traces, n_folds=N_FOLDS, seed=seed)
        setups.append(perf_counter() - start)
        generate.append(generated - start)

    # The serial reference: the same per-trace calls a
    # ParallelConfig(max_workers=1) sweep makes, timed one by one.
    serial, serial_s = {}, []
    for tr in traces:
        start = perf_counter()
        serial[tr.trace_id] = evaluate_trace(tr, n_folds=N_FOLDS, seed=seed)
        serial_s.append(perf_counter() - start)

    sweep_s, project_s, tick_s = [], [], []
    attempted = failed = 0
    first = None
    while len(tick_s) < MIN_SWEEPS or perf_counter() - run_start < seconds:
        start = perf_counter()
        evaluation = run_full_evaluation(traces, n_folds=N_FOLDS, seed=seed)
        swept = perf_counter()
        table2(evaluation=evaluation)
        table3(evaluation=evaluation)
        figure6(evaluation=evaluation)
        done = perf_counter()
        sweep_s.append(swept - start)
        project_s.append(done - swept)
        tick_s.append(done - start)
        if first is None:
            first = evaluation
        for trace_id, result in evaluation.results.items():
            attempted += 1
            failed += not _same(result, serial[trace_id])
    shutdown_persistent_pool()

    valid = first.valid_results()
    nmse = float(np.mean([r.mse("LAR") for r in valid]))
    # One "stream-tick" here is one test value forecast in one fold.
    per_sweep = N_FOLDS * sum(
        circular_split(tr.values, 0)[1].shape[0]
        for tr in traces
        if first[tr.trace_id].valid
    )
    workers = ParallelConfig().resolved_workers(len(traces))
    eval_s = median(sweep_s)
    end_to_end = {
        "setup_s": Metric(median(setups), len(setups)),
        "stream_ticks_per_s": Metric(
            per_sweep * len(tick_s) / sum(tick_s), per_sweep * len(tick_s)
        ),
        "tick_p50_ms": Metric(percentile(tick_s, 50) * 1e3, len(tick_s)),
        "tick_p95_ms": Metric(percentile(tick_s, 95) * 1e3, len(tick_s)),
        "forecast_nmse": Metric(nmse, len(valid)),
    }
    layers = {
        "tick_p99_ms": Metric(percentile(tick_s, 99) * 1e3, len(tick_s)),
        "eval_s": Metric(eval_s, len(sweep_s)),
        "traces.generate_s": Metric(median(generate), len(generate)),
        "experiments.evaluate_trace_s": Metric(sum(serial_s), len(serial_s)),
        "experiments.evaluate_trace_max_ms": Metric(
            max(serial_s) * 1e3, len(serial_s)
        ),
        "experiments.project_s": Metric(median(project_s), len(project_s)),
        "parallel.pool_efficiency": Metric(
            sum(serial_s) / (eval_s * workers), len(sweep_s)
        ),
    }
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "fingerprints": [
            {
                "traces": len(traces),
                "valid_traces": len(valid),
                "sweeps": len(tick_s),
                "forecast_steps_per_sweep": per_sweep,
            }
        ],
        "extra": {"pool_workers": workers},
        "params": {
            "workload": "paper_eval",
            "trace_seed": DEFAULT_SEED,
            "n_folds": N_FOLDS,
            "traces": len(traces),
            "setup_repeats": SETUP_REPEATS,
        },
    }
