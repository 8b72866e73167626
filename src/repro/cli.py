"""Command-line interface: regenerate paper artifacts and analyze traces.

    python -m repro headline                # §1/§7 headline statistics
    python -m repro table2 [--vm VM1]       # Table 2
    python -m repro table3                  # Table 3
    python -m repro fig4 | fig5             # selection-over-time figures
    python -m repro fig6 [--vm VM4]         # Figure 6
    python -m repro ablation <knob>         # window|k|pca|classifier|pool
    python -m repro report DIR              # export all artifacts (txt/csv/json)
    python -m repro generate-traces DIR     # write the trace set as CSVs
    python -m repro assess FILE.csv         # §8 applicability (exit 0/3)
    python -m repro frontier FILE.csv       # §8 cost/performance frontier
    python -m repro fleet [--streams N]     # multi-stream serving simulation
    python -m repro obs [--format FMT]      # telemetry demo (drift storm)

All artifact commands accept ``--seed`` and ``--folds``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for doc generation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "LARPredictor reproduction (Zhang & Figueiredo, IPPS 2007): "
            "regenerate the paper's tables and figures, or analyze traces."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def artifact(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None,
                       help="trace-set seed (default: paper seed)")
        p.add_argument("--folds", type=int, default=10,
                       help="cross-validation folds (default 10)")
        return p

    artifact("headline", "the paper's headline statistics")
    artifact("table2", "Table 2: normalized MSE per resource").add_argument(
        "--vm", default="VM1", help="which VM's table (default VM1)"
    )
    artifact("table3", "Table 3: best single predictor grid")
    artifact("fig4", "Figure 4: selection over time, VM2 CPU")
    artifact("fig5", "Figure 5: selection over time, VM2 packets-in")
    artifact("fig6", "Figure 6: LAR vs cumulative-MSE selectors").add_argument(
        "--vm", default="VM4", help="which VM's comparison (default VM4)"
    )

    ablation = artifact("ablation", "one design-choice sweep")
    ablation.add_argument(
        "knob", choices=["window", "k", "pca", "classifier", "pool"],
        help="which knob to sweep",
    )

    report = artifact("report", "export every artifact to a directory")
    report.add_argument("directory", help="output directory")

    gen = sub.add_parser(
        "generate-traces", help="simulate the testbed and save CSV traces"
    )
    gen.add_argument("directory", help="output directory")
    gen.add_argument("--seed", type=int, default=None)

    assess = sub.add_parser(
        "assess", help="applicability assessment of a CSV trace (paper §8)",
        description=(
            "Applicability assessment of a CSV trace (paper §8). Exit "
            "status: 0 when LAR is recommended, 3 when it is not; 1 is "
            "a crash and 2 a usage error."
        ),
    )
    assess.add_argument("trace", help="CSV written by repro's trace I/O")
    assess.add_argument("--window", type=int, default=5)

    frontier = sub.add_parser(
        "frontier", help="cost/performance frontier of a CSV trace (paper §8)"
    )
    frontier.add_argument("trace", help="CSV written by repro's trace I/O")

    fleet = sub.add_parser(
        "fleet",
        help="simulate a multi-stream prediction fleet (serving layer demo)",
    )
    fleet.add_argument("--streams", type=int, default=20,
                       help="concurrent streams to serve (default 20)")
    fleet.add_argument("--ticks", type=int, default=240,
                       help="measurement ticks to simulate (default 240)")
    fleet.add_argument("--seed", type=int, default=None,
                       help="stream-generator seed (default: paper seed)")
    fleet.add_argument("--retrain-mode", choices=["sync", "async"],
                       default="sync",
                       help="run retrain bursts inline with the tick "
                            "(sync, the default) or overlapped on the "
                            "worker pool with replay at integration "
                            "(async)")
    fleet.add_argument("--max-rows", type=int, default=10,
                       help="per-stream rows to print (default 10)")
    fleet.add_argument("--telemetry", action="store_true",
                       help="enable telemetry and print the phase-span "
                            "table and recent events after the run")
    fleet.add_argument("--stats-out", metavar="PATH", default=None,
                       help="write a JSON telemetry snapshot (metrics, "
                            "spans, events, fleet metrics) to PATH; "
                            "implies --telemetry")
    fleet.add_argument("--prom-out", metavar="PATH", default=None,
                       help="write Prometheus text exposition to PATH; "
                            "implies --telemetry")
    fleet.add_argument("--prom-port", type=int, metavar="PORT", default=None,
                       help="serve live Prometheus exposition on "
                            "127.0.0.1:PORT for the duration of the run "
                            "(0 = ephemeral); implies --telemetry")
    fleet.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="arm the flight recorder and write anomaly "
                            "dumps (span ring, events, metrics, Chrome "
                            "trace) under DIR; implies --telemetry")

    obs = sub.add_parser(
        "obs",
        help="observability demo: drift-storm fleet run with full telemetry",
    )
    obs.add_argument("--streams", type=int, default=12,
                     help="concurrent streams to serve (default 12)")
    obs.add_argument("--ticks", type=int, default=200,
                     help="measurement ticks to simulate (default 200)")
    obs.add_argument("--seed", type=int, default=None,
                     help="stream-generator seed (default: paper seed)")
    obs.add_argument("--retrain-mode", choices=["sync", "async"],
                     default="sync",
                     help="retrain inline (sync) or overlapped on the "
                          "worker pool (async)")
    obs.add_argument("--format", choices=["summary", "prom", "json"],
                     default="summary",
                     help="output format (default summary); with prom "
                          "or json, stdout carries only the document "
                          "and the --quantiles table and --trace-out "
                          "note go to stderr")
    obs.add_argument("--events", type=int, default=12,
                     help="recent events to print in summary (default 12)")
    obs.add_argument("--quantiles", action="store_true",
                     help="record every span occurrence in flight and "
                          "print exact p50/p95/p99 phase latencies over "
                          "the flight ring after the summary")
    obs.add_argument("--trace-out", metavar="PATH", default=None,
                     help="record every span occurrence in flight and "
                          "write a Chrome trace-event JSON (Perfetto/"
                          "chrome://tracing loadable) to PATH")
    return parser


def _seed(args) -> int:
    from repro.traces.generate import DEFAULT_SEED

    return DEFAULT_SEED if args.seed is None else args.seed


def _evaluation(args):
    from repro.experiments.common import run_full_evaluation

    return run_full_evaluation(n_folds=args.folds, seed=_seed(args))


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        # Flush here, so a reader that closed early fails inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro obs | head``). Point stdout at
        # /dev/null so the flush at interpreter exit cannot raise again,
        # and fail as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(args) -> int:
    """Run the parsed command; returns a process exit code."""
    if args.command == "headline":
        from repro.experiments.headline import headline_stats, render_headline

        print(render_headline(headline_stats(evaluation=_evaluation(args))))
    elif args.command == "table2":
        from repro.experiments.table2 import render_table2, table2

        rows = table2(vm_id=args.vm, evaluation=_evaluation(args))
        print(render_table2(rows, vm_id=args.vm))
    elif args.command == "table3":
        from repro.experiments.table3 import render_table3, table3

        print(render_table3(table3(evaluation=_evaluation(args))))
    elif args.command in ("fig4", "fig5"):
        from repro.experiments.selection_series import figure4, figure5

        fig = figure4(_seed(args)) if args.command == "fig4" else figure5(_seed(args))
        print(fig.render())
    elif args.command == "fig6":
        from repro.experiments.fig6 import figure6, render_figure6

        rows = figure6(vm_id=args.vm, evaluation=_evaluation(args))
        print(render_figure6(rows, vm_id=args.vm))
    elif args.command == "ablation":
        from repro.experiments import ablation as ab
        from repro.experiments.report import format_table

        sweeps = {
            "window": ab.sweep_window,
            "k": ab.sweep_k,
            "pca": ab.sweep_pca,
            "classifier": ab.sweep_classifier,
            "pool": ab.sweep_pool,
        }
        rows = sweeps[args.knob](seed=_seed(args), n_folds=min(args.folds, 3))
        print(
            format_table(
                ["setting", "mean LAR MSE", "forecast accuracy"],
                [[r.setting, r.mean_mse, r.mean_accuracy] for r in rows],
                title=f"Ablation: {args.knob}",
            )
        )
    elif args.command == "report":
        from repro.experiments.export import export_all_artifacts

        files = export_all_artifacts(
            args.directory, seed=_seed(args), n_folds=args.folds
        )
        print(f"wrote {len(files)} artifacts to {args.directory}:")
        for name in files:
            print(f"  {name}")
    elif args.command == "generate-traces":
        from repro.traces.generate import generate_paper_traces
        from repro.traces.io import save_trace_set

        trace_set = generate_paper_traces(_seed(args))
        save_trace_set(trace_set, args.directory)
        print(
            f"wrote {len(trace_set)} traces "
            f"({len(trace_set.valid())} valid) to {args.directory}"
        )
    elif args.command == "assess":
        from repro.analysis.applicability import assess_applicability
        from repro.core.config import LARConfig
        from repro.traces.io import load_trace

        trace = load_trace(args.trace)
        report = assess_applicability(
            trace.values, config=LARConfig(window=args.window)
        )
        print(f"{trace.trace_id}: {report.render()}")
        # 3, not 1: a Python traceback exits 1, so a verdict must not.
        return 0 if report.recommended else 3
    elif args.command == "fleet":
        return _run_fleet(args)
    elif args.command == "obs":
        return _run_obs(args)
    elif args.command == "frontier":
        from repro.analysis.cost import cost_performance_frontier
        from repro.experiments.report import format_table
        from repro.traces.io import load_trace

        trace = load_trace(args.trace)
        reports = cost_performance_frontier(trace.values)
        print(
            format_table(
                ["strategy", "MSE", "cost", "Pareto"],
                [
                    [r.strategy, r.mse, r.cost, "*" if r.pareto_efficient else ""]
                    for r in reports
                ],
                title=f"Cost/performance frontier: {trace.trace_id}",
            )
        )
    return 0


def _build_fleet_feeds(n: int, ticks: int, seed: int) -> dict:
    """Synthetic per-stream series for the serving demos.

    Three generator families round-robin across the fleet; every third
    stream drifts mid-run (a +25 level shift) so the QA-breach →
    retrain path always exercises on long enough runs.
    """
    from repro.traces.synthetic import (
        ar1_series,
        conflict_series,
        white_noise_series,
    )

    generators = (
        lambda m, s: 20.0 + 4.0 * ar1_series(m, phi=0.9, seed=s),
        lambda m, s: conflict_series(m, seed=s),
        lambda m, s: 30.0 + 5.0 * white_noise_series(m, seed=s),
    )
    feeds = {}
    for i in range(n):
        name = f"stream-{i:03d}"
        series = generators[i % len(generators)](ticks, seed + i)
        if i % 3 == 0 and ticks > 120:
            # A third of the fleet drifts mid-run: the QA-retrain path.
            series = series.copy()
            series[ticks // 2 :] += 25.0
        feeds[name] = series
    return feeds


def _fleet_demo_config(ticks: int, retrain_mode: str = "sync"):
    """The FleetConfig both serving demos run with."""
    from repro.core.config import LARConfig
    from repro.serving import FleetConfig

    lar = LARConfig(window=5)
    return FleetConfig(
        lar=lar,
        min_train=min(40, max(lar.window + max(lar.k, 2), ticks // 2)),
        qa_threshold=2.0,
        retrain_mode=retrain_mode,
    )


def _serve_fleet(fleet, feeds, ticks: int) -> float:
    """Run the forecast/ingest loop; return elapsed seconds.

    In async mode the final flush (waiting out and integrating bursts
    still in flight) is part of the serve, so it counts in the elapsed
    time the demos report.
    """
    from time import perf_counter

    start = perf_counter()
    for t in range(ticks):
        fleet.forecast_all()
        fleet.ingest({name: feeds[name][t] for name in fleet.stream_names})
    fleet.drain_retrains(wait=True)
    return perf_counter() - start


def _run_fleet(args) -> int:
    """Drive a synthetic multi-stream feed through a PredictionFleet."""
    import numpy as np

    from repro.serving import PredictionFleet

    if args.streams < 1 or args.ticks < 1:
        print("fleet: --streams and --ticks must be >= 1", file=sys.stderr)
        return 2
    if args.prom_port is not None and not (0 <= args.prom_port <= 65535):
        print("fleet: --prom-port must be in [0, 65535]", file=sys.stderr)
        return 2

    n, ticks = args.streams, args.ticks
    telemetry = bool(
        args.telemetry or args.stats_out or args.prom_out
        or args.prom_port is not None or args.flight_dir
    )
    feeds = _build_fleet_feeds(n, ticks, _seed(args))
    config = _fleet_demo_config(ticks, retrain_mode=args.retrain_mode)
    fleet = PredictionFleet(
        config,
        streams=feeds,
        telemetry=telemetry,
        flight_dir=args.flight_dir,
    )
    endpoint = None
    if args.prom_port is not None:
        from repro.obs import serve_prometheus

        endpoint = serve_prometheus(
            fleet.telemetry.registry, port=args.prom_port
        )
        print(f"serving Prometheus exposition at {endpoint.url}")
    try:
        elapsed = _serve_fleet(fleet, feeds, ticks)
        return _report_fleet(args, fleet, elapsed)
    finally:
        if endpoint is not None:
            endpoint.close()
        fleet.close()


def _report_fleet(args, fleet, elapsed: float) -> int:
    """Print the fleet run's metrics/telemetry reports (exit code 0)."""
    import numpy as np

    n, ticks = args.streams, args.ticks
    metrics = fleet.metrics()
    print(metrics.render(max_rows=args.max_rows))
    mse = [m.rolling_mse for m in metrics.streams if m.trained]
    if mse:
        print(f"mean rolling MSE over trained streams: {np.mean(mse):.4f}")
    print(
        f"served {n} streams x {ticks} ticks in {elapsed:.2f}s "
        f"({n * ticks / elapsed:,.0f} stream-ticks/sec)"
    )
    tel = fleet.telemetry
    if tel is not None:
        if args.telemetry:
            print()
            print(tel.tracer.render())
            _print_event_tail(tel.events, 10)
        if args.stats_out:
            from repro.obs import write_json

            write_json(args.stats_out, tel, extra={"fleet": metrics.as_dict()})
            print(f"wrote telemetry snapshot to {args.stats_out}")
        if args.prom_out:
            from repro.obs import write_prometheus

            write_prometheus(args.prom_out, tel.registry)
            print(f"wrote Prometheus exposition to {args.prom_out}")
        if getattr(args, "flight_dir", None):
            trigger = fleet.anomaly_trigger
            if trigger is not None and trigger.dumps:
                print(
                    f"flight recorder dumped {len(trigger.dumps)} "
                    f"anomaly snapshot(s):"
                )
                for path in trigger.dumps:
                    print(f"  {path}")
            else:
                print(
                    f"flight recorder armed at {args.flight_dir} "
                    f"(no anomalies tripped)"
                )
    return 0


def _print_event_tail(events, n: int) -> None:
    """Human-readable tail of the structured event log."""
    tail = events.tail(n)
    print(
        f"Events: {events.total_emitted} emitted, "
        f"{events.dropped} dropped, last {len(tail)}:"
    )
    for e in tail:
        data = " ".join(f"{k}={v}" for k, v in e.data.items())
        stream = e.stream if e.stream is not None else "-"
        print(f"  [{e.seq:>5}] tick={e.tick:<6} {e.kind:<18} {stream:<12} {data}")


def _run_obs(args) -> int:
    """Telemetry showcase: a drift-storm run with every phase traced."""
    from repro.obs import json_snapshot, prometheus_text
    from repro.serving import PredictionFleet

    if args.streams < 1 or args.ticks < 1:
        print("obs: --streams and --ticks must be >= 1", file=sys.stderr)
        return 2

    n, ticks = args.streams, args.ticks
    feeds = _build_fleet_feeds(n, ticks, _seed(args))
    config = _fleet_demo_config(ticks, retrain_mode=args.retrain_mode)
    from repro.obs import Telemetry, render_span_quantiles

    tel = Telemetry(flight=bool(args.trace_out or args.quantiles))
    fleet = PredictionFleet(config, streams=feeds, telemetry=tel)
    elapsed = _serve_fleet(fleet, feeds, ticks)
    metrics = fleet.metrics()

    if args.format == "prom":
        print(prometheus_text(tel.registry), end="")
    elif args.format == "json":
        import json

        print(
            json.dumps(
                json_snapshot(tel, extra={"fleet": metrics.as_dict()}),
                indent=2,
            )
        )
    else:
        print(metrics.render(max_rows=10))
        print()
        print(tel.tracer.render())
        if args.quantiles:
            print()
            print(render_span_quantiles(tel.flight))
        _print_event_tail(tel.events, args.events)
        print(
            f"served {n} streams x {ticks} ticks in {elapsed:.2f}s "
            f"with full telemetry"
        )
    # A machine format keeps stdout to the one document it parses as;
    # the human-readable extras go to stderr.
    notes = sys.stdout if args.format == "summary" else sys.stderr
    if args.quantiles and args.format != "summary":
        print(render_span_quantiles(tel.flight), file=notes)
    if args.trace_out:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(args.trace_out, tel.flight, tel.events)
        print(
            f"wrote Chrome trace ({len(tel.flight)} spans) to {path} "
            f"- open in Perfetto or chrome://tracing",
            file=notes,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
