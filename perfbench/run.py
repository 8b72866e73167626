"""Seeded end-to-end and per-layer benchmark of the repro package.

Run from the repository root:

    python3 perfbench/run.py --workload serve_deep --seed 1 --seconds 26 --trace 0

Workloads: ``serve_deep``, ``drift_storm``, ``storm_async`` (closed-loop
fleet serving, see ``fleet_load.py``) and ``paper_eval`` (the paper's
Table 2 / Table 3 / Fig 6 sweep, see ``paper_load.py``). The metric names
and units come from ``BENCHMARK.json`` at the repository root; README.md
beside this file defines each metric and says which layer metric should
move which end-to-end metric.

The benchmark prints every metric it measured with its unit and sample
count, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

from common import Metric

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serve_deep", "drift_storm", "storm_async", "paper_eval")
DEFAULT_SEED = 1
ALTERNATE_SEED = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args, params: dict) -> dict:
    import numpy

    import repro

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "alternate_seed": ALTERNATE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def _print_metrics(title: str, specs: list, measured: dict) -> None:
    print(title)
    for spec in specs:
        metric = measured.get(spec["name"])
        if metric is None or metric.n == 0:
            continue
        print(
            f"  {spec['name']:<34} {metric.value:>14.6g} {spec['unit']:<6}"
            f" n={metric.n}"
        )


def _run(args, workdir: Path) -> dict:
    if args.workload == "paper_eval":
        import paper_load

        return paper_load.run(args.seed, args.seconds)
    import fleet_load

    return fleet_load.run(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not manifest_path.is_file():
        print(
            "perfbench: run from the root of a full checkout "
            "(src/repro and BENCHMARK.json are required)",
            file=sys.stderr,
        )
        return 2
    manifest = json.loads(manifest_path.read_text())
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    from repro.parallel import shutdown_persistent_pool

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        result = _run(args, workdir)
    finally:
        shutdown_persistent_pool()
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = dict(result["end_to_end"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end["rss_peak_mb"] = Metric(peak_kb / 1024.0, 1)
    layers = result["layers"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(_provenance(args, result["params"])))
    print("fingerprints " + json.dumps(result["fingerprints"]))
    print("extra " + json.dumps(result["extra"]))
    _print_metrics("end-to-end:", manifest["end_to_end"], end_to_end)
    _print_metrics("per-layer:", manifest["per_layer"], layers)
    print(
        f"operations: {result['attempted']} attempted, "
        f"{result['failed']} failed"
    )

    if args.trace:
        chosen = {
            s["name"]: (layers.get(s["name"], Metric(0.0, 0)).value, s["unit"])
            for s in manifest["per_layer"]
        }
    else:
        chosen = {
            s["name"]: (end_to_end[s["name"]].value, s["unit"])
            for s in manifest["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in chosen.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
