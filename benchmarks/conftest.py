"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables or figures
(see DESIGN.md's experiment index) and prints the same rows/series the
paper reports. The expensive full-matrix evaluation is computed once per
session and shared; the per-artifact benches then time their own
projection and print their artifact.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import run_full_evaluation
from repro.traces.generate import DEFAULT_SEED, load_paper_traces

#: Fold count used by the benchmark harness (the paper's protocol).
BENCH_FOLDS = 10


@pytest.fixture(scope="session")
def paper_traces():
    """The simulated 60-trace evaluation set."""
    return load_paper_traces(DEFAULT_SEED)


@pytest.fixture(scope="session")
def evaluation(paper_traces):
    """The full ten-fold, all-strategy evaluation matrix.

    Depends on ``paper_traces`` so trace generation cost is attributed
    to that fixture; passing ``None`` here routes through the module
    cache, which shares the same memoized trace set.
    """
    del paper_traces
    return run_full_evaluation(n_folds=BENCH_FOLDS, seed=DEFAULT_SEED)


def emit(capsys, text: str) -> None:
    """Print an artifact to the real console, bypassing pytest capture."""
    with capsys.disabled():
        print()
        print(text)
        print()


def machine_info() -> dict:
    """The machine and checkout a ``BENCH_*.json`` was measured on.

    ``git_sha`` is ``git describe --always --dirty`` of the checkout
    (``None`` outside a git work tree), so numbers taken on uncommitted
    code say so.
    """
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }
