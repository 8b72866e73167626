"""Shared fixtures for the repro test suite.

Expensive artifacts (the simulated paper trace set, a trained
LARPredictor) are session-scoped so the suite builds them once. All
stochastic fixtures are seeded — a failing test reproduces exactly.
"""

from __future__ import annotations

from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import LARConfig, LARPredictor
from repro.traces.generate import DEFAULT_SEED, load_paper_traces
from repro.traces.synthetic import ar1_series, regime_series, white_noise_series


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_series() -> np.ndarray:
    """A strongly autocorrelated series (AR/LAST friendly)."""
    return ar1_series(400, phi=0.9, mean=5.0, std=1.0, seed=1)


@pytest.fixture
def white_series() -> np.ndarray:
    """An i.i.d. Gaussian series (SW_AVG friendly)."""
    return white_noise_series(400, mean=5.0, std=1.0, seed=2)


@pytest.fixture
def switching_series() -> np.ndarray:
    """A regime-switching series (adaptive-selection friendly)."""
    return regime_series(512, block=64, seed=3)


@pytest.fixture(scope="session")
def paper_traces():
    """The memoized 60-trace paper evaluation set (built once)."""
    return load_paper_traces(DEFAULT_SEED)


@pytest.fixture(scope="session")
def trained_lar():
    """A LARPredictor trained on a smooth synthetic series."""
    series = ar1_series(400, phi=0.9, mean=5.0, std=1.0, seed=41)
    return LARPredictor(LARConfig(window=5)).train(series), series


@contextmanager
def inline_pool():
    """Run asynchronous retrain units inline instead of on the pool.

    Each future resolves at submission, while the fleet still drains it
    at its own tick boundaries, so the submit -> serve stale -> drain ->
    replay sequence stays intact and deterministic. Yields the list of
    submitted argument tuples, ``(config, kind, payload)`` per unit.
    """
    from repro.serving import retrain

    calls = []

    def inline_submit(fn, /, *args, workers=None):
        calls.append(args)
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # raised when the fleet drains it
            future.set_exception(exc)
        return future

    original = retrain.pool_submit
    retrain.pool_submit = inline_submit
    try:
        yield calls
    finally:
        retrain.pool_submit = original
