"""Standalone synthetic series generators.

Small, self-describing series for tests, examples, and micro-benchmarks
that do not need the full VMM substrate. Each maps to one of the trace
classes the predictor pool differentiates on (see
:mod:`repro.vmm.devices` for the full-fidelity versions).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.rng import resolve_rng

# scipy.signal.lfilter is imported inside the functions that call it:
# loading scipy.signal takes most of a second, and `import repro`
# needs none of it.

__all__ = [
    "ar1_series",
    "sine_series",
    "random_walk_series",
    "bursty_series",
    "regime_series",
    "conflict_series",
    "white_noise_series",
]


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return n


def ar1_series(
    n: int, *, phi: float = 0.9, mean: float = 0.0, std: float = 1.0, seed=None
) -> np.ndarray:
    """Stationary AR(1): the smooth, AR/LAST-friendly class."""
    from scipy.signal import lfilter

    n = _check_n(n)
    if not -1.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (-1, 1), got {phi}")
    rng = resolve_rng(seed)
    innov = rng.standard_normal(n) * std * np.sqrt(1.0 - phi * phi)
    x = lfilter([1.0], [1.0, -phi], innov)
    return mean + np.asarray(x)


def white_noise_series(
    n: int, *, mean: float = 0.0, std: float = 1.0, seed=None
) -> np.ndarray:
    """i.i.d. Gaussian: the SW_AVG-friendly class."""
    n = _check_n(n)
    return mean + resolve_rng(seed).standard_normal(n) * std


def sine_series(
    n: int,
    *,
    period: int = 48,
    amplitude: float = 1.0,
    noise_std: float = 0.1,
    seed=None,
) -> np.ndarray:
    """Periodic plus noise: the diurnal class."""
    n = _check_n(n)
    if period < 2:
        raise ConfigurationError(f"period must be >= 2, got {period}")
    t = np.arange(n)
    rng = resolve_rng(seed)
    return amplitude * np.sin(2 * np.pi * t / period) + rng.standard_normal(n) * noise_std


def random_walk_series(
    n: int, *, step_std: float = 1.0, start: float = 0.0, seed=None
) -> np.ndarray:
    """Integrated noise: the non-stationary, LAST/ARI-friendly class."""
    n = _check_n(n)
    rng = resolve_rng(seed)
    return start + np.cumsum(rng.standard_normal(n) * step_std)


def bursty_series(
    n: int,
    *,
    burst_prob: float = 0.05,
    burst_scale: float = 10.0,
    base: float = 1.0,
    seed=None,
) -> np.ndarray:
    """Quiet baseline with exponential bursts: the peaky I/O class."""
    n = _check_n(n)
    if not 0.0 <= burst_prob <= 1.0:
        raise ConfigurationError(f"burst_prob must be in [0, 1], got {burst_prob}")
    rng = resolve_rng(seed)
    bursts = (rng.random(n) < burst_prob) * rng.exponential(burst_scale, n)
    return base + np.abs(rng.standard_normal(n) * 0.1) + bursts


def conflict_series(
    n: int,
    *,
    block: int = 44,
    hi_mean: float = 45.0,
    hi_std: float = 8.0,
    lo_mean: float = 18.0,
    lo_std: float = 7.0,
    seed=None,
) -> np.ndarray:
    """Alternating momentum and oscillating phases — the adaptive class.

    Phase A is a momentum (integrated-AR) ramp around *hi_mean* (AR's
    home); phase B is anti-persistent drain/fill churn around *lo_mean*
    (the window average's home). A single AR model fitted across both
    compromises its coefficients, so the per-phase best predictors win
    by a margin: the smallest synthetic series on which the LARPredictor
    beats every static predictor (see
    :class:`repro.vmm.devices.RegimeSwitchingModel` for the
    full-fidelity version).
    """
    n = _check_n(n)
    if block < 4:
        raise ConfigurationError(f"block must be >= 4, got {block}")
    rng = resolve_rng(seed)
    out = np.empty(n)
    pos = 0
    momentum_phase = True
    while pos < n:
        length = int(block * (0.7 + 0.6 * rng.random()))
        length = min(max(length, 2), n - pos)
        if momentum_phase:
            from scipy.signal import lfilter

            eta = rng.standard_normal(length)
            v = lfilter([1.0], [1.0, -0.7], eta)
            level = np.asarray(lfilter([1.0], [1.0, -0.96], v))
            scale = level.std()
            if scale > 0:
                level *= hi_std / scale
            out[pos : pos + length] = np.maximum(hi_mean + level, 0.0)
        else:
            out[pos : pos + length] = np.maximum(
                lo_mean + ar1_series(length, phi=-0.45, std=lo_std, seed=rng),
                0.0,
            )
        pos += length
        momentum_phase = not momentum_phase
    return out


def regime_series(
    n: int, *, block: int = 64, seed=None
) -> np.ndarray:
    """Alternating smooth and white blocks: the regime-switching class.

    Alternates AR(1) (phi = 0.95) and white-noise segments of *block*
    samples, so the best predictor provably changes over time — the
    smallest series on which a learned selector should beat any static
    choice.
    """
    n = _check_n(n)
    if block < 2:
        raise ConfigurationError(f"block must be >= 2, got {block}")
    rng = resolve_rng(seed)
    out = np.empty(n)
    pos = 0
    smooth = True
    while pos < n:
        length = min(block, n - pos)
        if smooth:
            out[pos : pos + length] = ar1_series(length, phi=0.95, seed=rng)
        else:
            out[pos : pos + length] = white_noise_series(length, std=1.0, seed=rng)
        pos += length
        smooth = not smooth
    return out
