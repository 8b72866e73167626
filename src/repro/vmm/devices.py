"""Stochastic per-device resource models.

The paper's evaluation traces come from five production VMs on a VMware
ESX host — data we do not have. These models synthesize the same
*classes* of behaviour the paper's metrics exhibit, because the
LARPredictor's dynamics depend on exactly those classes:

* smooth, strongly autocorrelated load (Dinda: host CPU load) — where
  AR and LAST do well;
* bursty ON/OFF traffic (network, disk) — where window averages and
  medians win during bursts and LAST wins in silence;
* stepwise-constant allocations (memory size/swap) — where LAST is
  nearly perfect (Table 3 gives memory to LAST on VM1/VM4);
* periodic (diurnal) service load — where trend/AR models pay off;
* regime switches between the above — the reason the *best* predictor
  changes over time (Figures 4/5) and adaptive selection beats any
  static choice.

Every model is generated vectorized: AR recursions run through
:func:`scipy.signal.lfilter`, ON/OFF chains are built from geometric
sojourn draws, spikes from a Poisson mask convolved with an exponential
kernel — no per-sample Python loops.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

# scipy.signal.lfilter is imported inside the functions that call it:
# loading scipy.signal takes most of a second, and `import repro`
# needs none of it.

__all__ = [
    "DeviceModel",
    "ConstantModel",
    "SmoothLoadModel",
    "MomentumLoadModel",
    "PeriodicLoadModel",
    "BurstyTrafficModel",
    "SteppedResourceModel",
    "SpikeModel",
    "CompositeModel",
    "RegimeSwitchingModel",
    "ExogenousModel",
]


class DeviceModel(abc.ABC):
    """A generator of one per-minute performance-metric sample stream."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Produce *n* consecutive per-minute samples."""

    def _check_n(self, n: int) -> int:
        n = int(n)
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        return n


def _ar1(
    n: int,
    rng: np.random.Generator,
    *,
    phi: float,
    std: float,
) -> np.ndarray:
    """Zero-mean AR(1) noise via lfilter (stationary start)."""
    from scipy.signal import lfilter

    innovations = rng.standard_normal(n) * std * np.sqrt(max(1.0 - phi * phi, 1e-12))
    x = lfilter([1.0], [1.0, -phi], innovations)
    return np.asarray(x)


class ConstantModel(DeviceModel):
    """A metric that never changes (unused device).

    This reproduces the paper's NaN cells in Table 3: a constant trace
    has zero variance, so normalized prediction MSE is undefined and the
    experiment harness reports NaN for it, exactly as the paper does for
    e.g. VM3's unused disks.
    """

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(self._check_n(n), self.value)


class SmoothLoadModel(DeviceModel):
    """Autocorrelated Gaussian load (AR(1)), clamped to a range.

    Parameters
    ----------
    mean, std:
        Stationary mean and standard deviation.
    phi:
        AR(1) coefficient in (-1, 1). Positive values give smooth load;
        *negative* values give oscillating (anti-persistent) load — the
        drain/fill, batch-then-flush cycle whose dynamics directly
        conflict with momentum load, which is what breaks a single
        mixture-fitted AR model and creates the adaptive-selection
        opportunity the paper's headline results rest on.
    lo, hi:
        Physical clamps (e.g. a CPU percentage lives in [0, 100]).
    """

    def __init__(
        self,
        mean: float,
        std: float,
        *,
        phi: float = 0.9,
        lo: float = 0.0,
        hi: float | None = None,
    ):
        if not -1.0 < phi < 1.0:
            raise ConfigurationError(f"phi must be in (-1, 1), got {phi}")
        if std < 0:
            raise ConfigurationError(f"std must be >= 0, got {std}")
        self.mean, self.std, self.phi = float(mean), float(std), float(phi)
        self.lo = float(lo)
        self.hi = float(hi) if hi is not None else None

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        x = self.mean + _ar1(n, rng, phi=self.phi, std=self.std)
        np.clip(x, self.lo, self.hi, out=x)
        return x


class MomentumLoadModel(DeviceModel):
    """Smooth load with *momentum*: an integrated-AR(1) velocity process.

        v_t = momentum * v_{t-1} + eta_t        (persistent velocity)
        s_t = reversion * s_{t-1} + v_t         (slowly mean-reverting level)
        x_t = mean + std * s_t / std(s)

    Real load ramps (a transfer accelerating, a service draining a
    queue) have exactly this signature: the *derivative* is predictable
    for several steps. That is the regime where the AR model beats LAST
    decisively and consistently — LAST's error is the persistent
    velocity, AR's is only the innovation — which is what makes the
    per-step best-predictor labels on such traces overwhelmingly AR,
    as the paper's NIC rows (LAR == AR to four decimals) require.
    """

    def __init__(
        self,
        mean: float,
        std: float,
        *,
        momentum: float = 0.7,
        reversion: float = 0.96,
        lo: float = 0.0,
        hi: float | None = None,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if not 0.0 <= reversion < 1.0:
            raise ConfigurationError(f"reversion must be in [0, 1), got {reversion}")
        if std < 0:
            raise ConfigurationError(f"std must be >= 0, got {std}")
        self.mean, self.std = float(mean), float(std)
        self.momentum, self.reversion = float(momentum), float(reversion)
        self.lo = float(lo)
        self.hi = float(hi) if hi is not None else None

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy.signal import lfilter

        n = self._check_n(n)
        eta = rng.standard_normal(n)
        velocity = lfilter([1.0], [1.0, -self.momentum], eta)
        level = lfilter([1.0], [1.0, -self.reversion], velocity)
        level = np.asarray(level)
        scale = level.std()
        if scale > 0:
            level = level * (self.std / scale)
        x = self.mean + level
        np.clip(x, self.lo, self.hi, out=x)
        return x


class PeriodicLoadModel(DeviceModel):
    """Diurnal-style sinusoidal load plus AR(1) noise.

    Parameters
    ----------
    base, amplitude:
        Offset and swing of the sinusoid.
    period:
        Period in samples (1440 for a daily cycle at 1-minute sampling).
    noise_std, phi:
        AR(1) noise magnitude and smoothness.
    phase:
        Phase offset in samples.
    """

    def __init__(
        self,
        base: float,
        amplitude: float,
        period: int,
        *,
        noise_std: float = 1.0,
        phi: float = 0.7,
        phase: float = 0.0,
        lo: float = 0.0,
        hi: float | None = None,
    ):
        if period < 2:
            raise ConfigurationError(f"period must be >= 2, got {period}")
        self.base, self.amplitude = float(base), float(amplitude)
        self.period = int(period)
        self.noise_std, self.phi, self.phase = float(noise_std), float(phi), float(phase)
        self.lo = float(lo)
        self.hi = float(hi) if hi is not None else None

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        t = np.arange(n, dtype=np.float64)
        x = self.base + self.amplitude * np.sin(
            2.0 * np.pi * (t + self.phase) / self.period
        )
        x += _ar1(n, rng, phi=self.phi, std=self.noise_std)
        np.clip(x, self.lo, self.hi, out=x)
        return x


class BurstyTrafficModel(DeviceModel):
    """Markov-modulated ON/OFF traffic (network packets, I/O rates).

    The chain alternates ON and OFF sojourns with geometric lengths
    (mean ``mean_on`` / ``mean_off`` samples). During ON the level is a
    lognormal burst size smoothed by AR(1); during OFF it is near-zero
    background noise. This produces the heavy-tailed, peaky traces for
    which the paper finds AR best overall but LAST terrible (Table 2's
    NIC rows: LAST MSE ~1.8 vs AR ~0.55).
    """

    def __init__(
        self,
        *,
        mean_on: float = 20.0,
        mean_off: float = 40.0,
        on_level: float = 100.0,
        on_sigma: float = 0.5,
        off_level: float = 0.5,
        noise_std: float = 0.2,
        phi: float = 0.6,
        momentum: float = 0.0,
    ):
        """See class docstring.

        Parameters
        ----------
        mean_on, mean_off:
            Mean sojourn (samples) of the ON and OFF states.
        on_level, on_sigma:
            Median burst level and its log-scale spread. The log-level
            follows an AR(1) with coefficient *phi*, so bursts are
            *smooth* heavy-tailed ramps — the structure an AR predictor
            exploits and LAST lags one step behind on.
        off_level:
            Quiet-state level. With ``noise_std=0`` the quiet stretches
            are exactly constant (an idle NIC reports zeros), giving
            LAST zero error there — the regime contrast the learned
            selector keys on.
        noise_std, phi:
            Quiet-state noise and the log-level AR coefficient.
        momentum:
            Optional velocity persistence of the log-level path
            (:class:`MomentumLoadModel` dynamics); 0 keeps a plain AR(1)
            path. Positive momentum makes within-burst levels *ramp*,
            the AR-dominant regime.
        """
        if mean_on < 1 or mean_off < 1:
            raise ConfigurationError("mean_on and mean_off must be >= 1")
        if on_level <= 0:
            raise ConfigurationError(f"on_level must be positive, got {on_level}")
        if not 0.0 <= phi < 1.0:
            raise ConfigurationError(f"phi must be in [0, 1), got {phi}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self.mean_on, self.mean_off = float(mean_on), float(mean_off)
        self.on_level, self.on_sigma = float(on_level), float(on_sigma)
        self.off_level = float(off_level)
        self.noise_std, self.phi = float(noise_std), float(phi)
        self.momentum = float(momentum)

    def _state_mask(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean ON mask built from geometric sojourn times."""
        # Upper-bound the number of sojourns; expected sojourn >= 1 sample.
        est = max(8, int(2 * n / min(self.mean_on, self.mean_off)) + 8)
        on_lens = rng.geometric(1.0 / self.mean_on, size=est)
        off_lens = rng.geometric(1.0 / self.mean_off, size=est)
        lens = np.empty(2 * est, dtype=np.int64)
        start_on = bool(rng.random() < self.mean_on / (self.mean_on + self.mean_off))
        if start_on:
            lens[0::2], lens[1::2] = on_lens, off_lens
        else:
            lens[0::2], lens[1::2] = off_lens, on_lens
        while lens.sum() < n:  # extremely unlikely; top up deterministically
            lens = np.concatenate([lens, lens])
        edges = np.cumsum(lens)
        # state index at each sample = number of completed sojourns.
        state_idx = np.searchsorted(edges, np.arange(n), side="right")
        on = state_idx % 2 == (0 if start_on else 1)
        return on

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        on = self._state_mask(n, rng)
        # Smooth log-normal burst level: exp of an autocorrelated path,
        # median on_level. Heavy-tailed but smooth within a burst; with
        # momentum the path carries persistent ramps.
        if self.momentum > 0.0:
            from scipy.signal import lfilter

            eta = rng.standard_normal(n)
            v = lfilter([1.0], [1.0, -self.momentum], eta)
            path = np.asarray(lfilter([1.0], [1.0, -self.phi], v))
            scale = path.std()
            log_path = path / scale if scale > 0 else path
        else:
            log_path = _ar1(n, rng, phi=self.phi, std=1.0)
        burst = self.on_level * np.exp(self.on_sigma * log_path)
        if self.noise_std > 0:
            # Quiet-state background chatter is *smooth* (same AR
            # coefficient as the burst level), not white: idle links
            # still carry autocorrelated keep-alive traffic, and white
            # quiet noise would randomize the per-step best-predictor
            # labels that the learned selector trains on.
            chatter = _ar1(n, rng, phi=self.phi, std=self.noise_std)
            background = np.maximum(self.off_level + chatter, 0.0)
        else:
            background = np.full(n, self.off_level)
        x = np.where(on, burst, background)
        return x


class SteppedResourceModel(DeviceModel):
    """Piecewise-constant allocation (memory size, swap).

    Holds a level for a geometric sojourn, then jumps by a Gaussian step.
    Between jumps the trace is *exactly* constant — the regime where
    LAST has zero error, matching Table 3's memory rows.
    """

    def __init__(
        self,
        initial: float,
        *,
        mean_hold: float = 120.0,
        step_std: float = 64.0,
        reversion: float = 0.3,
        lo: float = 0.0,
        hi: float | None = None,
    ):
        """See class docstring.

        Parameters
        ----------
        reversion:
            Fraction of the distance back to *initial* each step pulls.
            Real allocations revisit a small set of working levels (page
            pools, balloon targets) instead of random-walking away; the
            pull keeps levels recurring, so windows at a given level are
            seen in both halves of an evaluation split.
        """
        if mean_hold < 1:
            raise ConfigurationError(f"mean_hold must be >= 1, got {mean_hold}")
        if not 0.0 <= reversion <= 1.0:
            raise ConfigurationError(
                f"reversion must be in [0, 1], got {reversion}"
            )
        self.initial = float(initial)
        self.mean_hold = float(mean_hold)
        self.step_std = float(step_std)
        self.reversion = float(reversion)
        self.lo = float(lo)
        self.hi = float(hi) if hi is not None else None

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        est = max(4, int(2 * n / self.mean_hold) + 4)
        holds = rng.geometric(1.0 / self.mean_hold, size=est)
        while holds.sum() < n:
            holds = np.concatenate([holds, holds])
        k = holds.size
        noise = rng.standard_normal(k) * self.step_std
        levels = np.empty(k)
        level = self.initial
        for i in range(k):
            levels[i] = level
            level = level + self.reversion * (self.initial - level) + noise[i]
        np.clip(levels, self.lo, self.hi, out=levels)
        if self.step_std > 0:
            # Quantize to the step ladder: allocations land on a small
            # set of recurring working levels (page pools, balloon
            # targets), so both halves of any evaluation split see the
            # same levels and windowed features generalize across them.
            levels = self.initial + np.round(
                (levels - self.initial) / self.step_std
            ) * self.step_std
            np.clip(levels, self.lo, self.hi, out=levels)
        edges = np.cumsum(holds)
        seg = np.searchsorted(edges, np.arange(n), side="right")
        return levels[seg]


class SpikeModel(DeviceModel):
    """Poisson spikes with exponential decay over a low background.

    Disk-write style traffic: long quiet stretches, occasional flushes
    that decay over a few samples. The decay is a linear filter, so the
    whole trace is one ``lfilter`` call over the spike train.
    """

    def __init__(
        self,
        *,
        background: float = 2.0,
        spike_prob: float = 0.02,
        spike_mean: float = 200.0,
        decay: float = 0.5,
        noise_std: float = 0.5,
    ):
        if not 0.0 <= spike_prob <= 1.0:
            raise ConfigurationError(f"spike_prob must be in [0, 1], got {spike_prob}")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError(f"decay must be in [0, 1), got {decay}")
        self.background = float(background)
        self.spike_prob = float(spike_prob)
        self.spike_mean = float(spike_mean)
        self.decay = float(decay)
        self.noise_std = float(noise_std)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy.signal import lfilter

        n = self._check_n(n)
        spikes = rng.random(n) < self.spike_prob
        amplitudes = rng.exponential(self.spike_mean, size=n) * spikes
        decayed = lfilter([1.0], [1.0, -self.decay], amplitudes)
        x = self.background + decayed + np.abs(rng.standard_normal(n)) * self.noise_std
        return np.maximum(np.asarray(x), 0.0)


class CompositeModel(DeviceModel):
    """Sum of component models (e.g. periodic base + bursty overlay)."""

    def __init__(self, components: Sequence[DeviceModel]):
        components = list(components)
        if not components:
            raise ConfigurationError("CompositeModel needs at least one component")
        for c in components:
            if not isinstance(c, DeviceModel):
                raise ConfigurationError(
                    f"components must be DeviceModel instances, got {type(c)}"
                )
        self.components = components

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        total = np.zeros(n)
        for c in self.components:
            total += c.generate(n, rng)
        return total


class RegimeSwitchingModel(DeviceModel):
    """Alternate between sub-models with jittered sojourn times.

    This is the crucial ingredient for reproducing Figures 4/5 and the
    headline better-than-expert results: when a trace switches between
    regimes with conflicting dynamics, the *best* predictor switches
    with it, and a learned selector that recognizes the regime from the
    window shape can adapt while a cumulative-MSE selector lags behind
    its accumulated history.

    Parameters
    ----------
    regimes:
        The sub-models; each sojourn picks a different one than the last.
    mean_sojourn:
        Mean phase length in samples.
    sojourn_jitter:
        Sojourns are uniform in ``mean * [1 - jitter, 1 + jitter]``.
        Workload phases (a VNC session, a transfer, a batch window) have
        *typical* durations — they are not memoryless — and the bounded
        jitter also guarantees both halves of a 50/50 evaluation split
        contain several phases of each regime. Set close to 1.0 for
        near-geometric variability.
    """

    def __init__(
        self,
        regimes: Sequence[DeviceModel],
        *,
        mean_sojourn: float = 90.0,
        sojourn_jitter: float = 0.3,
    ):
        regimes = list(regimes)
        if len(regimes) < 2:
            raise ConfigurationError("RegimeSwitchingModel needs >= 2 regimes")
        if mean_sojourn < 1:
            raise ConfigurationError(f"mean_sojourn must be >= 1, got {mean_sojourn}")
        if not 0.0 <= sojourn_jitter <= 1.0:
            raise ConfigurationError(
                f"sojourn_jitter must be in [0, 1], got {sojourn_jitter}"
            )
        self.regimes = regimes
        self.mean_sojourn = float(mean_sojourn)
        self.sojourn_jitter = float(sojourn_jitter)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        out = np.empty(n)
        pos = 0
        regime = int(rng.integers(len(self.regimes)))
        lo = 1.0 - self.sojourn_jitter
        width = 2.0 * self.sojourn_jitter
        while pos < n:
            length = int(self.mean_sojourn * (lo + width * rng.random()))
            length = min(max(length, 1), n - pos)
            out[pos : pos + length] = self.regimes[regime].generate(length, rng)
            pos += length
            # Move to a different regime (uniform among the others).
            step = 1 + int(rng.integers(len(self.regimes) - 1))
            regime = (regime + step) % len(self.regimes)
        return out


class ExogenousModel(DeviceModel):
    """A metric driven by an externally supplied demand series.

    Used to couple VM1's devices to its simulated batch-job schedule:
    the demand array (e.g. per-minute CPU seconds implied by running
    jobs) is scaled and perturbed with AR(1) measurement noise.
    """

    def __init__(
        self,
        demand,
        *,
        scale: float = 1.0,
        noise_std: float = 0.0,
        phi: float = 0.5,
        lo: float = 0.0,
        hi: float | None = None,
    ):
        self.demand = np.ascontiguousarray(demand, dtype=np.float64)
        if self.demand.ndim != 1 or self.demand.size == 0:
            raise ConfigurationError("demand must be a non-empty 1-D array")
        self.scale = float(scale)
        self.noise_std = float(noise_std)
        self.phi = float(phi)
        self.lo = float(lo)
        self.hi = float(hi) if hi is not None else None

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._check_n(n)
        if n > self.demand.size:
            raise ConfigurationError(
                f"requested {n} samples but the demand series has only "
                f"{self.demand.size}"
            )
        x = self.demand[:n] * self.scale
        if self.noise_std > 0:
            x = x + _ar1(n, rng, phi=self.phi, std=self.noise_std)
        np.clip(x, self.lo, self.hi, out=x)
        return x

