"""Unit and statistical tests for the VMM device models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.util.stats import autocorrelation
from repro.vmm.devices import (
    BurstyTrafficModel,
    CompositeModel,
    ConstantModel,
    ExogenousModel,
    MomentumLoadModel,
    PeriodicLoadModel,
    RegimeSwitchingModel,
    SmoothLoadModel,
    SpikeModel,
    SteppedResourceModel,
)


def _gen(model, n=2000, seed=0):
    return model.generate(n, np.random.default_rng(seed))


class TestConstant:
    def test_constant(self):
        x = _gen(ConstantModel(3.0), 100)
        np.testing.assert_array_equal(x, 3.0)

    def test_n_validated(self):
        with pytest.raises(ConfigurationError):
            ConstantModel().generate(0, np.random.default_rng())


class TestSmoothLoad:
    def test_moments(self):
        x = _gen(SmoothLoadModel(50.0, 5.0, phi=0.9, lo=0.0), n=40000)
        assert x.mean() == pytest.approx(50.0, abs=1.0)
        assert x.std() == pytest.approx(5.0, abs=1.0)

    def test_autocorrelation_matches_phi(self):
        x = _gen(SmoothLoadModel(0.0, 1.0, phi=0.8, lo=-100.0), n=40000)
        assert autocorrelation(x, 1)[1] == pytest.approx(0.8, abs=0.05)

    def test_negative_phi_oscillates(self):
        x = _gen(SmoothLoadModel(10.0, 1.0, phi=-0.6, lo=-100.0), n=40000)
        assert autocorrelation(x, 1)[1] == pytest.approx(-0.6, abs=0.05)

    def test_clamping(self):
        x = _gen(SmoothLoadModel(1.0, 5.0, phi=0.5, lo=0.0, hi=2.0))
        assert x.min() >= 0.0 and x.max() <= 2.0

    def test_phi_validated(self):
        with pytest.raises(ConfigurationError):
            SmoothLoadModel(0.0, 1.0, phi=1.0)


class TestMomentum:
    def test_velocity_persistence(self):
        """Momentum makes successive differences positively correlated —
        the property that lets AR beat LAST."""
        x = _gen(MomentumLoadModel(50.0, 10.0, momentum=0.8, reversion=0.99,
                                   lo=-1e9), n=40000)
        diffs = np.diff(x)
        assert autocorrelation(diffs, 1)[1] > 0.5

    def test_std_matches_request(self):
        x = _gen(MomentumLoadModel(0.0, 3.0, lo=-1e9), n=5000)
        assert x.std() == pytest.approx(3.0, rel=0.05)

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            MomentumLoadModel(0.0, 1.0, momentum=1.0)
        with pytest.raises(ConfigurationError):
            MomentumLoadModel(0.0, 1.0, reversion=-0.1)
        with pytest.raises(ConfigurationError):
            MomentumLoadModel(0.0, -1.0)


class TestPeriodic:
    def test_period_visible(self):
        m = PeriodicLoadModel(base=10.0, amplitude=5.0, period=100, noise_std=0.1)
        x = _gen(m, n=1000)
        # Peak of the autocorrelation near the period.
        acf = autocorrelation(x - x.mean(), 120)
        assert acf[100] > 0.7

    def test_amplitude_range(self):
        m = PeriodicLoadModel(base=10.0, amplitude=5.0, period=100, noise_std=0.0)
        x = _gen(m, n=400)
        assert x.max() == pytest.approx(15.0, abs=0.2)
        assert x.min() == pytest.approx(5.0, abs=0.2)

    def test_period_validated(self):
        with pytest.raises(ConfigurationError):
            PeriodicLoadModel(1.0, 1.0, period=1)


class TestBursty:
    def test_two_state_structure(self):
        m = BurstyTrafficModel(
            mean_on=50, mean_off=50, on_level=100.0, on_sigma=0.3,
            off_level=1.0, noise_std=0.0, phi=0.7,
        )
        x = _gen(m, n=20000)
        quiet = x == 1.0
        # Both states occupy a substantial fraction.
        assert 0.2 < quiet.mean() < 0.8
        assert x[~quiet].mean() > 20.0

    def test_exact_quiet_when_noise_zero(self):
        m = BurstyTrafficModel(
            mean_on=10, mean_off=10, on_level=100.0, off_level=2.0,
            noise_std=0.0,
        )
        x = _gen(m, n=5000)
        quiet = np.isclose(x, 2.0)
        assert quiet.any()

    def test_sojourn_lengths_near_mean(self):
        m = BurstyTrafficModel(
            mean_on=100, mean_off=100, on_level=10.0, off_level=0.0,
            noise_std=0.0,
        )
        x = _gen(m, n=50000, seed=3)
        on = x > 1e-9
        changes = np.flatnonzero(np.diff(on.astype(int)))
        lengths = np.diff(changes)
        assert lengths.mean() == pytest.approx(100, rel=0.4)

    def test_momentum_log_path(self):
        m = BurstyTrafficModel(
            mean_on=10_000, mean_off=1, on_level=100.0, on_sigma=0.4,
            off_level=0.0, noise_std=0.0, phi=0.9, momentum=0.8,
        )
        x = _gen(m, n=20000, seed=4)
        on = x > 1e-9
        log_diffs = np.diff(np.log(np.maximum(x[on], 1e-12)))
        assert autocorrelation(log_diffs, 1)[1] > 0.3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyTrafficModel(mean_on=0.5)
        with pytest.raises(ConfigurationError):
            BurstyTrafficModel(on_level=0.0)
        with pytest.raises(ConfigurationError):
            BurstyTrafficModel(momentum=1.5)


class TestStepped:
    def test_piecewise_constant_with_recurring_levels(self):
        m = SteppedResourceModel(512.0, mean_hold=50, step_std=64.0, hi=1024.0)
        x = _gen(m, n=20000)
        levels = np.unique(x)
        # Quantization keeps the level set small.
        assert levels.size < 40
        # Large flat stretches exist.
        flat = np.diff(x) == 0.0
        assert flat.mean() > 0.9

    def test_levels_on_step_ladder(self):
        m = SteppedResourceModel(512.0, mean_hold=20, step_std=64.0, hi=1024.0)
        x = _gen(m, n=5000)
        offsets = (x - 512.0) / 64.0
        np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-9)

    def test_bounds(self):
        m = SteppedResourceModel(100.0, mean_hold=5, step_std=200.0, lo=0.0, hi=300.0)
        x = _gen(m, n=5000)
        assert x.min() >= 0.0 and x.max() <= 300.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SteppedResourceModel(1.0, mean_hold=0.5)
        with pytest.raises(ConfigurationError):
            SteppedResourceModel(1.0, reversion=2.0)


class TestSpikes:
    def test_spikes_decay(self):
        m = SpikeModel(background=0.0, spike_prob=0.01, spike_mean=100.0,
                       decay=0.5, noise_std=0.0)
        x = _gen(m, n=20000, seed=5)
        assert x.max() > 20.0
        assert np.median(x) < 5.0

    def test_spike_rate(self):
        m = SpikeModel(background=0.0, spike_prob=0.05, spike_mean=100.0,
                       decay=0.0, noise_std=0.0)
        x = _gen(m, n=50000, seed=6)
        assert (x > 1.0).mean() == pytest.approx(0.05, abs=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpikeModel(spike_prob=1.5)
        with pytest.raises(ConfigurationError):
            SpikeModel(decay=1.0)


class TestComposite:
    def test_sum_of_components(self):
        m = CompositeModel([ConstantModel(2.0), ConstantModel(3.0)])
        np.testing.assert_array_equal(_gen(m, 10), 5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeModel([])
        with pytest.raises(ConfigurationError):
            CompositeModel([ConstantModel(), "not a model"])


class TestRegimeSwitching:
    def test_alternates_regimes(self):
        m = RegimeSwitchingModel(
            [ConstantModel(0.0), ConstantModel(10.0)], mean_sojourn=50
        )
        x = _gen(m, n=5000)
        assert set(np.unique(x)) == {0.0, 10.0}
        switches = np.count_nonzero(np.diff(x))
        assert 5000 / 50 * 0.3 < switches < 5000 / 50 * 3

    def test_sojourn_jitter_bounds(self):
        m = RegimeSwitchingModel(
            [ConstantModel(0.0), ConstantModel(1.0)],
            mean_sojourn=100,
            sojourn_jitter=0.2,
        )
        x = _gen(m, n=50000, seed=7)
        changes = np.flatnonzero(np.diff(x))
        lengths = np.diff(changes)
        assert lengths.min() >= 100 * 0.8 - 1
        assert lengths.max() <= 100 * 1.2 + 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegimeSwitchingModel([ConstantModel()], mean_sojourn=10)
        with pytest.raises(ConfigurationError):
            RegimeSwitchingModel(
                [ConstantModel(), ConstantModel()], mean_sojourn=10,
                sojourn_jitter=2.0,
            )


class TestExogenous:
    def test_passthrough(self):
        demand = np.arange(10.0)
        m = ExogenousModel(demand, scale=2.0)
        np.testing.assert_array_equal(_gen(m, 10), demand * 2.0)

    def test_length_guard(self):
        m = ExogenousModel(np.arange(5.0))
        with pytest.raises(ConfigurationError):
            _gen(m, 10)

    def test_noise_and_clamp(self):
        m = ExogenousModel(np.zeros(100), noise_std=1.0, lo=0.0)
        x = _gen(m, 100)
        assert x.min() >= 0.0


class TestImportCost:
    def test_import_repro_leaves_scipy_signal_unloaded(self):
        """``lfilter`` is imported where it runs: loading ``scipy.signal``
        costs about a second, and ``import repro`` never calls it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; print('scipy.signal' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
