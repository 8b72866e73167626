"""Unit and property tests for the z-score normalizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import NotFittedError
from repro.preprocess.normalize import ZScoreNormalizer
from repro.preprocess.stacked import fit_stacked_normalizer

series_strategy = arrays(
    np.float64,
    st.integers(min_value=2, max_value=100),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestFitTransform:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(10.0, 3.0, 500)
        z = ZScoreNormalizer().fit_transform(x)
        assert abs(z.mean()) < 1e-12
        assert z.std() == pytest.approx(1.0)

    def test_frozen_coefficients_on_test_data(self):
        """Test data is normalized with *training* coefficients (§6.2)."""
        norm = ZScoreNormalizer().fit([0.0, 2.0])  # mean 1, std 1
        z = norm.transform([3.0])
        assert z[0] == pytest.approx(2.0)

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            ZScoreNormalizer().transform([1.0])
        with pytest.raises(NotFittedError):
            ZScoreNormalizer().inverse_transform([1.0])

    def test_constant_series_clamped(self):
        norm = ZScoreNormalizer().fit(np.full(10, 5.0))
        z = norm.transform(np.full(10, 5.0))
        np.testing.assert_allclose(z, 0.0)
        assert norm.std == norm.min_std

    def test_bad_min_std(self):
        with pytest.raises(ValueError):
            ZScoreNormalizer(min_std=0.0)

    def test_overflowing_moments_stay_finite(self):
        """A finite 1e200 spike squares past float64's range; the fit
        falls back to scaled moments, and the stacked fit takes the same
        fallback for that row only."""
        x = np.full(64, 10.0)
        x[40] = 1e200
        y = np.arange(64.0)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = ZScoreNormalizer().fit(x)
            stacked = fit_stacked_normalizer(np.stack([x, y]))
        assert np.isfinite(norm.std) and norm.std > 1e198
        assert np.isfinite(norm.transform(x)).all()
        assert stacked.means[0] == norm.mean and stacked.stds[0] == norm.std
        # The row whose moments are finite keeps the plain formulas.
        assert stacked.means[1] == y.mean() and stacked.stds[1] == y.std()

    @given(series_strategy)
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, x):
        norm = ZScoreNormalizer().fit(x)
        back = norm.inverse_transform(norm.transform(x))
        np.testing.assert_allclose(back, x, atol=1e-6 * (1 + np.abs(x).max()))


class TestScalarPaths:
    def test_transform_value_matches_array_path(self):
        norm = ZScoreNormalizer().fit([1.0, 2.0, 3.0])
        assert norm.transform_value(2.5) == pytest.approx(norm.transform([2.5])[0])

    def test_inverse_value_roundtrip(self):
        norm = ZScoreNormalizer().fit([1.0, 5.0, 9.0])
        assert norm.inverse_transform_value(norm.transform_value(4.2)) == pytest.approx(4.2)


class TestIntrospection:
    def test_repr_states(self):
        n = ZScoreNormalizer()
        assert "unfitted" in repr(n)
        n.fit([1.0, 2.0])
        assert "mean=" in repr(n)

    def test_properties_after_fit(self):
        n = ZScoreNormalizer().fit([2.0, 4.0])
        assert n.mean == pytest.approx(3.0)
        assert n.std == pytest.approx(1.0)
        assert n.is_fitted
