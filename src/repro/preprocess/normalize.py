"""Zero-mean / unit-variance normalization with train-derived coefficients.

The paper's features (CPU percentage, bytes/s, …) have incommensurate
units, so every series is normalized before prediction and classification
(§5.1, §6). Crucially, §6.2 says test data are normalized "using the
normalization coefficient derived from the training phase" — the mean and
standard deviation are *frozen* at fit time, never re-estimated on test
data. :class:`ZScoreNormalizer` encodes exactly that contract.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError
from repro.util.validation import as_series

__all__ = ["ZScoreNormalizer", "scaled_moments"]


def scaled_moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of a finite 1-D *x*, computed on
    ``x / max|x|`` and scaled back.

    The fallback for data whose plain moments overflow: a finite value
    past about 1.3e154 squares to infinity, and the plain ``std()``
    then reads ``inf`` (a model fitted with it forecasts NaN).
    """
    scale = float(np.abs(x).max())
    y = x / scale
    return float(y.mean()) * scale, float(y.std()) * scale


class ZScoreNormalizer:
    """Normalize a series to zero mean and unit variance.

    Parameters
    ----------
    min_std:
        Floor applied to the fitted standard deviation. A constant
        training series has zero spread; dividing by it would produce
        infinities, so the scale is clamped to this floor (the transform
        then only centres the data). The floor is deliberately tiny — it
        never distorts real traces, only degenerate ones.

    Examples
    --------
    >>> import numpy as np
    >>> norm = ZScoreNormalizer().fit([1.0, 2.0, 3.0, 4.0])
    >>> z = norm.transform([1.0, 2.0, 3.0, 4.0])
    >>> bool(abs(z.mean()) < 1e-12)
    True
    """

    def __init__(self, *, min_std: float = 1e-12):
        min_std = float(min_std)
        if min_std <= 0.0:
            raise ValueError(f"min_std must be positive, got {min_std}")
        self.min_std = min_std
        self._mean: float | None = None
        self._std: float | None = None

    # -- fitting -----------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._mean is not None

    @property
    def mean(self) -> float:
        """Fitted location coefficient."""
        self._require_fitted()
        return self._mean  # type: ignore[return-value]

    @property
    def std(self) -> float:
        """Fitted scale coefficient (never below ``min_std``)."""
        self._require_fitted()
        return self._std  # type: ignore[return-value]

    def fit(self, series) -> "ZScoreNormalizer":
        """Estimate the coefficients from *series* and return ``self``."""
        x = as_series(series, name="series")
        mean, std = float(x.mean()), float(x.std())
        if not (np.isfinite(mean) and np.isfinite(std)):
            mean, std = scaled_moments(x)
        self._mean = mean
        self._std = max(std, self.min_std)
        return self

    # -- transforms ---------------------------------------------------------

    def transform(self, series) -> np.ndarray:
        """Apply ``(x - mean) / std`` with the fitted coefficients."""
        self._require_fitted()
        x = as_series(series, name="series", allow_empty=True)
        return (x - self._mean) / self._std

    def fit_transform(self, series) -> np.ndarray:
        """Fit on *series* and return its normalized form."""
        return self.fit(series).transform(series)

    def inverse_transform(self, series) -> np.ndarray:
        """Map normalized values back to the original scale."""
        self._require_fitted()
        z = as_series(series, name="series", allow_empty=True)
        return z * self._std + self._mean

    def transform_value(self, value: float) -> float:
        """Normalize a single scalar (streaming-path convenience)."""
        self._require_fitted()
        return (float(value) - self._mean) / self._std  # type: ignore[operator]

    def inverse_transform_value(self, value: float) -> float:
        """De-normalize a single scalar."""
        self._require_fitted()
        return float(value) * self._std + self._mean  # type: ignore[operator]

    # -- internals ----------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._mean is None:
            raise NotFittedError(
                "ZScoreNormalizer must be fitted before transforming data"
            )

    def __repr__(self) -> str:
        if self.is_fitted:
            return (
                f"ZScoreNormalizer(mean={self._mean:.6g}, std={self._std:.6g})"
            )
        return "ZScoreNormalizer(unfitted)"
