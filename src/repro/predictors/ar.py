"""The autoregressive model AR(p) with Yule–Walker fitting (paper §4, eq. 4).

The next value is a linear combination of the *p* latest values:

    Z_t = psi_1 Z_{t-1} + ... + psi_p Z_{t-p} + a_t

Coefficients are estimated from the training series by solving the
Yule–Walker equations — a Toeplitz system in the sample autocovariances —
with :func:`scipy.linalg.solve_toeplitz` (Levinson–Durbin, O(p^2)).
Dinda's host-load studies found AR the best accuracy/overhead trade-off
among linear models, which is why it anchors the paper's pool; in
Table 3 it wins most cells, especially the peaky CPU and network traces.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.exceptions import DataError, InsufficientDataError
from repro.predictors.base import Predictor
from repro.util.stats import autocovariance
from repro.util.validation import check_positive_int

__all__ = ["ARPredictor", "yule_walker"]


def yule_walker(series, order: int) -> tuple[np.ndarray, float]:
    """Estimate AR(*order*) coefficients by the Yule–Walker method.

    Parameters
    ----------
    series:
        The (typically normalized) training series.
    order:
        AR order *p*; the series must be longer than *p*.

    Returns
    -------
    (coefficients, noise_variance):
        ``coefficients[j]`` multiplies the value *j+1* steps back;
        ``noise_variance`` is the innovation variance estimate
        ``acov(0) - coefficients . acov(1..p)`` (clamped at zero).

    Notes
    -----
    Uses the biased autocovariance estimator, which keeps the Toeplitz
    matrix positive semi-definite. A constant series has zero
    autocovariance everywhere; the fit degenerates gracefully to zero
    coefficients (the model then predicts the series mean).
    """
    order = check_positive_int(order, name="order")
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {x.shape}")
    if x.size <= order:
        raise InsufficientDataError(order + 1, x.size, what="AR training series")
    acov = autocovariance(x, order)
    if acov[0] <= 0.0:
        return np.zeros(order), 0.0
    r_col = acov[:-1]  # R[i, j] = acov[|i - j|]
    rhs = acov[1:]
    try:
        phi = scipy.linalg.solve_toeplitz(r_col, rhs)
    except np.linalg.LinAlgError:
        # Singular Toeplitz system (perfectly periodic series and the
        # like): fall back to a ridge-regularized dense solve.
        R = scipy.linalg.toeplitz(r_col)
        R += np.eye(order) * (1e-10 * acov[0])
        phi = np.linalg.solve(R, rhs)
    if not np.all(np.isfinite(phi)):
        raise DataError("Yule-Walker produced non-finite AR coefficients")
    noise_var = float(max(acov[0] - phi @ rhs, 0.0))
    return phi, noise_var


class ARPredictor(Predictor):
    """AR(p) one-step predictor with train-time Yule–Walker fitting.

    Parameters
    ----------
    order:
        The AR order *p*. Frames handed to :meth:`predict_batch` must be
        at least this long; the LARPredictor always frames at the
        prediction order *m = p*, matching the paper's setup
        ("prediction order = 16" heads Table 2).

    Notes
    -----
    Prediction is mean-adjusted: with training mean ``mu``,

        Z_t = mu + sum_j psi_j * (Z_{t-j} - mu)

    On the z-score-normalized series the LARPredictor feeds it, ``mu`` is
    ~0 and this reduces to the paper's eq. 4.
    """

    name = "AR"
    requires_fit = True

    def __init__(self, order: int = 16):
        super().__init__()
        self.order = check_positive_int(order, name="order")
        self.coefficients_: np.ndarray | None = None
        self.noise_variance_: float | None = None
        self.mean_: float | None = None

    def _fit(self, series: np.ndarray) -> None:
        self.mean_ = float(series.mean())
        self.coefficients_, self.noise_variance_ = yule_walker(
            series - self.mean_ if self.mean_ != 0.0 else series, self.order
        )

    def _predict_batch(self, frames: np.ndarray) -> np.ndarray:
        p = self.order
        if frames.shape[1] < p:
            raise DataError(
                f"AR({p}) needs frames of at least {p} values, "
                f"got {frames.shape[1]}"
            )
        phi = self.coefficients_
        mu = self.mean_
        # frames[:, -1] is Z_{t-1} (multiplied by psi_1), so reverse the
        # trailing p columns to align lag order with the coefficients.
        lagged = frames[:, -1 : -p - 1 : -1]
        return mu + (lagged - mu) @ phi

    def state_dict(self) -> dict:
        self._require_ready()
        return {
            "coefficients": np.asarray(self.coefficients_),
            "noise_variance": float(self.noise_variance_),  # type: ignore[arg-type]
            "mean": float(self.mean_),  # type: ignore[arg-type]
        }

    def load_state_dict(self, state: dict) -> None:
        coeffs = np.asarray(state["coefficients"], dtype=np.float64)
        if coeffs.shape != (self.order,):
            raise DataError(
                f"AR state has {coeffs.shape[0]} coefficients but the "
                f"predictor has order {self.order}"
            )
        self.coefficients_ = coeffs
        self.noise_variance_ = float(state["noise_variance"])
        self.mean_ = float(state["mean"])
        self._fitted = True

    def reset(self) -> None:
        super().reset()
        self.coefficients_ = None
        self.noise_variance_ = None
        self.mean_ = None

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"ARPredictor(order={self.order}, {state})"
