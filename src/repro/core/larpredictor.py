"""The LARPredictor — the user-facing facade over the whole workflow.

This is the object Figure 1 labels "LARPredictor": train it on a
performance history, then either evaluate it over a held-out series
(batch, how the paper's experiments run) or feed it a live history one
step at a time (streaming, how the resource manager consumes it),
optionally under the Prediction Quality Assuror's retraining regime.

Under the hood it is a thin composition of
:class:`~repro.core.runner.StrategyRunner` (pipeline + pool) and
:class:`~repro.selection.learned.LearnedSelection` (PCA + k-NN
forecasting of the best member).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LARConfig
from repro.core.qa import PredictionQualityAssuror
from repro.core.results import StrategyResult
from repro.core.runner import StrategyRunner
from repro.exceptions import ConfigurationError, InsufficientDataError, NotFittedError
from repro.learn.base import Classifier
from repro.predictors.pool import PredictorPool
from repro.selection.learned import LearnedSelection
from repro.util.validation import as_series

__all__ = ["LARPredictor", "Forecast"]


@dataclass(frozen=True, slots=True)
class Forecast:
    """One streaming forecast.

    Attributes
    ----------
    value:
        Predicted next value in the **original** (de-normalized) scale.
    normalized_value:
        The same prediction in the normalized space.
    predictor_label:
        1-based pool label of the member that produced it.
    predictor_name:
        That member's name.
    """

    value: float
    normalized_value: float
    predictor_label: int
    predictor_name: str


class LARPredictor:
    """Learning-Aided adaptive Resource Predictor.

    Parameters
    ----------
    config:
        Pipeline configuration; defaults to the paper's short-trace
        setup (m = 5, n = 2, k = 3, pool = LAST/AR/SW_AVG).
    classifier:
        Optional replacement for the 3-NN best-predictor forecaster (any
        :class:`repro.learn.base.Classifier`).
    pool:
        Optional custom predictor pool.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> series = np.sin(np.arange(400) / 6.0) + 0.1 * rng.standard_normal(400)
    >>> lar = LARPredictor().train(series[:200])
    >>> result = lar.evaluate(series[200:])
    >>> result.mse < 1.0
    True
    """

    def __init__(
        self,
        config: LARConfig | None = None,
        *,
        classifier: Classifier | None = None,
        pool: PredictorPool | None = None,
    ):
        self.config = config if config is not None else LARConfig()
        self._runner = StrategyRunner(self.config, pool=pool)
        self._selection = LearnedSelection(classifier)
        self._trained = False

    # -- introspection -----------------------------------------------------

    @property
    def pool(self) -> PredictorPool:
        """The predictor pool being selected from."""
        return self._runner.pool

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has completed."""
        return self._trained

    @property
    def training_labels_(self) -> np.ndarray:
        """Ground-truth best-predictor labels of the training frames."""
        self._require_trained()
        return self._selection.training_labels_  # type: ignore[return-value]

    # -- training phase -------------------------------------------------------

    def train(self, series) -> "LARPredictor":
        """Run the full training phase (§6.1) on a performance history.

        Fits the normalizer, PCA basis, every pool member, and the
        best-predictor classifier. Needs at least ``window + 2`` values.
        """
        self._runner.fit(series)
        self._selection.fit(self.pool, self._runner.train_data)
        self._trained = True
        return self

    def retrain(self, recent_series) -> "LARPredictor":
        """Re-train on recent data (the QA-ordered path, §3.2)."""
        self._trained = False
        return self.train(recent_series)

    # -- batch testing phase -------------------------------------------------------

    def evaluate(self, test_series) -> StrategyResult:
        """Run the testing phase (§6.2) over a held-out series.

        Returns a :class:`~repro.core.results.StrategyResult` whose
        predictions and targets are in the normalized space.
        """
        self._require_trained()
        return self._runner.evaluate(test_series, self._selection)

    def predict_series(self, test_series) -> np.ndarray:
        """Forecasts for a held-out series, de-normalized to the original scale.

        The i-th output predicts ``test_series[i + window]`` from the
        preceding ``window`` values.
        """
        self._require_trained()
        prepared = self._runner.prepare_test(test_series)
        labels = self._selection.select(self.pool, prepared)
        normalized = self.pool.predict_with_labels(prepared.frames, labels)
        return self._runner.pipeline.normalizer.inverse_transform(normalized)

    # -- streaming phase ----------------------------------------------------------

    def forecast(self, history) -> Forecast:
        """Forecast the next value from a live history (streaming path).

        Only the classifier-selected pool member executes — the
        operational saving that distinguishes the LARPredictor from the
        NWS approach.

        Parameters
        ----------
        history:
            The most recent measurements, at least ``window`` of them
            (only the trailing window is used).
        """
        self._require_trained()
        h = as_series(history, name="history")
        if h.size < self.config.window:
            raise InsufficientDataError(self.config.window, h.size, what="history")
        frame, feature = self._runner.pipeline.prepare_tail(h)
        label = self._selection.select_one(feature)
        member = self.pool.by_label(label)
        normalized_value = member.predict_next(frame)
        value = self._runner.pipeline.normalizer.inverse_transform_value(
            normalized_value
        )
        return Forecast(
            value=float(value),
            normalized_value=float(normalized_value),
            predictor_label=int(label),
            predictor_name=member.name,
        )

    def forecast_horizon(self, history, horizon: int) -> list[Forecast]:
        """Iterated multi-step forecast: predict ``horizon`` values ahead.

        The paper's predictor is one-step-ahead; resource managers plan
        further out. This iterates the one-step machine: each forecast
        is appended to the working history and the classifier re-selects
        for the next step, so the *selected predictor may change along
        the horizon* (e.g. LAST for the immediate step, SW_AVG further
        out as uncertainty grows — the standard behaviour of iterated
        forecasts).

        Forecast errors compound with the horizon; treat far steps as
        trend indications, not point predictions.

        Parameters
        ----------
        history:
            At least ``window`` recent measurements.
        horizon:
            Number of future steps to forecast (>= 1).
        """
        self._require_trained()
        horizon = int(horizon)
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        h = as_series(history, name="history")
        if h.size < self.config.window:
            raise InsufficientDataError(self.config.window, h.size, what="history")
        working = h[-self.config.window :].copy()
        out: list[Forecast] = []
        for _ in range(horizon):
            fc = self.forecast(working)
            out.append(fc)
            working = np.append(working[1:], fc.value)
        return out

    def run_with_qa(
        self,
        stream,
        qa: PredictionQualityAssuror,
        *,
        retrain_window: int | None = None,
    ) -> list[Forecast]:
        """Drive a measurement stream under QA supervision (Figure 1 loop).

        For each step beyond the first ``window`` measurements: forecast
        the next value, then record the (forecast, observation) pair with
        the QA once the observation arrives. When the QA latches a
        breach, re-train on the most recent *retrain_window* measurements
        (default: all seen so far) and continue.

        Returns the forecast made at every step.
        """
        self._require_trained()
        values = as_series(stream, name="stream")
        w = self.config.window
        if values.size <= w:
            raise InsufficientDataError(w + 1, values.size, what="stream")
        # A retrain on L values yields L - window (frame, label) pairs
        # and the k-NN selector needs at least k of them — the same
        # floor FleetConfig enforces for its retrain_window.
        min_retrain = w + max(self.config.k, 2)
        if retrain_window is not None:
            retrain_window = int(retrain_window)
            if retrain_window < min_retrain:
                raise ConfigurationError(
                    f"retrain_window must be >= {min_retrain} "
                    f"(window + max(k, 2)), got {retrain_window}"
                )
        forecasts: list[Forecast] = []
        for t in range(w, values.size):
            # forecast() only reads the trailing window, so hand it just
            # that slice — values[:t] made every step O(t) and the whole
            # drive O(T^2).
            fc = self.forecast(values[t - w : t])
            forecasts.append(fc)
            # Audit in the normalized space so the QA threshold has the
            # trace-independent "1.0 == mean predictor" scale.
            observed_norm = self._runner.pipeline.normalizer.transform_value(
                values[t]
            )
            qa.record(fc.normalized_value, observed_norm)
            if qa.retraining_due:
                start = 0 if retrain_window is None else max(0, t - retrain_window)
                recent = values[start : t + 1]
                if recent.size >= min_retrain:
                    self.retrain(recent)
                qa.acknowledge_retraining()
        return forecasts

    # -- internals -------------------------------------------------------------

    def _require_trained(self) -> None:
        if not self._trained:
            raise NotFittedError("LARPredictor.train must be called first")

    def __repr__(self) -> str:
        state = "trained" if self._trained else "untrained"
        return (
            f"LARPredictor(window={self.config.window}, "
            f"pool={list(self.pool.names)}, {state})"
        )
