"""Execution of selection strategies over a train/test split.

The runner owns the orchestration the paper's Figure 2 describes: fit the
pre-processing pipeline and the pool on the training half, fit each
strategy, then drive the test half through each strategy and package
:class:`~repro.core.results.StrategyResult` objects. Evaluating several
strategies on the *same* split through one runner guarantees the
comparisons in Tables 2/3 and Figure 6 are apples-to-apples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import LARConfig
from repro.core.results import StrategyResult, TraceEvaluation
from repro.exceptions import ConfigurationError
from repro.predictors.pool import PredictorPool
from repro.preprocess.pipeline import PreparedData, PreprocessPipeline
from repro.selection.base import SelectionStrategy
from repro.util.validation import as_series

__all__ = ["StrategyRunner", "build_pool", "build_pipeline", "default_strategies"]


def build_pool(config: LARConfig) -> PredictorPool:
    """Construct the pool a configuration asks for (paper or extended)."""
    order = config.effective_ar_order
    if config.extended_pool:
        return PredictorPool.extended_pool(ar_order=order)
    return PredictorPool.paper_pool(ar_order=order)


def build_pipeline(config: LARConfig) -> PreprocessPipeline:
    """Construct the pre-processing pipeline for a configuration."""
    return PreprocessPipeline(
        config.window,
        n_components=config.n_components,
        min_variance=config.min_variance,
    )


class StrategyRunner:
    """Fit once, evaluate many strategies on one train/test split.

    Parameters
    ----------
    config:
        The pipeline configuration (window, PCA, k, pool).
    pool:
        Optional pre-built pool; by default :func:`build_pool` makes one
        from the config. Pass a custom pool to evaluate custom predictor
        mixes.

    Usage
    -----
    >>> runner = StrategyRunner(LARConfig(window=5))
    >>> runner.fit(train_series)                        # doctest: +SKIP
    >>> result = runner.evaluate(test_series, LearnedSelection())  # doctest: +SKIP
    """

    def __init__(self, config: LARConfig | None = None, *, pool: PredictorPool | None = None):
        self.config = config if config is not None else LARConfig()
        self.pool = pool if pool is not None else build_pool(self.config)
        self.pipeline = build_pipeline(self.config)
        self._train: PreparedData | None = None

    # -- training phase --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._train is not None

    @property
    def train_data(self) -> PreparedData:
        """The prepared training data (raises before :meth:`fit`)."""
        if self._train is None:
            raise ConfigurationError("StrategyRunner.fit has not been called")
        return self._train

    def fit(self, train_series) -> "StrategyRunner":
        """Run the training phase: pipeline, pool, nothing strategy-specific.

        The minimum training length is ``window + 2``: at least one
        (frame, target) pair must exist and the AR fit needs
        ``order + 1`` points.
        """
        series = as_series(
            train_series, name="train_series", min_length=self.config.window + 2
        )
        self.pipeline.fit(series)
        normalized = self.pipeline.normalizer.transform(series)
        self.pool.reset()
        self.pool.fit(normalized)
        self._train = self.pipeline.prepare(series)
        return self

    # -- testing phase -----------------------------------------------------------

    def prepare_test(self, test_series) -> PreparedData:
        """Pre-process a test series with the frozen training pipeline."""
        series = as_series(
            test_series, name="test_series", min_length=self.config.window + 1
        )
        return self.pipeline.prepare(series)

    def evaluate(
        self,
        test_series,
        strategy: SelectionStrategy,
        *,
        prepared: PreparedData | None = None,
    ) -> StrategyResult:
        """Fit *strategy* on the training data and run it over the test data.

        Parameters
        ----------
        prepared:
            Pass the output of :meth:`prepare_test` to amortize
            pre-processing across several strategies on the same series.
        """
        train = self.train_data
        test = prepared if prepared is not None else self.prepare_test(test_series)
        return self._evaluate(strategy, train, test, self._best_labels(test))

    def evaluate_all(
        self,
        test_series,
        strategies: Iterable[SelectionStrategy],
        *,
        trace_id: str = "trace",
    ) -> TraceEvaluation:
        """Evaluate several strategies on one shared test split.

        The oracle labels of the split are computed once and shared,
        read-only, by every strategy's result.
        """
        prepared = self.prepare_test(test_series)
        train = self.train_data
        best_labels = self._best_labels(prepared)
        evaluation = TraceEvaluation(trace_id=trace_id, pool_names=self.pool.names)
        for strategy in strategies:
            evaluation.add(self._evaluate(strategy, train, prepared, best_labels))
        return evaluation

    def _best_labels(self, test: PreparedData) -> np.ndarray:
        labels = self.pool.best_labels(test.frames, test.targets)
        labels.flags.writeable = False
        return labels

    def _evaluate(
        self,
        strategy: SelectionStrategy,
        train: PreparedData,
        test: PreparedData,
        best_labels: np.ndarray,
    ) -> StrategyResult:
        strategy.fit(self.pool, train)
        labels = strategy.select(self.pool, test)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (len(test),):
            raise ConfigurationError(
                f"strategy {strategy.name!r} returned {labels.shape} labels "
                f"for {len(test)} test steps"
            )
        predictions = self.pool.predict_with_labels(test.frames, labels)
        return StrategyResult(
            strategy=strategy.name,
            labels=labels,
            predictions=predictions,
            targets=np.asarray(test.targets),
            best_labels=best_labels,
            runs_pool_in_parallel=strategy.runs_pool_in_parallel,
        )

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"StrategyRunner(config={self.config!r}, {state})"


def default_strategies(pool: PredictorPool) -> Sequence[SelectionStrategy]:
    """The paper's standard comparison set for a given pool.

    LAR (3-NN), the P-LAR oracle, NWS Cum.MSE, W-Cum.MSE (window 2), and
    one static strategy per pool member.
    """
    from repro.selection.cumulative_mse import CumulativeMSESelector
    from repro.selection.learned import LearnedSelection
    from repro.selection.oracle import OracleSelection
    from repro.selection.static import StaticSelection

    strategies: list[SelectionStrategy] = [
        LearnedSelection(),
        OracleSelection(),
        # Cold start: the NWS protocol runs live over the test period
        # (the paper's LARPredictor only uses parallel prediction during
        # training, §6.2 — the NWS baseline has no training phase).
        CumulativeMSESelector(warm_start=False),
        CumulativeMSESelector(window=2, warm_start=False),
    ]
    strategies.extend(StaticSelection(name) for name in pool.names)
    return strategies
