"""Unit tests for the StrategyRunner."""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.runner import StrategyRunner, build_pipeline, build_pool, default_strategies
from repro.exceptions import ConfigurationError, DataError
from repro.selection.learned import LearnedSelection
from repro.selection.static import StaticSelection


class TestBuilders:
    def test_build_pool_paper(self):
        pool = build_pool(LARConfig(window=6))
        assert pool.names == ("LAST", "AR", "SW_AVG")
        assert pool.by_name("AR").order == 6

    def test_build_pool_extended(self):
        pool = build_pool(LARConfig(window=6, extended_pool=True))
        assert len(pool) == 10

    def test_build_pipeline_window(self):
        pipe = build_pipeline(LARConfig(window=7))
        assert pipe.window == 7

    def test_default_strategies_cover_paper_set(self):
        pool = build_pool(LARConfig())
        names = [s.name for s in default_strategies(pool)]
        assert names[:4] == ["LAR", "P-LAR", "Cum.MSE", "W-Cum.MSE[2]"]
        assert "STATIC[LAST]" in names and "STATIC[AR]" in names


class TestFit:
    def test_too_short_training(self):
        r = StrategyRunner(LARConfig(window=5))
        with pytest.raises(DataError):
            r.fit(np.arange(6.0))

    def test_fit_marks_ready(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5))
        assert not r.is_fitted
        r.fit(smooth_series[:100])
        assert r.is_fitted
        assert len(r.train_data) == 95

    def test_train_data_before_fit_raises(self):
        with pytest.raises(ConfigurationError):
            StrategyRunner().train_data

    def test_refit_resets_pool(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5))
        r.fit(smooth_series[:100])
        first_coeffs = r.pool.by_name("AR").coefficients_.copy()
        r.fit(smooth_series[100:300])
        assert not np.array_equal(first_coeffs, r.pool.by_name("AR").coefficients_)


class TestEvaluate:
    def test_result_alignment(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        result = r.evaluate(smooth_series[200:], LearnedSelection())
        assert result.n_steps == len(smooth_series[200:]) - 5
        assert result.strategy == "LAR"

    def test_static_result_matches_manual(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        prepared = r.prepare_test(smooth_series[200:])
        result = r.evaluate(None, StaticSelection("SW_AVG"), prepared=prepared)
        manual = prepared.frames.mean(axis=1)
        np.testing.assert_allclose(result.predictions, manual)

    def test_evaluate_all_shares_split(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        ev = r.evaluate_all(
            smooth_series[200:], default_strategies(r.pool), trace_id="t"
        )
        steps = {res.n_steps for res in ev.results.values()}
        assert len(steps) == 1
        targets = [res.targets for res in ev.results.values()]
        for t in targets[1:]:
            np.testing.assert_array_equal(targets[0], t)

    def test_evaluate_all_labels_the_oracle_once(self, smooth_series, monkeypatch):
        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        # LAR and P-LAR call best_labels themselves; leave them out so
        # every call counted is the runner's.
        strategies = [
            s for s in default_strategies(r.pool) if s.name not in ("LAR", "P-LAR")
        ]
        calls = []
        original = r.pool.best_labels

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(r.pool, "best_labels", counting)
        ev = r.evaluate_all(smooth_series[200:], strategies)
        assert len(calls) == 1
        shared = [res.best_labels for res in ev.results.values()]
        assert len(shared) == len(strategies)
        assert all(labels is shared[0] for labels in shared)
        assert not shared[0].flags.writeable

    def test_evaluate_all_matches_per_strategy_evaluate(self, smooth_series):
        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        ev = r.evaluate_all(smooth_series[200:], default_strategies(r.pool))
        prepared = r.prepare_test(smooth_series[200:])
        for strategy in default_strategies(r.pool):
            alone = r.evaluate(None, strategy, prepared=prepared)
            shared = ev.results[strategy.name]
            for field in ("labels", "predictions", "targets", "best_labels"):
                np.testing.assert_array_equal(
                    getattr(shared, field), getattr(alone, field)
                )
            assert shared.mse == alone.mse
            assert shared.forecast_accuracy == alone.forecast_accuracy

    def test_bad_strategy_label_count(self, smooth_series):
        class Broken(StaticSelection):
            def select(self, pool, test):
                return np.ones(3, dtype=np.int64)

        r = StrategyRunner(LARConfig(window=5)).fit(smooth_series[:200])
        with pytest.raises(ConfigurationError, match="labels"):
            r.evaluate(smooth_series[200:], Broken("LAST"))

    def test_custom_pool_used(self, smooth_series):
        from repro.predictors.last import LastValuePredictor
        from repro.predictors.pool import PredictorPool
        from repro.predictors.sw_avg import SlidingWindowAveragePredictor

        pool = PredictorPool([LastValuePredictor(), SlidingWindowAveragePredictor()])
        r = StrategyRunner(LARConfig(window=5), pool=pool)
        r.fit(smooth_series[:200])
        result = r.evaluate(smooth_series[200:], StaticSelection("SW_AVG"))
        assert (result.labels == 2).all()
