"""Unit tests for LARConfig and the result containers."""

import math

import numpy as np
import pytest

from repro.core.config import LARConfig, PAPER_WINDOW_LONG, PAPER_WINDOW_SHORT
from repro.core.results import StrategyResult, TraceEvaluation
from repro.exceptions import ConfigurationError, DataError


class TestLARConfig:
    def test_paper_defaults(self):
        cfg = LARConfig()
        assert cfg.window == PAPER_WINDOW_SHORT == 5
        assert cfg.n_components == 2
        assert cfg.k == 3
        assert cfg.effective_ar_order == 5

    def test_paper_long(self):
        assert LARConfig.paper_long().window == PAPER_WINDOW_LONG == 16

    def test_explicit_ar_order(self):
        cfg = LARConfig(window=8, ar_order=4)
        assert cfg.effective_ar_order == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"window": 2.5},
            {"n_components": 0},
            {"window": 4, "n_components": 5},
            {"n_components": 2, "min_variance": 0.9},
            {"min_variance": 1.5},
            {"k": 2},
            {"k": 0},
            {"ar_order": 0},
            {"window": 4, "ar_order": 5},
            {"k": True},
            {"ar_order": True},
            {"n_components": True},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            LARConfig(**{"n_components": None, **kwargs} if "min_variance" in kwargs else kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("window", 8), ("n_components", 2), ("k", 5), ("ar_order", 4)],
    )
    def test_numpy_integer_counts_are_stored_as_int(self, field, value):
        cfg = LARConfig(**{"window": 8, field: np.int64(value)})
        assert type(getattr(cfg, field)) is int
        assert getattr(cfg, field) == value

    def test_with_replaces_and_revalidates(self):
        cfg = LARConfig()
        assert cfg.with_(window=7).window == 7
        with pytest.raises(ConfigurationError):
            cfg.with_(k=4)

    def test_frozen(self):
        with pytest.raises(Exception):
            LARConfig().window = 9


def _result(labels, predictions, targets, best, strategy="LAR", parallel=False):
    return StrategyResult(
        strategy=strategy,
        labels=np.asarray(labels, dtype=np.int64),
        predictions=np.asarray(predictions, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.float64),
        best_labels=np.asarray(best, dtype=np.int64),
        runs_pool_in_parallel=parallel,
    )


class TestStrategyResult:
    def test_metrics(self):
        r = _result([1, 2], [0.0, 0.0], [1.0, 2.0], [1, 1])
        assert r.mse == pytest.approx(2.5)
        assert r.forecast_accuracy == 0.5
        assert r.n_steps == 2

    def test_shape_validation(self):
        with pytest.raises(DataError):
            _result([1], [0.0, 0.0], [1.0, 2.0], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            _result([], [], [], [])

    def test_selection_counts(self):
        r = _result([1, 1, 3], [0.0] * 3, [0.0] * 3, [1, 1, 1])
        np.testing.assert_array_equal(r.selection_counts(3), [2, 0, 1])
        np.testing.assert_allclose(r.selection_fractions(3), [2 / 3, 0, 1 / 3])

    def test_selection_counts_bad_pool_size(self):
        r = _result([1, 3], [0.0] * 2, [0.0] * 2, [1, 1])
        with pytest.raises(DataError):
            r.selection_counts(2)

    def test_predictor_executions(self):
        serial = _result([1] * 4, [0.0] * 4, [0.0] * 4, [1] * 4)
        parallel = _result([1] * 4, [0.0] * 4, [0.0] * 4, [1] * 4, parallel=True)
        assert serial.predictor_executions(3) == 4
        assert parallel.predictor_executions(3) == 12


class TestTraceEvaluation:
    def _eval(self):
        ev = TraceEvaluation(trace_id="t", pool_names=("LAST", "AR", "SW_AVG"))
        ev.add(_result([1], [0.5], [1.0], [1], strategy="LAR"))
        ev.add(_result([1], [0.2], [1.0], [1], strategy="STATIC[AR]"))
        ev.add(_result([1], [0.0], [1.0], [1], strategy="STATIC[LAST]"))
        ev.add(_result([1], [0.4], [1.0], [1], strategy="Cum.MSE"))
        return ev

    def test_best_static(self):
        # STATIC[AR] predicts 0.2 against 1.0 -> mse 0.64;
        # STATIC[LAST] predicts 0.0 -> mse 1.0. AR wins.
        name, mse = self._eval().best_static()
        assert name == "AR"
        assert mse == pytest.approx(0.64)

    def test_lar_beats_best_static_comparison(self):
        ev = self._eval()
        # LAR mse = 0.25; best static = STATIC[AR] with 0.64.
        assert ev.lar_beats_best_static()

    def test_lar_beats_other(self):
        ev = self._eval()
        assert ev.lar_beats("Cum.MSE")  # 0.25 < 0.36

    def test_no_static_raises(self):
        ev = TraceEvaluation(trace_id="t")
        ev.add(_result([1], [0.0], [1.0], [1], strategy="LAR"))
        with pytest.raises(DataError):
            ev.best_static()

    def test_summary_row(self):
        row = self._eval().summary_row()
        assert set(row) == {"LAR", "STATIC[AR]", "STATIC[LAST]", "Cum.MSE"}

    def test_contains_and_getitem(self):
        ev = self._eval()
        assert "LAR" in ev
        assert ev["LAR"].strategy == "LAR"
