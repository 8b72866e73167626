"""Unit tests for LARPredictor persistence."""

import json

import numpy as np
import pytest

from repro.core import LARConfig, LARPredictor, load_larpredictor, save_larpredictor
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.learn.centroid import NearestCentroidClassifier
from repro.learn.logistic import SoftmaxClassifier
from repro.learn.naive_bayes import GaussianNBClassifier
from repro.learn.tree import DecisionTreeClassifier
from repro.traces.synthetic import conflict_series


def _rewrite_meta(path, edit):
    """Rewrite an archive's JSON metadata in place through *edit*."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta)
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _pre_8_knn_spec(meta):
    """Give the k-NN spec the backend keys archives carried before 8.0."""
    meta["classifier"].update(algorithm="kd_tree", leaf_size=16)


@pytest.fixture(scope="module")
def series():
    return conflict_series(600, seed=9)


@pytest.fixture
def trained(series):
    return LARPredictor(LARConfig(window=5)).train(series[:300])


class TestRoundtrip:
    def test_predictions_identical(self, trained, series, tmp_path):
        path = tmp_path / "model.npz"
        save_larpredictor(trained, path)
        back = load_larpredictor(path)
        np.testing.assert_allclose(
            trained.predict_series(series[300:]), back.predict_series(series[300:])
        )

    def test_forecast_identical(self, trained, series, tmp_path):
        path = tmp_path / "model.npz"
        save_larpredictor(trained, path)
        back = load_larpredictor(path)
        a, b = trained.forecast(series), back.forecast(series)
        assert a.value == b.value
        assert a.predictor_label == b.predictor_label

    def test_evaluate_identical(self, trained, series, tmp_path):
        path = tmp_path / "model.npz"
        save_larpredictor(trained, path)
        back = load_larpredictor(path)
        a = trained.evaluate(series[300:])
        b = back.evaluate(series[300:])
        assert a.mse == pytest.approx(b.mse)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_config_preserved(self, series, tmp_path):
        cfg = LARConfig(window=8, n_components=3, k=5)
        lar = LARPredictor(cfg).train(series[:300])
        save_larpredictor(lar, tmp_path / "m.npz")
        back = load_larpredictor(tmp_path / "m.npz")
        assert back.config == cfg

    def test_extended_pool_roundtrip(self, series, tmp_path):
        lar = LARPredictor(LARConfig(window=6, extended_pool=True))
        lar.train(series[:300])
        save_larpredictor(lar, tmp_path / "ext.npz")
        back = load_larpredictor(tmp_path / "ext.npz")
        np.testing.assert_allclose(
            lar.predict_series(series[300:]), back.predict_series(series[300:])
        )

    @pytest.mark.parametrize(
        "classifier",
        [GaussianNBClassifier(), NearestCentroidClassifier(),
         DecisionTreeClassifier(max_depth=4), SoftmaxClassifier()],
        ids=["nb", "centroid", "tree", "softmax"],
    )
    def test_alternative_classifiers(self, classifier, series, tmp_path):
        lar = LARPredictor(LARConfig(window=5), classifier=classifier)
        lar.train(series[:300])
        save_larpredictor(lar, tmp_path / "c.npz")
        back = load_larpredictor(tmp_path / "c.npz")
        np.testing.assert_array_equal(
            lar.evaluate(series[300:]).labels, back.evaluate(series[300:]).labels
        )

    def test_pre_8_knn_spec_loads(self, trained, series, tmp_path):
        """Specs written before 8.0 name a k-NN backend and leaf size;
        both are ignored and the model forecasts as saved."""
        path = tmp_path / "old.npz"
        save_larpredictor(trained, path)
        _rewrite_meta(path, _pre_8_knn_spec)
        back = load_larpredictor(path)
        np.testing.assert_array_equal(
            trained.predict_series(series[300:]), back.predict_series(series[300:])
        )
        assert trained.forecast(series) == back.forecast(series)

    def test_name_without_npz_suffix(self, trained, tmp_path):
        # np.savez appends .npz; loading by the original name must work.
        save_larpredictor(trained, tmp_path / "model")
        back = load_larpredictor(tmp_path / "model")
        assert back.is_trained


class TestErrors:
    def test_untrained_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_larpredictor(LARPredictor(), tmp_path / "x.npz")

    def test_custom_pool_rejected(self, series, tmp_path):
        from repro.predictors import (
            ARPredictor,
            LastValuePredictor,
            PredictorPool,
            SlidingWindowAveragePredictor,
            WindowMedianPredictor,
        )

        pool = PredictorPool(
            [LastValuePredictor(), ARPredictor(order=5),
             SlidingWindowAveragePredictor(), WindowMedianPredictor()]
        )
        lar = LARPredictor(LARConfig(window=5), pool=pool).train(series[:300])
        with pytest.raises(ConfigurationError, match="pool"):
            save_larpredictor(lar, tmp_path / "x.npz")

    def test_garbage_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(DataError):
            load_larpredictor(path)

    def test_version_mismatch_rejected(self, trained, tmp_path):
        path = tmp_path / "old.npz"
        save_larpredictor(trained, path)
        _rewrite_meta(path, lambda meta: meta.update(format_version=999))
        with pytest.raises(DataError, match="format"):
            load_larpredictor(path)


class TestOnlineRoundtrip:
    def streamed(self, series, **kwargs):
        from repro.core.online import OnlineLARPredictor

        online = OnlineLARPredictor(LARConfig(window=5), **kwargs)
        online.train(series[:300])
        for v in series[300:380]:
            online.observe(v)
        return online

    def test_forecasts_identical(self, series, tmp_path):
        from repro.core import load_online_larpredictor, save_online_larpredictor

        online = self.streamed(series)
        path = tmp_path / "online.npz"
        save_online_larpredictor(online, path)
        back = load_online_larpredictor(path)
        fa, fb = online.forecast(), back.forecast()
        assert fa.value == fb.value
        assert fa.predictor_label == fb.predictor_label

    def test_restored_stream_keeps_learning_identically(self, series, tmp_path):
        from repro.core import load_online_larpredictor, save_online_larpredictor

        online = self.streamed(series, max_memory=200, history_limit=400)
        save_online_larpredictor(online, tmp_path / "online.npz")
        back = load_online_larpredictor(tmp_path / "online.npz")
        assert back.memory_size == online.memory_size
        assert back.history_length == online.history_length
        assert back.windows_learned_online == online.windows_learned_online
        for v in series[380:440]:
            assert online.observe(v) == back.observe(v)
        assert online.forecast().value == back.forecast().value

    def test_pre_8_knn_spec_loads(self, series, tmp_path):
        from repro.core import load_online_larpredictor, save_online_larpredictor

        online = self.streamed(series, max_memory=200)
        path = tmp_path / "old.npz"
        save_online_larpredictor(online, path)
        _rewrite_meta(path, _pre_8_knn_spec)
        back = load_online_larpredictor(path)
        assert back.forecast() == online.forecast()
        for v in series[380:440]:
            assert online.observe(v) == back.observe(v)
            assert online.forecast() == back.forecast()

    def test_untrained_rejected(self, tmp_path):
        from repro.core import OnlineLARPredictor, save_online_larpredictor

        with pytest.raises(NotFittedError):
            save_online_larpredictor(OnlineLARPredictor(), tmp_path / "x.npz")

    def test_wrong_type_rejected(self, trained, tmp_path):
        from repro.core import save_online_larpredictor

        with pytest.raises(ConfigurationError):
            save_online_larpredictor(trained, tmp_path / "x.npz")

    def test_kind_guards_both_directions(self, trained, series, tmp_path):
        from repro.core import (
            load_larpredictor,
            load_online_larpredictor,
            save_larpredictor,
            save_online_larpredictor,
        )

        batch_path = tmp_path / "batch.npz"
        online_path = tmp_path / "online.npz"
        save_larpredictor(trained, batch_path)
        save_online_larpredictor(self.streamed(series), online_path)
        with pytest.raises(DataError):
            load_online_larpredictor(batch_path)
        with pytest.raises(DataError):
            load_larpredictor(online_path)
