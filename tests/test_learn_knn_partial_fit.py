"""Unit tests for the k-NN incremental-learning path."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.learn.knn import KNNClassifier


def _base():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    y = np.array([1, 1, 2, 2])
    return KNNClassifier(k=1).fit(X, y)


class TestPartialFit:
    def test_appended_points_are_found(self):
        clf = _base()
        clf.partial_fit([[10.0, 10.0]], [3])
        assert clf.predict_one([10.1, 10.0]) == 3
        assert clf.n_samples_ == 5

    def test_equivalent_to_full_fit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2))
        y = rng.integers(1, 4, 60)
        incremental = KNNClassifier(k=3).fit(X[:30], y[:30])
        for i in range(30, 60):
            incremental.partial_fit(X[i], y[i])
        full = KNNClassifier(k=3).fit(X, y)
        queries = rng.standard_normal((40, 2))
        np.testing.assert_array_equal(
            incremental.predict(queries), full.predict(queries)
        )

    def test_new_class_registered(self):
        clf = _base()
        clf.partial_fit([[20.0, 20.0]], [9])
        assert 9 in clf.classes_

    def test_requires_initial_fit(self):
        with pytest.raises(NotFittedError):
            KNNClassifier(k=1).partial_fit([[0.0, 0.0]], [1])

    def test_feature_mismatch(self):
        clf = _base()
        with pytest.raises(ConfigurationError):
            clf.partial_fit([[1.0, 2.0, 3.0]], [1])

    def test_label_count_mismatch(self):
        clf = _base()
        with pytest.raises(ConfigurationError):
            clf.partial_fit([[1.0, 2.0]], [1, 2])

    def test_non_integer_labels(self):
        clf = _base()
        with pytest.raises(ConfigurationError):
            clf.partial_fit([[1.0, 2.0]], [1.5])

    def test_appends_amortized_no_full_copy_per_step(self):
        """The memory buffer must not be reallocated on every append."""
        clf = _base()
        buffers = set()
        for i in range(200):
            clf.partial_fit([[float(i), 0.0]], [1])
            buffers.add(id(clf._Xbuf))
        # Capacity doubling: ~log2(200) distinct buffers, not ~200.
        assert len(buffers) <= 8
        assert clf.n_samples_ == 204


class TestDiscardOldest:
    def _grown(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 2))
        y = rng.integers(1, 4, 40)
        return KNNClassifier(k=3).fit(X[:10], y[:10]), X, y

    def test_drops_the_oldest_rows(self):
        clf, X, y = self._grown()
        for i in range(10, 40):
            clf.partial_fit(X[i], y[i])
        clf.discard_oldest(25)
        assert clf.n_samples_ == 15
        np.testing.assert_array_equal(clf._X, X[25:])
        np.testing.assert_array_equal(clf._y, y[25:])

    def test_counters_track_absolute_indices(self):
        clf, X, y = self._grown()
        assert (clf.appended_total_, clf.discarded_total_) == (10, 0)
        for i in range(10, 30):
            clf.partial_fit(X[i], y[i])
        clf.discard_oldest(7)
        assert (clf.appended_total_, clf.discarded_total_) == (30, 7)

    def test_must_keep_k_samples(self):
        clf, _, _ = self._grown()
        with pytest.raises(ConfigurationError):
            clf.discard_oldest(8)  # 10 - 8 < k = 3

    def test_classes_shrink_when_a_label_dies_out(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        clf = KNNClassifier(k=1).fit(X, np.array([9, 1, 1, 1]))
        assert list(clf.classes_) == [1, 9]
        clf.discard_oldest(1)
        assert list(clf.classes_) == [1]

    def test_sliding_window_predictions_match_fresh_fit(self):
        """Interleaved append/discard (the fleet's eviction pattern) must
        stay equivalent to refitting on the surviving rows — including
        after enough churn to force buffer compaction."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((600, 2))
        y = rng.integers(1, 4, 600)
        clf = KNNClassifier(k=3).fit(X[:50], y[:50])
        for i in range(50, 600):
            clf.partial_fit(X[i], y[i])
            if clf.n_samples_ > 50:
                clf.discard_oldest(clf.n_samples_ - 50)
        np.testing.assert_array_equal(clf._X, X[550:])
        fresh = KNNClassifier(k=3).fit(X[550:], y[550:])
        queries = rng.standard_normal((25, 2))
        np.testing.assert_array_equal(
            clf.predict(queries), fresh.predict(queries)
        )
