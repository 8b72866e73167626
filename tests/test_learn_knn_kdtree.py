"""Unit tests for the k-NN classifier and its one exact search."""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.learn import knn
from repro.learn.knn import KNNClassifier


def _two_blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 2)) + [-4.0, 0.0]
    b = rng.standard_normal((n, 2)) + [4.0, 0.0]
    X = np.vstack([a, b])
    y = np.array([1] * n + [2] * n)
    return X, y


def _assert_duplicates_rank_oldest_first(seed, size, width, n_queries):
    """Brute-force neighbours of memory rows drawn from 60 distinct
    points, one-row and batched, equal an exact ``np.lexsort((index,
    d2))`` reference, in which identical rows share one distance by
    construction."""
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((60, width))
    codes = rng.integers(0, 60, size=size)
    X = distinct[codes]
    y = rng.integers(1, 4, size=size)
    Q = X[rng.integers(0, size, size=n_queries)]
    clf = KNNClassifier(k=3).fit(X, y)
    _, batched = clf.kneighbors(Q)
    order = np.arange(size)
    for i, q in enumerate(Q):
        diff = distinct - q
        d2 = np.einsum("ij,ij->i", diff, diff)[codes]
        expected = np.lexsort((order, d2))[:3]
        np.testing.assert_array_equal(clf.kneighbors(q)[1][0], expected)
        np.testing.assert_array_equal(batched[i], expected)


class TestKNNClassifierConstruction:
    def test_even_k_rejected(self):
        with pytest.raises(ConfigurationError, match="odd"):
            KNNClassifier(k=2)

    def test_k_exceeds_training_set(self):
        with pytest.raises(ConfigurationError):
            KNNClassifier(k=5).fit(np.zeros((3, 2)), [1, 2, 1])


class TestKNNClassifierBehaviour:
    def test_separable_blobs_high_accuracy(self):
        X, y = _two_blobs()
        clf = KNNClassifier(k=3).fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_single_sample_prediction(self):
        X, y = _two_blobs()
        clf = KNNClassifier(k=3).fit(X, y)
        assert clf.predict_one([-4.0, 0.0]) == 1
        assert clf.predict_one([4.0, 0.0]) == 2

    def test_1nn_memorizes_training_data(self):
        X, y = _two_blobs(n=20)
        clf = KNNClassifier(k=1).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            KNNClassifier(k=3).predict(np.zeros((1, 2)))

    def test_kneighbors_sorted_by_distance(self):
        X, y = _two_blobs()
        clf = KNNClassifier(k=5).fit(X, y)
        d, _ = clf.kneighbors(np.zeros((3, 2)))
        assert (np.diff(d, axis=1) >= -1e-12).all()

    def test_k_equal_to_n(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 2])
        clf = KNNClassifier(k=3).fit(X, y)
        # All points are neighbours; majority is 1.
        assert clf.predict_one([5.0]) == 1

    def test_predict_proba_rows_sum_to_one(self):
        X, y = _two_blobs()
        clf = KNNClassifier(k=3).fit(X, y)
        proba = clf.predict_proba(np.zeros((4, 2)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_three_way_tie_resolves_to_nearest(self):
        """k=3 over 3 classes can tie 1-1-1; the nearest neighbour's
        label must win (the documented deterministic rule)."""
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([7, 8, 9])
        clf = KNNClassifier(k=3).fit(X, y)
        assert clf.predict_one([1.1]) == 7
        assert clf.predict_one([2.9]) == 9

    def test_feature_count_mismatch(self):
        X, y = _two_blobs()
        clf = KNNClassifier(k=3).fit(X, y)
        with pytest.raises(DataError):
            clf.predict(np.zeros((2, 5)))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(DataError):
            KNNClassifier(k=1).fit(np.zeros((2, 1)), [0.5, 1.5])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_brute_queries_keep_the_tie_rule(self, seed):
        """A multi-row brute-force batch ranks equidistant duplicates
        oldest first, exactly as one-row queries and an exact
        ``np.lexsort((index, d2))`` reference do."""
        rng = np.random.default_rng(seed)
        distinct = rng.standard_normal((60, 2))
        X = distinct[rng.integers(0, 60, size=2300)]
        y = rng.integers(1, 4, size=2300)
        Q = X[rng.integers(0, 2300, size=400)]
        clf = KNNClassifier(k=3).fit(X, y)
        dist, idx = clf.kneighbors(Q)
        order = np.arange(X.shape[0])
        for i, q in enumerate(Q):
            one_d, one_i = clf.kneighbors(q)
            np.testing.assert_array_equal(idx[i], one_i[0])
            np.testing.assert_array_equal(dist[i], one_d[0])
            diff = X - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            np.testing.assert_array_equal(
                idx[i], np.lexsort((order, d2))[:3]
            )
        assert (clf.predict(Q) == [clf.predict_one(q) for q in Q]).all()

    @pytest.mark.parametrize(
        "window, n_components", [(5, 2), (5, None), (16, None)]
    )
    def test_three_level_windows_match_lexsort_reference(
        self, window, n_components
    ):
        """A memory of windows over a three-level feed holds many points
        at exactly equal distances from a query, at the paper's window 5
        / PCA 2 and with PCA off. One-row and batched queries return the
        neighbours of an exact ``np.lexsort((index, d2))`` reference, in
        order, with its distances (``d2`` summed over the coordinates in
        order, as the distance kernel defines it)."""
        series = np.random.default_rng(3).integers(0, 3, 700).astype(float)
        predictor = OnlineLARPredictor(
            LARConfig(window=window, n_components=n_components),
            max_memory=512,
        )
        predictor.train(series[:200])
        predictor.observe_many(series[200:])
        X, y = predictor._classifier._X, predictor._classifier._y
        clf = KNNClassifier(k=3).fit(X, y)
        Q = X[::3]
        dist, idx = clf.kneighbors(Q)
        order = np.arange(X.shape[0])
        for i, q in enumerate(Q):
            d2 = np.zeros(X.shape[0])
            for j in range(X.shape[1]):
                d2 += (X[:, j] - q[j]) ** 2
            expected = np.lexsort((order, d2))[:3]
            np.testing.assert_array_equal(idx[i], expected)
            np.testing.assert_array_equal(dist[i], np.sqrt(d2[expected]))
            np.testing.assert_array_equal(clf.kneighbors(q)[1][0], expected)

    @pytest.mark.parametrize("width", [2, 3, 5, 16])
    def test_duplicate_rows_rank_oldest_first_at_every_width(self, width):
        _assert_duplicates_rank_oldest_first(0, 711, width, 200)

    @pytest.mark.slow
    @pytest.mark.parametrize("width", [2, 3, 5, 16])
    def test_duplicate_rows_rank_oldest_first_full_search(self, width):
        """Ten memory sizes of 513-2303 rows, three seeds, 200 queries
        each."""
        for seed in range(3):
            for size in np.linspace(513, 2303, 10).astype(int):
                _assert_duplicates_rank_oldest_first(seed, size, width, 200)


class TestNonFiniteQueries:
    """Every query row must be finite, at every memory size."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        X, y = _two_blobs(n=50)
        clf = KNNClassifier(k=3).fit(X, y)
        for query in ([bad, 0.0], [[1.0, 1.0], [0.0, bad]]):
            with pytest.raises(DataError, match="non-finite"):
                clf.predict(query)
            with pytest.raises(DataError, match="non-finite"):
                clf.predict_proba(query)
            with pytest.raises(DataError, match="non-finite"):
                clf.kneighbors(query)

    def test_empty_batch_returns_empty_arrays(self):
        X, y = _two_blobs(n=50)
        clf = KNNClassifier(k=3).fit(X, y)
        dist, idx = clf.kneighbors(np.empty((0, 2)))
        assert dist.shape == idx.shape == (0, 3)
        assert clf.predict(np.empty((0, 2))).shape == (0,)
        assert clf.predict_proba(np.empty((0, 2))).shape == (0, 2)


class TestBlockedSearch:
    def test_blocks_equal_one_block_bit_for_bit(self, monkeypatch):
        """A batch split into several query blocks, the last one
        partial, over a memory of equidistant duplicate rows, returns
        the bits of the single-block call."""
        rng = np.random.default_rng(4)
        distinct = rng.standard_normal((20, 2))
        X = distinct[rng.integers(0, 20, size=300)]
        y = rng.integers(1, 4, size=300)
        Q = np.vstack([X[rng.integers(0, 300, size=30)],
                       rng.standard_normal((17, 2))])
        clf = KNNClassifier(k=3).fit(X, y)
        whole_d, whole_i = clf.kneighbors(Q)
        blocks = []
        topk = knn.lexicographic_topk

        def counting_topk(d2, k):
            blocks.append(d2.shape[0])
            return topk(d2, k)

        monkeypatch.setattr(knn, "lexicographic_topk", counting_topk)
        monkeypatch.setattr(knn, "_BLOCK_ELEMENTS", 5 * 300)
        block_d, block_i = clf.kneighbors(Q)
        assert blocks == [5] * 9 + [2]
        np.testing.assert_array_equal(block_i, whole_i)
        np.testing.assert_array_equal(block_d, whole_d)
        np.testing.assert_array_equal(
            clf.predict(Q), [clf.predict_one(q) for q in Q]
        )

    def test_large_batch_runs_in_bounded_memory(self):
        """5000 queries against 5000 rows: an unblocked search would
        hold a 5000 x 5000 float64 distance matrix (191 MiB) and as
        much scratch."""
        rng = np.random.default_rng(5)
        clf = KNNClassifier(k=3).fit(
            rng.standard_normal((5000, 2)), rng.integers(1, 4, 5000)
        )
        Q = rng.standard_normal((5000, 2))
        tracemalloc.start()
        try:
            dist, idx = clf.kneighbors(Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert dist.shape == idx.shape == (5000, 3)


class TestDistanceWeighting:
    def test_invalid_weights(self):
        with pytest.raises(ConfigurationError):
            KNNClassifier(k=3, weights="gaussian")

    def test_exact_match_dominates(self):
        """With distance weighting, a training point identical to the
        query outvotes any majority of farther neighbours."""
        X = np.array([[0.0, 0.0], [0.2, 0.0], [0.2, 0.1]])
        y = np.array([9, 1, 1])
        clf = KNNClassifier(k=3, weights="distance").fit(X, y)
        assert clf.predict_one([0.0, 0.0]) == 9
        # Plain majority would say 1.
        uniform = KNNClassifier(k=3, weights="uniform").fit(X, y)
        assert uniform.predict_one([0.0, 0.0]) == 1

    def test_near_neighbour_outweighs_far_pair(self):
        X = np.array([[0.0], [5.0], [5.1]])
        y = np.array([7, 2, 2])
        clf = KNNClassifier(k=3, weights="distance").fit(X, y)
        assert clf.predict_one([0.4]) == 7

    def test_agrees_with_uniform_when_unambiguous(self):
        X, y = _two_blobs()
        u = KNNClassifier(k=3, weights="uniform").fit(X, y)
        d = KNNClassifier(k=3, weights="distance").fit(X, y)
        queries = np.array([[-4.0, 0.0], [4.0, 0.0], [-3.5, 1.0]])
        np.testing.assert_array_equal(u.predict(queries), d.predict(queries))
