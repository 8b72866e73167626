"""Unit and property tests for the k-NN classifier and the KD-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.learn.kdtree import KDTree
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
    clf = KNNClassifier(k=3, algorithm="brute").fit(X, y)
    _, batched = clf.kneighbors(Q)
    order = np.arange(size)
    for i, q in enumerate(Q):
        diff = distinct - q
        d2 = np.einsum("ij,ij->i", diff, diff)[codes]
        expected = np.lexsort((order, d2))[:3]
        np.testing.assert_array_equal(clf.kneighbors(q)[1][0], expected)
        np.testing.assert_array_equal(batched[i], expected)


class TestKDTree:
    def test_single_point(self):
        tree = KDTree([[1.0, 2.0]])
        d, i = tree.query(np.array([1.0, 2.0]), 1)
        assert d[0] == pytest.approx(0.0)
        assert i[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((300, 3))
        tree = KDTree(pts, leaf_size=8)
        for q in rng.standard_normal((20, 3)):
            d, idx = tree.query(q, 5)
            brute = np.linalg.norm(pts - q, axis=1)
            order = np.argsort(brute)[:5]
            np.testing.assert_allclose(np.sort(d), np.sort(brute[order]), atol=1e-10)

    def test_k_too_large(self):
        tree = KDTree(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            tree.query(np.zeros(2), 4)

    def test_wrong_dimension_query(self):
        tree = KDTree(np.zeros((3, 2)))
        with pytest.raises(DataError):
            tree.query(np.zeros(3), 1)

    def test_identical_points_become_leaf(self):
        tree = KDTree(np.ones((100, 2)), leaf_size=4)
        d, i = tree.query(np.ones(2), 3)
        np.testing.assert_allclose(d, 0.0)

    @pytest.mark.parametrize("k", [3, 50])
    def test_equidistant_points_rank_oldest_first(self, k):
        """Ties in distance rank by index, oldest first: duplicate rows
        and distinct grid points at equal distances, including ones on
        a splitting plane at exactly the k-th distance."""
        rng = np.random.default_rng(3)
        distinct = rng.integers(-4, 5, size=(60, 2)).astype(np.float64)
        pts = distinct[rng.integers(0, 60, size=2300)]
        tree = KDTree(pts)
        order = np.arange(pts.shape[0])
        for q in pts[rng.integers(0, pts.shape[0], size=60)]:
            diff = pts - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            expected = np.lexsort((order, d2))[:k]
            d, idx = tree.query(q, k)
            np.testing.assert_array_equal(idx, expected)
            np.testing.assert_array_equal(d, np.sqrt(d2[expected]))

    def test_query_many_shapes(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((50, 2))
        tree = KDTree(pts)
        d, i = tree.query_many(rng.standard_normal((7, 2)), 3)
        assert d.shape == (7, 3)
        assert i.shape == (7, 3)

    @pytest.mark.parametrize("k", [-1, 0, 2.5, True, 51])
    def test_query_many_checks_k_like_query(self, k):
        tree = KDTree(np.random.default_rng(2).standard_normal((50, 2)))
        X = np.zeros((3, 2))
        with pytest.raises(ConfigurationError):
            tree.query(X[0], k)
        with pytest.raises(ConfigurationError):
            tree.query_many(X, k)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 60), st.just(2)),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_exactness(self, pts, k):
        """Tree k-NN distances always equal brute-force distances."""
        if k > pts.shape[0]:
            return
        tree = KDTree(pts, leaf_size=4)
        q = pts[0] + 0.5
        d, idx = tree.query(q, k)
        brute = np.sort(np.linalg.norm(pts - q, axis=1))[:k]
        np.testing.assert_allclose(np.sort(d), brute, atol=1e-8)


class TestKNNClassifierConstruction:
    def test_even_k_rejected(self):
        with pytest.raises(ConfigurationError, match="odd"):
            KNNClassifier(k=2)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigurationError):
            KNNClassifier(k=3, algorithm="ball_tree")

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

    def test_brute_and_tree_agree(self):
        X, y = _two_blobs(n=100, seed=5)
        test = np.random.default_rng(6).standard_normal((40, 2)) * 3.0
        brute = KNNClassifier(k=3, algorithm="brute").fit(X, y).predict(test)
        tree = KNNClassifier(k=3, algorithm="kd_tree").fit(X, y).predict(test)
        np.testing.assert_array_equal(brute, tree)

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

    def test_auto_backend_picks_tree_for_large_low_dim(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3000, 2))
        y = (X[:, 0] > 0).astype(int)
        clf = KNNClassifier(k=3, algorithm="auto").fit(X, y)
        # The index is lazy — a fresh fit is often evicted down to
        # max_memory before any query — but the first query builds it.
        assert clf._tree is None
        clf.predict_one([0.0, 0.0])
        assert clf._tree is not None

    def test_tree_votes_match_brute_on_duplicate_rows(self):
        """A memory of repeated rows large enough for ``auto`` to pick
        the KD-tree votes exactly as brute force, query by query."""
        rng = np.random.default_rng(0)
        distinct = rng.standard_normal((60, 2))
        X = distinct[rng.integers(0, 60, size=2300)]
        y = rng.integers(1, 4, size=2300)
        tree = KNNClassifier(k=3, algorithm="auto").fit(X, y)
        brute = KNNClassifier(k=3, algorithm="brute").fit(X, y)
        for q in X[rng.integers(0, 2300, size=100)]:
            assert tree.predict_one(q) == brute.predict_one(q)
        assert tree._tree is not None

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
        clf = KNNClassifier(k=3, algorithm="brute").fit(X, y)
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
    def test_tree_and_brute_agree_on_three_level_windows(
        self, window, n_components
    ):
        """A memory of windows over a three-level feed holds many points
        at exactly equal distances from a query. Both backends compute
        them with one kernel, so they return the same neighbours in the
        same order, at the paper's window 5 / PCA 2 and with PCA off."""
        series = np.random.default_rng(3).integers(0, 3, 700).astype(float)
        predictor = OnlineLARPredictor(
            LARConfig(window=window, n_components=n_components),
            max_memory=512,
        )
        predictor.train(series[:200])
        predictor.observe_many(series[200:])
        X, y = predictor._classifier._X, predictor._classifier._y
        brute = KNNClassifier(k=3, algorithm="brute").fit(X, y)
        tree = KNNClassifier(k=3, algorithm="kd_tree").fit(X, y)
        brute_d, brute_i = brute.kneighbors(X[::3])
        tree_d, tree_i = tree.kneighbors(X[::3])
        np.testing.assert_array_equal(tree_i, brute_i)
        np.testing.assert_array_equal(tree_d, brute_d)

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

    def test_auto_backend_brute_for_small(self):
        X, y = _two_blobs(n=20)
        clf = KNNClassifier(k=3, algorithm="auto").fit(X, y)
        clf.predict_one([0.0, 0.0])
        assert clf._tree is None


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
