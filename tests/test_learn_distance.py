"""Unit and property tests for the distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import DataError
from repro.learn.distance import (
    euclidean_distances,
    squared_distances,
    squared_euclidean_distances,
)

points = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestEuclidean:
    def test_known_values(self):
        d = euclidean_distances([[0.0, 0.0]], [[3.0, 4.0]])
        assert d[0, 0] == pytest.approx(5.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((7, 4)), rng.standard_normal((5, 4))
        fast = euclidean_distances(A, B)
        naive = np.array([[np.linalg.norm(a - b) for b in B] for a in A])
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_no_negative_from_roundoff(self):
        A = np.full((3, 4), 1e8)
        d2 = squared_euclidean_distances(A, A)
        assert (d2 >= 0.0).all()

    def test_batch_rows_equal_one_row_calls(self):
        """Each row of a batched call carries the one-row call's bits,
        and duplicate memory rows get identical distances, so the k-NN
        tie rule sees them as equidistant in a batch too."""
        rng = np.random.default_rng(0)
        distinct = rng.standard_normal((60, 2))
        B = distinct[rng.integers(0, 60, size=2300)]
        A = B[rng.integers(0, 2300, size=400)]
        batch = squared_euclidean_distances(A, B)
        for i, a in enumerate(A):
            np.testing.assert_array_equal(
                batch[i], squared_euclidean_distances(a, B)[0]
            )
        same = np.flatnonzero((B == B[0]).all(axis=1))
        assert same.size > 1
        assert (batch[:, same] == batch[:, same[:1]]).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            euclidean_distances(np.ones((2, 3)), np.ones((2, 4)))

    def test_1d_inputs_promoted(self):
        d = euclidean_distances([1.0, 0.0], [0.0, 0.0])
        assert d.shape == (1, 1)

    @given(points, points)
    @settings(max_examples=40, deadline=None)
    def test_property_symmetry_and_identity(self, A, B):
        d = euclidean_distances(A, B)
        dT = euclidean_distances(B, A)
        np.testing.assert_array_equal(d, dT.T)
        self_d = euclidean_distances(A, A)
        np.testing.assert_array_equal(np.diag(self_d), 0.0)

    @given(points)
    @settings(max_examples=30, deadline=None)
    def test_property_triangle_inequality(self, A):
        if A.shape[0] < 3:
            return
        d = euclidean_distances(A, A)
        n = A.shape[0]
        for i in range(min(n, 4)):
            for j in range(min(n, 4)):
                for k in range(min(n, 4)):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-6


class TestSquaredDistancesKernel:
    def test_stacked_queries_equal_one_row_calls(self):
        """Each query of a stacked call against its own coordinate-major
        memory gets the bits of the one-row call, in the recycled
        arrays it was handed."""
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((4, 5))
        M = rng.standard_normal((4, 5, 9))
        out, work = np.empty((4, 9)), np.empty((4, 9))
        d2 = squared_distances(Q, M, out=out, work=work)
        assert d2 is out
        for i in range(4):
            np.testing.assert_array_equal(
                d2[i], squared_euclidean_distances(Q[i], M[i].T)[0]
            )
        np.testing.assert_allclose(d2, ((Q[:, :, None] - M) ** 2).sum(axis=1))

    def test_infinite_coordinates_are_infinitely_far(self):
        memory = np.full((3, 4), np.inf)
        memory[:, 0] = 0.0
        d2 = squared_distances(np.ones(3), memory)
        assert d2[0] == 3.0
        assert np.isposinf(d2[1:]).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            squared_distances(np.ones(3), np.ones((4, 5)))
