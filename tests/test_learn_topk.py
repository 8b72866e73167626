"""Unit tests for the deterministic batched top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.learn.topk import _ARGMIN_MAX_K, _partition_topk, lexicographic_topk
from repro.serving.engine import _DEAD_KEY


def _reference(values, k, tie_keys=None):
    """Per-row lexsort reference: exact top-k under (value, tie) order."""
    v = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = v.shape
    tie = (
        np.broadcast_to(np.arange(n_cols), v.shape)
        if tie_keys is None
        else np.asarray(tie_keys)
    )
    idx = np.empty((n_rows, k), dtype=np.int64)
    for r in range(n_rows):
        idx[r] = np.lexsort((tie[r], v[r]))[:k]
    return np.take_along_axis(v, idx, axis=1), idx


class TestLexicographicTopk:
    def test_simple_rows(self):
        v = np.array([[3.0, 1.0, 2.0], [0.5, 0.6, 0.4]])
        top_v, idx = lexicographic_topk(v, 2)
        np.testing.assert_array_equal(idx, [[1, 2], [2, 0]])
        np.testing.assert_array_equal(top_v, [[1.0, 2.0], [0.4, 0.5]])

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((40, 300))
        for k in (1, 3, 7):
            top_v, idx = lexicographic_topk(v, k)
            ref_v, ref_idx = _reference(v, k)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(top_v, ref_v)

    def test_boundary_ties_resolve_by_index(self):
        """Ties straddling the k-th position must pick the lowest index."""
        rng = np.random.default_rng(1)
        # Heavily quantized values force many exact duplicates.
        v = np.round(rng.standard_normal((60, 120)) * 2.0) / 2.0
        for k in (3, 5):
            _, idx = lexicographic_topk(v, k)
            _, ref_idx = _reference(v, k)
            np.testing.assert_array_equal(idx, ref_idx)

    def test_all_equal_row(self):
        v = np.full((2, 10), 7.0)
        _, idx = lexicographic_topk(v, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2], [0, 1, 2]])

    def test_custom_tie_keys(self):
        # Same values everywhere: ordering must follow the tie keys.
        v = np.zeros((1, 5))
        tie = np.array([[40, 10, 30, 20, 50]])
        _, idx = lexicographic_topk(v, 3, tie_keys=tie)
        np.testing.assert_array_equal(idx, [[1, 3, 2]])

    def test_infinite_padding_ignored(self):
        """+inf columns act as dead padding and never reach the top-k."""
        rng = np.random.default_rng(2)
        v = rng.standard_normal((20, 64))
        padded = np.full((20, 256), np.inf)
        cols = rng.permutation(256)[:64]
        padded[:, np.sort(cols)] = v
        top_p, idx_p = lexicographic_topk(padded, 3)
        assert np.isfinite(top_p).all()
        top_v, _ = lexicographic_topk(v, 3)
        np.testing.assert_array_equal(top_p, top_v)

    def test_k_larger_than_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            lexicographic_topk(np.zeros((2, 3)), 4)


class TestBoundaryTies:
    """Rows whose k-th value ties beyond the 2k-candidate pool, as in
    memories holding duplicate rows, are resolved together and select
    what a per-row ``np.lexsort`` selects."""

    @staticmethod
    def _ring_keys(rng, n_rows, width):
        """Absolute row indices in wrap-around slot order, per row."""
        tie = np.empty((n_rows, width), dtype=np.int64)
        for r in range(n_rows):
            abs_idx = np.arange(width) + int(rng.integers(0, 10_000))
            tie[r, abs_idx % width] = abs_idx
        return tie

    def _check(self, values, k, tie=None):
        top_v, idx = lexicographic_topk(values, k, tie_keys=tie)
        ref_v, ref_idx = _reference(values, k, tie)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(
            top_v.view(np.int64), ref_v.view(np.int64)
        )

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_equal_rows(self, k):
        rng = np.random.default_rng(k)
        values = np.full((4, 40), 2.5)
        self._check(values, k)
        self._check(values, k, self._ring_keys(rng, 4, 40))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rows_with_few_distinct_values(self, k):
        rng = np.random.default_rng(10 + k)
        values = rng.integers(0, 3, size=(60, 200)) * 0.5
        self._check(values, k)
        self._check(values, k, self._ring_keys(rng, 60, 200))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_inf_padding_and_nan_rows(self, k):
        """``+inf`` padding never beats a tied live entry, and a NaN row
        keeps the placement a full-row sort gives it (last)."""
        rng = np.random.default_rng(20 + k)
        values = rng.integers(0, 3, size=(40, 128)) * 0.5
        values[:, rng.random(128) < 0.3] = np.inf
        for r in range(0, 40, 3):
            values[r, rng.integers(0, 128, size=3)] = np.nan
        self._check(values, k)
        self._check(values, k, self._ring_keys(rng, 40, 128))

    @pytest.mark.parametrize("k", [7, 9, 16])
    def test_partition_path_for_large_k(self, k):
        rng = np.random.default_rng(30 + k)
        values = rng.integers(0, 3, size=(30, 150)) * 0.5
        values[::4, :] = 1.0
        tie = self._ring_keys(rng, 30, 150)
        _, idx = _partition_topk(values, k, tie)
        _, ref_idx = _reference(values, k, tie)
        np.testing.assert_array_equal(idx, ref_idx)


@st.composite
def _topk_cases(draw):
    """Selection inputs shaped like the k-NN callers produce them.

    Values are quantised to a few levels (many exact ties) with signed
    zeros and ``+inf`` padding. Ring rows mimic the tick engine's memory
    mirror: live slots keyed by absolute row index in wrap-around order,
    at least k of them, and dead slots holding ``+inf`` under the
    dead-slot key. Some rows get a NaN.
    """
    k = draw(st.integers(min_value=1, max_value=8))
    width = draw(
        st.one_of(st.integers(min_value=k, max_value=2 * k + 1), st.just(512))
    )
    n_rows = draw(st.integers(min_value=1, max_value=6))
    levels = draw(st.integers(min_value=1, max_value=6))
    inf_frac = draw(st.sampled_from([0.0, 0.1, 0.5]))
    ring = draw(st.booleans())
    nan_frac = draw(st.sampled_from([0.0, 0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, levels, size=(n_rows, width)) * 0.25
    values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
    values[rng.random(values.shape) < inf_frac] = np.inf
    tie = None
    if ring:
        tie = np.full((n_rows, width), _DEAD_KEY, dtype=np.int64)
        for r in range(n_rows):
            lo = int(rng.integers(0, 10_000))
            abs_idx = np.arange(lo, lo + int(rng.integers(k, width + 1)))
            tie[r, abs_idx % width] = abs_idx
        values[tie == _DEAD_KEY] = np.inf
    for r in np.flatnonzero(rng.random(n_rows) < nan_frac):
        values[r, rng.integers(0, width)] = np.nan
    return values, k, tie


class TestSelectionProperties:
    @given(_topk_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_both_sides_of_argmin_cutoff(self, case):
        assert 1 <= _ARGMIN_MAX_K < 8  # k = 1..8 spans both paths
        values, k, tie = case
        top_v, idx = lexicographic_topk(values, k, tie_keys=tie)
        assert idx.shape == top_v.shape == (values.shape[0], k)
        # Values are the selected entries bit for bit (signed zeros too).
        np.testing.assert_array_equal(
            top_v.view(np.int64),
            np.take_along_axis(values, idx, axis=1).view(np.int64),
        )
        nan = np.isnan(values).any(axis=1)
        clean = ~nan
        _, ref_idx = _reference(
            values[clean], k, None if tie is None else tie[clean]
        )
        np.testing.assert_array_equal(idx[clean], ref_idx)
        if nan.any():
            keys = (
                np.broadcast_to(np.arange(values.shape[1]), values.shape)
                if tie is None
                else tie
            )
            _, part_idx = _partition_topk(values[nan], k, keys[nan])
            np.testing.assert_array_equal(idx[nan], part_idx)
