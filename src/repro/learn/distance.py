"""Vectorized pairwise distance kernels.

k-NN classification cost is dominated by the distance matrix between test
and training points. All kernels here are fully vectorized: the Euclidean
path expands ``|a - b|^2 = |a|^2 - 2 a.b + |b|^2`` so the cross term is a
stacked BLAS product, one ``(1, d) @ (d, n)`` per query row. A single
GEMM over the whole batch can round the same memory row differently
depending on its column, so identical training rows would stop being
equidistant and the k-NN tie rule (oldest first) would break. One
product per row gives every row of a batch the bits a one-row query
gets — the form the fleet's batched tick engine computes too.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataError

__all__ = [
    "squared_euclidean_distances",
    "euclidean_distances",
    "manhattan_distances",
    "chebyshev_distances",
    "pairwise_distances",
]


def _check_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim == 1:
        A = A[None, :]
    if B.ndim == 1:
        B = B[None, :]
    if A.ndim != 2 or B.ndim != 2:
        raise DataError(
            f"distance inputs must be 1-D or 2-D, got shapes {A.shape}, {B.shape}"
        )
    if A.shape[1] != B.shape[1]:
        raise DataError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    return A, B


def squared_euclidean_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of squared Euclidean distances.

    Preferred for nearest-neighbour *ranking*: the square root is
    monotone, so skipping it changes no ordering and saves a pass.
    Round-off from the expanded form can produce tiny negatives; they
    are clamped to zero. Row *i* carries exactly the bits of the
    one-row call on ``A[i]``.
    """
    A, B = _check_pair(A, B)
    aa = np.einsum("ij,ij->i", A, A)[:, None]
    bb = np.einsum("ij,ij->i", B, B)[None, :]
    cross = np.matmul(A[:, None, :], B.T)[:, 0, :]
    d2 = aa + bb - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def euclidean_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of Euclidean distances (paper eq. 6)."""
    return np.sqrt(squared_euclidean_distances(A, B))


def manhattan_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of L1 distances.

    Materializes the ``(n, m, d)`` difference tensor, so intended for the
    small feature dimensions (n = 2 PCA components) this library works in.
    """
    A, B = _check_pair(A, B)
    return np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)


def chebyshev_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of L-infinity distances."""
    A, B = _check_pair(A, B)
    return np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)


_METRICS = {
    "euclidean": euclidean_distances,
    "sqeuclidean": squared_euclidean_distances,
    "manhattan": manhattan_distances,
    "chebyshev": chebyshev_distances,
}


def pairwise_distances(A, B, metric: str = "euclidean") -> np.ndarray:
    """Dispatch to a named distance kernel.

    Parameters
    ----------
    metric:
        One of ``euclidean``, ``sqeuclidean``, ``manhattan``,
        ``chebyshev``.
    """
    try:
        fn = _METRICS[metric]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {metric!r}; choose from {sorted(_METRICS)}"
        ) from None
    return fn(A, B)
