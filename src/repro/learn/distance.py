"""The exact distance kernel behind every nearest-neighbour search.

k-NN classification cost is dominated by the distance matrix between test
and training points. Every squared Euclidean distance the library ranks
by (brute-force k-NN, nearest centroids, the fleet's batched tick
engine) comes from one kernel, :func:`squared_distances`, which sums
``(q_j - x_j)^2`` over the coordinates in order. Equal inputs give equal
bits on every path, so identical training rows are exactly equidistant
and the k-NN tie rule (oldest first) holds at every feature width.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "squared_distances",
    "squared_euclidean_distances",
    "euclidean_distances",
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


def squared_distances(queries, memory, *, out=None, work=None) -> np.ndarray:
    """``(..., m)`` squared Euclidean distances from ``(..., d)``
    *queries* to a coordinate-major ``(..., d, m)`` *memory*: each sums
    ``(q_j - x_j)^2`` over ``j = 0 .. d - 1`` in order, so a point with a
    ``+inf`` coordinate is ``+inf`` away. *out* and *work* are optional
    recycled arrays of the result's shape (the result and a scratch).
    """
    d = memory.shape[-2]
    if queries.shape[-1] != d:
        raise DataError(f"feature dimensions differ: {queries.shape[-1]} vs {d}")
    out = np.subtract(queries[..., 0, None], memory[..., 0, :], out=out)
    np.multiply(out, out, out=out)
    for j in range(1, d):
        work = np.subtract(queries[..., j, None], memory[..., j, :], out=work)
        np.multiply(work, work, out=work)
        np.add(out, work, out=out)
    return out


def squared_euclidean_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of squared Euclidean distances.

    Preferred for nearest-neighbour *ranking*: the square root is
    monotone, so skipping it changes no ordering and saves a pass.
    Row *i* carries exactly the bits of the one-row call on ``A[i]``.
    """
    A, B = _check_pair(A, B)
    return squared_distances(A, B.T)


def euclidean_distances(A, B) -> np.ndarray:
    """``(len(A), len(B))`` matrix of Euclidean distances (paper eq. 6)."""
    return np.sqrt(squared_euclidean_distances(A, B))
