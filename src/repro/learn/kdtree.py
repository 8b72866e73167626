"""A from-scratch KD-tree for exact k-nearest-neighbour queries.

The paper's discussion (§7.3) points at logarithmic-expected-time
nearest-neighbour algorithms (Friedman, Bentley & Finkel) as the way to
scale the k-NN stage beyond the O(N) scan. This module implements that
structure: median-split axis-aligned partitioning with a branch-and-bound
k-NN search.

The tree is stored in flat arrays (split axis, split value, child
indices, point ranges) rather than linked node objects: construction
partitions an index permutation in place with ``numpy.argpartition``,
and leaves store contiguous index ranges so leaf scans are vectorized.
This keeps the Python-level work proportional to the number of *nodes
visited*, not the number of points. Leaf scans run the brute-force
backend's distance kernel, so both rank equidistant points alike.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.learn.distance import squared_distances
from repro.util.validation import as_matrix, check_positive_int

__all__ = ["KDTree"]


class KDTree:
    """Exact k-NN index over a fixed point set.

    Parameters
    ----------
    points:
        ``(n_points, n_dims)`` array. The tree keeps its own copy.
    leaf_size:
        Maximum number of points stored in a leaf before it is split.
        Larger leaves trade tree depth for vectorized scan width; the
        default 16 is a good fit for the 2-D PCA spaces this library
        queries.

    Notes
    -----
    Split axis is chosen as the axis of largest spread within the node
    (the Friedman–Bentley–Finkel rule), and the split point is the median,
    which bounds the depth at O(log n).
    """

    __slots__ = (
        "points",
        "_indices",
        "_split_dim",
        "_split_val",
        "_left",
        "_right",
        "_start",
        "_end",
        "leaf_size",
    )

    def __init__(self, points, *, leaf_size: int = 16):
        self.points = as_matrix(points, name="points", min_rows=1)
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        n = self.points.shape[0]
        # Worst-case node count for a binary tree over ceil(n/leaf) leaves.
        max_nodes = 4 * max(1, n // self.leaf_size + 1)
        self._indices = np.arange(n, dtype=np.intp)
        self._split_dim = np.full(max_nodes, -1, dtype=np.intp)
        self._split_val = np.zeros(max_nodes, dtype=np.float64)
        self._left = np.full(max_nodes, -1, dtype=np.intp)
        self._right = np.full(max_nodes, -1, dtype=np.intp)
        self._start = np.zeros(max_nodes, dtype=np.intp)
        self._end = np.zeros(max_nodes, dtype=np.intp)
        next_free = self._build(0, n, _NodeAllocator())
        # Trim the arrays to the nodes actually allocated.
        for name in ("_split_dim", "_split_val", "_left", "_right", "_start", "_end"):
            setattr(self, name, getattr(self, name)[:next_free])

    # -- construction -----------------------------------------------------

    def _build(self, start: int, end: int, alloc: "_NodeAllocator") -> int:
        """Recursively build the subtree over ``_indices[start:end]``.

        Returns the total number of nodes allocated.
        """
        self._build_node(start, end, alloc)
        return alloc.next_free

    def _build_node(self, start: int, end: int, alloc: "_NodeAllocator") -> int:
        node = alloc.take(self)
        self._start[node] = start
        self._end[node] = end
        count = end - start
        if count <= self.leaf_size:
            return node  # leaf: _split_dim stays -1
        idx = self._indices[start:end]
        pts = self.points[idx]
        spread = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spread))
        if spread[dim] <= 0.0:
            return node  # all points identical: keep as a (large) leaf
        mid = count // 2
        # Partial sort: points below the median land left of mid.
        order = np.argpartition(pts[:, dim], mid)
        self._indices[start:end] = idx[order]
        self._split_dim[node] = dim
        self._split_val[node] = float(
            self.points[self._indices[start + mid], dim]
        )
        self._left[node] = self._build_node(start, start + mid, alloc)
        self._right[node] = self._build_node(start + mid, end, alloc)
        return node

    # -- queries ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return int(self.points.shape[0])

    def query(self, x, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Find the *k* nearest indexed points to the single query *x*.

        Returns
        -------
        (distances, indices):
            Both length *k*, sorted by increasing Euclidean distance;
            equidistant points by index, lowest (oldest) first, as the
            brute-force backend ranks them.

        Raises
        ------
        ConfigurationError
            If ``k`` is not a positive integer or exceeds the number of
            indexed points.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.points.shape[1]:
            raise DataError(
                f"query must be a 1-D point of dimension {self.points.shape[1]}"
            )
        k = self._check_k(k)
        # Max-heap of the best k by (squared distance, index), both
        # negated: its root is the farthest, and among equidistant
        # points the newest, so ties keep the oldest points.
        heap: list[tuple[float, int]] = []
        self._search(0, x, k, heap)
        order = sorted((-d2, -i) for d2, i in heap)
        d2 = np.array([v for v, _ in order])
        idx = np.array([i for _, i in order], dtype=np.intp)
        return np.sqrt(d2), idx

    def query_many(self, X, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Batch :meth:`query` over the rows of *X*.

        Returns ``(n_queries, k)`` distance and index arrays.
        """
        X = as_matrix(X, name="X", min_rows=1)
        k = self._check_k(k)
        dists = np.empty((X.shape[0], k), dtype=np.float64)
        idxs = np.empty((X.shape[0], k), dtype=np.intp)
        for i, x in enumerate(X):
            d, j = self.query(x, k)
            dists[i] = d
            idxs[i] = j
        return dists, idxs

    # -- internals ------------------------------------------------------------

    def _check_k(self, k) -> int:
        k = check_positive_int(k, name="k")
        if k > self.n_points:
            raise ConfigurationError(
                f"k={k} exceeds the {self.n_points} indexed points"
            )
        return k

    def _search(
        self, node: int, x: np.ndarray, k: int, heap: list[tuple[float, int]]
    ) -> None:
        dim = self._split_dim[node]
        if dim < 0:  # leaf: vectorized scan of the contiguous index range
            idx = self._indices[self._start[node] : self._end[node]]
            d2 = squared_distances(x, self.points[idx].T)
            for dist2, point_index in zip(d2, idx):
                entry = (-float(dist2), -int(point_index))
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            return
        delta = x[dim] - self._split_val[node]
        near, far = (
            (self._right[node], self._left[node])
            if delta >= 0.0
            else (self._left[node], self._right[node])
        )
        self._search(near, x, k, heap)
        # Prune the far branch unless the splitting plane is no farther
        # than the current k-th best distance (branch-and-bound step):
        # an older point at exactly that distance can sit on the plane.
        if len(heap) < k or delta * delta <= -heap[0][0]:
            self._search(far, x, k, heap)

    def __repr__(self) -> str:
        return (
            f"KDTree(n_points={self.n_points}, "
            f"n_dims={self.points.shape[1]}, leaf_size={self.leaf_size})"
        )


class _NodeAllocator:
    """Hands out node slots and grows the backing arrays on demand."""

    def __init__(self) -> None:
        self.next_free = 0

    def take(self, tree: KDTree) -> int:
        node = self.next_free
        self.next_free += 1
        if node >= tree._split_dim.shape[0]:
            for name in (
                "_split_dim",
                "_split_val",
                "_left",
                "_right",
                "_start",
                "_end",
            ):
                arr = getattr(tree, name)
                grown = np.concatenate([arr, np.full_like(arr, -1)])
                setattr(tree, name, grown)
        return node
