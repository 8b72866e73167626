"""k-Nearest-Neighbour classification (paper §5.1).

The LARPredictor's best-predictor forecaster: memory-based, no training
beyond storing the labelled windows, classification by majority vote of
the k = 3 closest training windows under Euclidean distance in the
PCA-reduced feature space.

Queries run one exact search: the distance kernel of
:mod:`repro.learn.distance` (the fleet's tick engine uses it too, so
both rank alike) plus the deterministic top-k selection of
:mod:`repro.learn.topk`, over blocks of query rows that bound the
scratch memory of a large batch against a large memory. The paper's
memories hold a few hundred rows; §7.3's KD-tree is not kept (DESIGN.md
records the measured crossover).

Storage is an amortized growth buffer: the memory lives in a
capacity-doubling ring (``_Xbuf``/``_ybuf`` plus start/end offsets), so
:meth:`KNNClassifier.partial_fit` appends in O(1) amortized time instead
of the O(n) ``vstack`` copy it once paid per observation, and
:meth:`KNNClassifier.discard_oldest` retires the oldest rows by moving
an offset instead of refitting. The fleet's batched tick engine
(:mod:`repro.serving.engine`) keeps a stacked copy of this memory: it
places rows in its ring by the ``appended_total_`` /
``discarded_total_`` counters. Fleet code that writes a served
stream's classifier detaches the stream from the engine first, and the
engine reloads the copy whole.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.learn.base import Classifier
from repro.learn.topk import lexicographic_topk
from repro.learn.voting import majority_vote, weighted_vote
from repro.learn.distance import squared_euclidean_distances
from repro.util.validation import check_finite

__all__ = ["KNNClassifier"]

_MIN_CAPACITY = 8
#: Distances computed per block of query rows in
#: :meth:`KNNClassifier.kneighbors` (8 MiB of float64), which bounds the
#: scratch memory of a large batch against a large memory. Every query
#: row is computed on its own, so blocking changes no bit of the result.
_BLOCK_ELEMENTS = 1 << 20


def _round_capacity(n: int) -> int:
    cap = _MIN_CAPACITY
    while cap < n:
        cap *= 2
    return cap


def _label_values_counts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique labels with counts — ``np.unique(y,
    return_counts=True)`` through a bincount fast path for the small
    non-negative label alphabets the predictor pools emit (integer
    counting, so the result is identical; the batched fleet trainer
    builds thousands of classifiers per burst and the sort-based
    ``np.unique`` was measurable there)."""
    if y.size and y.min() >= 0 and y.max() <= 64:
        counts = np.bincount(y)
        values = np.flatnonzero(counts)
        return values, counts[values]
    return np.unique(y, return_counts=True)


class KNNClassifier(Classifier):
    """Majority-vote k-NN over Euclidean distance.

    Parameters
    ----------
    k:
        Neighbourhood size; must be odd (paper: "the majority vote among
        the k (an odd number) neighbors"). Odd k prevents two-way ties;
        residual multi-class ties are broken in favour of the label of
        the nearest neighbour within the tie (a deterministic rule the
        tests pin down). Among *equidistant* neighbours, the one stored
        earliest in the memory ranks first, so queries are deterministic
        even when the memory holds duplicate feature rows.
    weights:
        ``"uniform"`` is the paper's plain majority vote; ``"distance"``
        weights each neighbour's vote by inverse distance (the weighted
        voting strategy of the paper's ref [16]) — an exact-match
        neighbour then dominates the vote outright.
    """

    def __init__(self, k: int = 3, *, weights: str = "uniform"):
        super().__init__()
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {k!r}")
        if k % 2 == 0:
            raise ConfigurationError(f"k must be odd to avoid vote ties, got {k}")
        if weights not in ("uniform", "distance"):
            raise ConfigurationError(
                f"weights must be 'uniform' or 'distance', got {weights!r}"
            )
        self.k = int(k)
        self.weights = weights
        self._Xbuf: np.ndarray | None = None
        self._ybuf: np.ndarray | None = None
        self._buf_start = 0
        self._buf_end = 0
        self._appended = 0
        self._discarded = 0
        self._label_counts: dict[int, int] = {}

    @classmethod
    def from_rows(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        *,
        k: int = 3,
        weights: str = "uniform",
        label_counts: dict[int, int] | None = None,
    ) -> "KNNClassifier":
        """Build a fitted classifier directly from precomputed memory rows.

        The batched fleet trainer computes every stream's (feature,
        label) training rows in stacked tensors; this constructor turns
        one stream's slice into a classifier whose internal state is
        indistinguishable from ``KNNClassifier(k).fit(X, y)`` — same
        growth-buffer capacity, offsets, and counters. Rows must already
        be validated: finite float64 features, int64 labels. A caller
        that already counted the labels (the batched trainer counts
        whole bursts in one vectorized pass) hands them in as
        *label_counts* — ``{label: count}`` in ascending label order,
        zero counts omitted — and the per-classifier counting pass is
        skipped.
        """
        clf = cls(k, weights=weights)
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"rows must be (n, d) features with n labels, got "
                f"{X.shape} and {y.shape}"
            )
        if y.size == 0:
            raise ConfigurationError("cannot build a classifier from zero rows")
        clf._n_features = X.shape[1]
        clf._fit(X, y, label_counts=label_counts)
        # _fit already counted the labels in sorted order; materializing
        # classes_ from those keys skips a second np.unique pass.
        clf.classes_ = np.fromiter(
            clf._label_counts, dtype=np.int64, count=len(clf._label_counts)
        )
        return clf

    # -- storage views --------------------------------------------------------

    @property
    def _X(self) -> np.ndarray | None:
        """Live memory rows, oldest first (a view into the growth buffer)."""
        if self._Xbuf is None:
            return None
        return self._Xbuf[self._buf_start : self._buf_end]

    @property
    def _y(self) -> np.ndarray | None:
        """Live labels, oldest first (a view into the growth buffer)."""
        if self._ybuf is None:
            return None
        return self._ybuf[self._buf_start : self._buf_end]

    @property
    def appended_total_(self) -> int:
        """Absolute count of rows ever appended since the last fit."""
        return self._appended

    @property
    def discarded_total_(self) -> int:
        """Absolute count of oldest rows retired since the last fit."""
        return self._discarded

    # -- hooks ---------------------------------------------------------------

    def _fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        label_counts: dict[int, int] | None = None,
    ) -> None:
        if self.k > X.shape[0]:
            raise ConfigurationError(
                f"k={self.k} exceeds the {X.shape[0]} training samples"
            )
        n, d = X.shape
        cap = _round_capacity(n)
        self._Xbuf = np.empty((cap, d), dtype=np.float64)
        self._ybuf = np.empty(cap, dtype=np.int64)
        self._Xbuf[:n] = X
        self._ybuf[:n] = y
        self._buf_start = 0
        self._buf_end = n
        self._appended = n
        self._discarded = 0
        if label_counts is None:
            values, counts = _label_values_counts(y)
            label_counts = {int(v): int(c) for v, c in zip(values, counts)}
        self._label_counts = dict(label_counts)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        distances, neighbor_idx = self.kneighbors(X)
        neighbor_labels = self._y[neighbor_idx]  # type: ignore[index]
        if self.weights == "distance":
            # Inverse-distance weighting; an exact match (distance 0)
            # would divide by zero, so such neighbours get a weight that
            # dwarfs every finite one *in their own row* — the row
            # maximum, not a global one, keeps unrelated queries from
            # inflating each other's exact-match weight.
            with np.errstate(divide="ignore"):
                w = 1.0 / distances
            exact = ~np.isfinite(w)
            if exact.any():
                w[exact] = 0.0
                row_max = np.maximum(w.max(axis=1), 1.0)
                w = np.where(exact, row_max[:, None] * 1e6, w)
            return weighted_vote(neighbor_labels, w)
        # Neighbours arrive sorted by distance, so "first label in the
        # row" is the 1-NN label majority_vote uses for tie-breaking.
        return majority_vote(neighbor_labels)

    # -- public extras ---------------------------------------------------------

    def partial_fit(self, X, y) -> "KNNClassifier":
        """Append labelled samples to the memory (online learning path).

        k-NN is memory-based, so incremental learning is exact: new
        (sample, label) pairs simply join the stored training set. The
        append lands in a capacity-doubling growth buffer (O(1)
        amortized; no per-call copy of the whole memory).
        """
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y)
        if y.ndim == 0:
            y = y[None]
        if X.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"{X.shape[0]} samples but {y.shape[0]} labels"
            )
        if X.shape[1] != self._Xbuf.shape[1]:  # type: ignore[union-attr]
            raise ConfigurationError(
                f"samples have {X.shape[1]} features, memory has "
                f"{self._Xbuf.shape[1]}"  # type: ignore[union-attr]
            )
        if not np.issubdtype(y.dtype, np.integer):
            y_int = y.astype(np.int64)
            if not np.array_equal(y_int, y):
                raise ConfigurationError("labels must be integers")
            y = y_int
        self._append_rows(X, y.astype(np.int64))
        return self

    def discard_oldest(self, n: int) -> "KNNClassifier":
        """Retire the *n* oldest memory rows (sliding-memory eviction).

        O(1) amortized: the live window's start offset advances; rows
        are only physically moved when the buffer compacts. At least
        ``k`` samples must survive.
        """
        self._require_fitted()
        n = int(n)
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if n == 0:
            return self
        live = self._buf_end - self._buf_start
        if live - n < self.k:
            raise ConfigurationError(
                f"discarding {n} of {live} rows would leave fewer than "
                f"k={self.k} samples"
            )
        self._discard_rows(n)
        return self

    @property
    def n_samples_(self) -> int:
        """Number of stored training samples."""
        self._require_fitted()
        return self._buf_end - self._buf_start

    def kneighbors(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the k nearest training points.

        Returns ``(n_queries, k)`` arrays sorted by increasing distance;
        equidistant neighbours are ordered by memory index (oldest
        first), making the result deterministic. A query row holding a
        NaN or an infinity raises :class:`~repro.exceptions.DataError`.
        """
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        check_finite(X, name="query")
        n = X.shape[0]
        dist = np.empty((n, self.k), dtype=np.float64)
        idx = np.empty((n, self.k), dtype=np.intp)
        step = max(1, _BLOCK_ELEMENTS // self.n_samples_)
        for lo in range(0, n, step):
            d2 = squared_euclidean_distances(X[lo : lo + step], self._X)
            top_d2, top_idx = lexicographic_topk(d2, self.k)
            dist[lo : lo + step] = np.sqrt(top_d2)
            idx[lo : lo + step] = top_idx
        return dist, idx

    def predict_proba(self, X) -> np.ndarray:
        """Per-class vote fractions, ordered like :attr:`classes_`."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _, neighbor_idx = self.kneighbors(X)
        labels = self._y[neighbor_idx]  # type: ignore[index]
        classes = self.classes_
        proba = np.empty((X.shape[0], classes.shape[0]), dtype=np.float64)
        for j, c in enumerate(classes):
            proba[:, j] = np.mean(labels == c, axis=1)
        return proba

    # -- internals -------------------------------------------------------------

    def _append_rows(self, X: np.ndarray, y: np.ndarray) -> None:
        """Write validated rows into the growth buffer (no checks)."""
        n_new = X.shape[0]
        self._ensure_capacity(n_new)
        end = self._buf_end
        self._Xbuf[end : end + n_new] = X  # type: ignore[index]
        self._ybuf[end : end + n_new] = y  # type: ignore[index]
        self._buf_end = end + n_new
        self._appended += n_new
        counts = self._label_counts
        new_class = False
        for label in y.tolist():
            c = counts.get(label, 0)
            if c == 0:
                new_class = True
            counts[label] = c + 1
        if new_class:
            self._refresh_classes()

    def _discard_rows(self, n: int) -> None:
        """Retire the *n* oldest rows (no checks)."""
        start = self._buf_start
        self._drop_label_counts(self._ybuf[start : start + n])  # type: ignore[index]
        self._buf_start = start + n
        self._discarded += n

    def _ensure_capacity(self, n_new: int) -> None:
        cap = self._Xbuf.shape[0]  # type: ignore[union-attr]
        if self._buf_end + n_new <= cap:
            return
        live = self._buf_end - self._buf_start
        if live + n_new <= cap // 2:
            # Plenty of retired headroom: slide the live window to the
            # front in place (source and destination cannot overlap
            # because start >= cap/2 >= live here).
            self._Xbuf[:live] = self._Xbuf[self._buf_start : self._buf_end]  # type: ignore[index]
            self._ybuf[:live] = self._ybuf[self._buf_start : self._buf_end]  # type: ignore[index]
        else:
            new_cap = _round_capacity(max(2 * cap, live + n_new))
            new_X = np.empty((new_cap, self._Xbuf.shape[1]), dtype=np.float64)  # type: ignore[union-attr]
            new_y = np.empty(new_cap, dtype=np.int64)
            new_X[:live] = self._Xbuf[self._buf_start : self._buf_end]  # type: ignore[index]
            new_y[:live] = self._ybuf[self._buf_start : self._buf_end]  # type: ignore[index]
            self._Xbuf = new_X
            self._ybuf = new_y
        self._buf_start = 0
        self._buf_end = live

    def _drop_label_counts(self, dropped: np.ndarray) -> None:
        counts = self._label_counts
        emptied = False
        if dropped.shape[0] > 16:
            # Bulk eviction (a retrained memory trimmed to max_memory
            # drops thousands of rows at once): one vectorized counting
            # pass instead of a per-row dict loop. Decrements commute,
            # so the final counts match the sequential loop exactly.
            values, drops = _label_values_counts(dropped)
            for label, c in zip(values.tolist(), drops.tolist()):
                remaining = counts.get(label, 0) - c
                if remaining <= 0:
                    counts.pop(label, None)
                    emptied = True
                else:
                    counts[label] = remaining
        else:
            for label in dropped.tolist():
                c = counts.get(label, 0) - 1
                if c <= 0:
                    counts.pop(label, None)
                    emptied = True
                else:
                    counts[label] = c
        if emptied:
            self._refresh_classes()

    def _refresh_classes(self) -> None:
        self.classes_ = np.array(sorted(self._label_counts), dtype=np.int64)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"KNNClassifier(k={self.k}, weights={self.weights!r}, {state})"

