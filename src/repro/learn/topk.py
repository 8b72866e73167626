"""Deterministic row-wise top-k selection under a lexicographic order.

Nearest-neighbour queries need the *k smallest distances per row* — but
``argpartition`` alone leaves the choice among tied distances at the
selection boundary unspecified, and that arbitrariness leaks into k-NN
votes whenever the memory holds duplicate feature rows (constant windows
produce them routinely). :func:`lexicographic_topk` pins the rule down:

    select the k smallest entries per row under the total order
    ``(value, tie_key)`` — smaller value first, smaller tie key among
    equal values.

Both the per-stream brute-force path
(:meth:`repro.learn.knn.KNNClassifier.kneighbors`) and the fleet's
batched tick engine (:mod:`repro.serving.engine`) route their selection
through this one function, which is what makes the batched path's
neighbour sets bit-identical to the per-stream loop even in the presence
of exact distance ties.

Two paths implement the rule:

* **Successive argmins** (``k <= _ARGMIN_MAX_K``, which covers the
  paper's k = 3): k row ``argmin`` passes over a working copy, each
  writing ``+inf`` over its pick. ``argmin`` resolves equal values by
  column, not by tie key, so the picks agree with the ``(value,
  tie_key)`` order only when the row has no ties that matter. Three
  kinds of row are handed to the partition path instead: rows holding a
  NaN (``argmin`` returns the first NaN), rows where two picks are equal
  (a tie among the picks, or an ``+inf`` pick repeating a column), and
  rows where an unpicked entry equals the k-th pick (a tie at the
  selection boundary).
* **Partition** (larger k, and the rows above): an ``argpartition``
  down to ``min(2k, n)`` candidates and a small stable double-argsort
  over them. When ties at the selection boundary could extend beyond
  the candidate set (detectable exactly; memories holding duplicate
  rows produce such rows routinely), the affected rows are resolved
  together: every entry strictly below the k-th value, plus the
  entries equal to it with the smallest tie keys, ordered by one small
  ``np.lexsort`` over at most 2k candidates per row.

Both stay O(n) per row.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataError

__all__ = ["lexicographic_topk"]

#: Largest k served by successive argmins. Measured on a 2-core Intel
#: Xeon with numpy 2.4.6 over 500 x 512, 500 x 64, 200 x 600, 2000 x 8,
#: 1 x 512 and 1 x 64 value matrices: against the partition path the
#: argmin path is 1.6x-4.1x faster at k = 3 and at least 1.2x faster
#: at k = 6 on every shape; at k = 7 its margin falls to about 1.1x
#: (2000 x 8) and at k = 8 it loses there (0.84x-0.96x).
_ARGMIN_MAX_K = 6
#: Tie key that masks entries out of a boundary row's equal set.
_NO_KEY = np.iinfo(np.int64).max


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, idx, axis=1)


def lexicographic_topk(
    values, k: int, *, tie_keys=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices of the *k* smallest entries, deterministically.

    Parameters
    ----------
    values:
        ``(n_rows, n_cols)`` float matrix (e.g. squared distances).
        Rows are handled independently. ``+inf`` entries act as
        padding: they lose to every finite value.
    k:
        How many entries to select per row; ``1 <= k <= n_cols``.
    tie_keys:
        Optional ``(n_rows, n_cols)`` integer matrix used to order equal
        values (smaller key wins). Defaults to the column index, i.e.
        ties resolve to the leftmost column. Keys must be unique within
        a row for the order to be total.

    Returns
    -------
    (top_values, top_indices):
        Two ``(n_rows, k)`` arrays; column order is the selection order
        (ascending by ``(value, tie_key)``).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise DataError(f"values must be a non-empty 2-D matrix, got {v.shape}")
    n_rows, n_cols = v.shape
    k = int(k)
    if not 1 <= k <= n_cols:
        raise ConfigurationError(
            f"k must be in [1, {n_cols}], got {k}"
        )
    if tie_keys is None:
        tie = np.broadcast_to(np.arange(n_cols, dtype=np.int64), v.shape)
    else:
        tie = np.asarray(tie_keys)
        if tie.shape != v.shape:
            raise DataError(
                f"tie_keys shape {tie.shape} does not match values {v.shape}"
            )
    if k > _ARGMIN_MAX_K:
        return _partition_topk(v, k, tie)
    top_v, top_i, unsure = _argmin_topk(v, k)
    rows = np.flatnonzero(unsure)
    if rows.size:
        top_v[rows], top_i[rows] = _partition_topk(v[rows], k, tie[rows])
    return top_v, top_i


def _argmin_topk(
    v: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k successive row argmins, plus a mask of rows they may get wrong.

    A row is flagged when its picks could differ from the ``(value,
    tie_key)`` order: it holds a NaN, two of its picks are equal, or an
    unpicked entry equals its k-th pick. Unflagged rows have k distinct
    smallest values, strictly below every other entry, so no tie key
    can reorder them.
    """
    n_rows = v.shape[0]
    work = v.copy()
    rows = np.arange(n_rows)
    top_v = np.empty((n_rows, k), dtype=np.float64)
    top_i = np.empty((n_rows, k), dtype=np.intp)
    for j in range(k):
        pick = work.argmin(axis=1)
        top_i[:, j] = pick
        top_v[:, j] = work[rows, pick]
        work[rows, pick] = np.inf
    # A NaN anywhere in a row is its first pick: argmin returns it.
    unsure = np.isnan(top_v[:, 0])
    unsure |= (top_v[:, 1:] == top_v[:, :-1]).any(axis=1)
    unsure |= work[rows, work.argmin(axis=1)] == top_v[:, k - 1]
    return top_v, top_i, unsure


def _partition_topk(
    v: np.ndarray, k: int, tie: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``argpartition`` selection; exact for any k."""
    n_cols = v.shape[1]
    # Candidate pool: the 2k smallest values per row. Any entry outside
    # the pool is >= the pool's maximum, so the top-k by (value, tie) is
    # contained in the pool unless the k-th selected value *equals* that
    # maximum (checked below).
    m = min(2 * k, n_cols)
    if m < n_cols:
        cand = np.argpartition(v, m - 1, axis=1)[:, :m]
    else:
        cand = np.broadcast_to(np.arange(n_cols), v.shape).copy()
    cv = _take(v, cand)
    ct = _take(tie, cand)

    # Stable two-pass argsort == lexicographic sort by (value, tie).
    by_tie = np.argsort(ct, axis=1, kind="stable")
    cv = _take(cv, by_tie)
    cand = _take(cand, by_tie)
    by_val = np.argsort(cv, axis=1, kind="stable")
    cv = _take(cv, by_val)
    cand = _take(cand, by_val)

    top_v = cv[:, :k]
    top_i = cand[:, :k]
    if m == n_cols:
        return top_v.copy(), top_i.copy()

    # Boundary check: if the k-th selected value reaches the worst
    # candidate value, equal values outside the pool might have smaller
    # tie keys — re-select those rows against the full row.
    unresolved = np.flatnonzero(top_v[:, k - 1] >= cv[:, m - 1])
    if unresolved.size:
        top_v = top_v.copy()
        top_i = top_i.copy()
        top_v[unresolved], top_i[unresolved] = _boundary_topk(
            v[unresolved], k, tie[unresolved], top_v[unresolved, k - 1]
        )
    return top_v, top_i


def _boundary_topk(
    v: np.ndarray, k: int, tie: np.ndarray, kth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k for rows whose k-th value *kth* ties beyond the
    candidate pool, all rows at once.

    Each row's top-k is every entry strictly below its k-th value
    (fewer than k) plus the entries equal to it with the smallest tie
    keys, which is what a full ``np.lexsort((tie, v))`` selects. Both
    sets come from one ``argpartition`` each, on values and on tie keys
    masked to their set, and one ``np.lexsort`` over the at most 2k
    candidates orders them. A row is sorted in full only when the
    masking sentinel is itself a tie key it would select.
    """
    below = v < kth[:, None]
    equal = v == kth[:, None]
    cand = np.concatenate((
        np.argpartition(np.where(below, v, np.inf), k - 1, axis=1)[:, :k],
        np.argpartition(np.where(equal, tie, _NO_KEY), k - 1, axis=1)[:, :k],
    ), axis=1)
    valid = np.concatenate(
        (_take(below, cand[:, :k]), _take(equal, cand[:, k:])), axis=1
    )
    cv = _take(v, cand)
    ct = _take(tie, cand)
    # Invalid fillers last; then (value, tie key), column breaking any
    # remaining tie as the full sort's stability would.
    order = np.lexsort((cand, ct, cv, ~valid), axis=1)[:, :k]
    top_i = _take(cand, order)
    top_v = _take(cv, order)
    redo = np.flatnonzero(
        ~_take(valid, order).all(axis=1)
        | (_take(ct, order) == _NO_KEY).any(axis=1)
    )
    for r in redo.tolist():
        top_i[r] = np.lexsort((tie[r], v[r]))[:k]
        top_v[r] = v[r, top_i[r]]
    return top_v, top_i
