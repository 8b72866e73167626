"""Stacked pre-processing fits for the batched fleet trainer.

A retrain burst fits a z-score normalizer and a PCA basis for every due
stream. Per stream that is a ``mean``/``std`` pass and one small
covariance eigendecomposition; across hundreds of streams the Python
dispatch dominates. :class:`~repro.serving.trainer.BatchedTrainEngine`
runs each equal-length group of streams through these fits instead: the
z-score fit is one broadcast reduction over a ``(S, T)`` history matrix
(:func:`fit_stacked_normalizer`), and the PCA fits are one stacked
covariance ``matmul`` plus one ``np.linalg.eigh`` gufunc call over
``(S, m, m)`` (:func:`fit_stacked_pca`).

Bit-exactness contract
----------------------
* z-score: NumPy's pairwise summation evaluates each row of
  ``mean(axis=1)`` / ``std(axis=1)`` exactly as it evaluates the row
  alone, and ``(x - mu) / sigma`` is elementwise, so broadcasting the
  stacked vectors performs the identical scalar IEEE ops per element.
* PCA: ``np.linalg.eigh`` over ``(S, m, m)`` dispatches the same
  LAPACK driver per slice as :meth:`repro.learn.pca.PCA.fit`, so every
  stream's basis carries the per-stream bits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.preprocess.normalize import scaled_moments

__all__ = [
    "StackedNormalizer",
    "fit_stacked_normalizer",
    "StackedPCAFit",
    "fit_stacked_pca",
]


class StackedNormalizer:
    """Frozen z-score coefficients for many streams, stacked.

    Attributes
    ----------
    means / stds:
        Length ``n_streams`` fitted coefficients (stds already floored
        by each normalizer's ``min_std``).
    """

    __slots__ = ("means", "stds")

    def __init__(self, means: np.ndarray, stds: np.ndarray):
        self.means = means
        self.stds = stds

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Normalize row *s* with stream *s*'s coefficients."""
        return (rows - self.means[:, None]) / self.stds[:, None]


def fit_stacked_normalizer(
    histories: np.ndarray, *, min_std: float = 1e-12
) -> StackedNormalizer:
    """Fit z-score coefficients for every row of a ``(S, T)`` matrix.

    One broadcast reduction instead of S
    :meth:`~repro.preprocess.normalize.ZScoreNormalizer.fit` calls.
    NumPy's pairwise summation evaluates each row of ``mean(axis=1)`` /
    ``std(axis=1)`` exactly as it evaluates the row alone, so the
    stacked coefficients carry the per-stream bits. Rows whose moments
    overflow take the per-stream fallback,
    :func:`~repro.preprocess.normalize.scaled_moments`.
    """
    means = histories.mean(axis=1)
    stds = histories.std(axis=1)
    for s in np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds))):
        means[s], stds[s] = scaled_moments(histories[s])
    return StackedNormalizer(means, np.maximum(stds, min_std))


class StackedPCAFit:
    """The product of a batched PCA training pass over many streams.

    The frozen ``(S, c, m)`` components and ``(S, m)`` means, plus the
    per-stream eigenvalue bookkeeping a fitted
    :class:`~repro.learn.pca.PCA` instance exposes, so each stream's
    slice can reconstitute a full fitted object.
    """

    __slots__ = ("components", "means", "explained_variance",
                 "explained_variance_ratio", "centered")

    def __init__(self, components, means, explained_variance,
                 explained_variance_ratio, centered=None):
        self.components = components
        self.means = means
        self.explained_variance = explained_variance
        self.explained_variance_ratio = explained_variance_ratio
        #: The mean-centered frame tensor the covariances were built
        #: from (kept only on request — it is as large as the input).
        self.centered = centered


def fit_stacked_pca(
    frames: np.ndarray,
    n_components: int,
    *,
    keep_centered: bool = False,
    centered_out: np.ndarray | None = None,
) -> StackedPCAFit:
    """Batched :meth:`~repro.learn.pca.PCA.fit` over a frame tensor.

    *frames* is ``(S, N, m)``: stream *s*'s N training frames. The S
    covariance accumulations collapse into one stacked ``matmul`` and
    the S eigensolves into one gufunc call — ``np.linalg.eigh`` over
    ``(S, m, m)`` dispatches the same LAPACK driver per slice as the
    per-stream fit (which uses ``np.linalg.eigh`` for exactly this
    reason), keeping every stream's basis bit-identical to what
    ``PCA(n_components).fit(frames[s])`` computes.
    """
    if frames.ndim != 3:
        raise ConfigurationError(
            f"frames must be a (S, N, m) tensor, got shape {frames.shape}"
        )
    n_samples, m = frames.shape[1], frames.shape[2]
    if n_components > m:
        raise ConfigurationError(
            f"n_components={n_components} exceeds the feature count {m}"
        )
    if n_samples < 2:
        raise ConfigurationError(
            f"PCA needs at least 2 samples per stream, got {n_samples}"
        )
    means = frames.mean(axis=1)
    # centered_out lets a caller recycle this frame-sized buffer across
    # fits (the subtraction is elementwise — same bits either way).
    centered = np.subtract(frames, means[:, None, :], out=centered_out)
    cov = np.matmul(centered.transpose(0, 2, 1), centered) / (n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    # Descending eigenvalue order, exactly like the per-stream fit's
    # argsort-and-flip (same sort per row, same reversal).
    order = np.argsort(eigvals, axis=1)[:, ::-1]
    eigvals = np.take_along_axis(eigvals, order, axis=1)
    eigvecs = np.take_along_axis(eigvecs, order[:, None, :], axis=2)
    np.maximum(eigvals, 0.0, out=eigvals)
    totals = eigvals.sum(axis=1)
    ratios = np.zeros_like(eigvals)
    positive = totals > 0.0
    ratios[positive] = eigvals[positive] / totals[positive, None]
    components = np.ascontiguousarray(
        eigvecs[:, :, :n_components].transpose(0, 2, 1)
    )
    return StackedPCAFit(
        components=components,
        means=means,
        explained_variance=np.ascontiguousarray(eigvals[:, :n_components]),
        explained_variance_ratio=np.ascontiguousarray(ratios[:, :n_components]),
        centered=centered if keep_centered else None,
    )
