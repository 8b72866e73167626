"""Stacked per-stream pre-processing for batched fleet ticks.

One fleet tick normalizes and projects the trailing window of every
stream. Per stream that is three tiny ops (scalar z-score, tail frame,
``(1, m) @ (m, c)`` PCA projection); across thousands of streams the
Python dispatch dominates. These helpers stack the frozen per-stream
coefficients once — ``(mu, sigma)`` vectors, a ``(n_streams, c, m)``
component tensor — so a whole tick is a broadcast subtract/divide and
one 3-D ``matmul``.

Bit-exactness contract
----------------------
* z-score: ``(x - mu) / sigma`` is elementwise; broadcasting the
  stacked vectors performs the identical scalar IEEE ops per element.
* PCA: the stacked projection uses ``np.matmul`` over 3-D operands,
  with each stream's component matrix laid out exactly like the
  per-stream ``components_.T`` view (contiguous ``(c, m)`` storage,
  transposed axes), so every slice hits the same BLAS GEMM as
  :meth:`repro.learn.pca.PCA.transform` and returns the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.preprocess.normalize import scaled_moments

__all__ = [
    "StackedNormalizer",
    "stack_normalizers",
    "StackedPCA",
    "stack_pcas",
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

    def transform_values(self, values: np.ndarray) -> np.ndarray:
        """Normalize one scalar per stream."""
        return (values - self.means) / self.stds

    def inverse_transform_values(self, values: np.ndarray) -> np.ndarray:
        """De-normalize one scalar per stream."""
        return values * self.stds + self.means


def stack_normalizers(normalizers) -> StackedNormalizer:
    """Stack fitted :class:`~repro.preprocess.normalize.ZScoreNormalizer`s."""
    normalizers = list(normalizers)
    if not normalizers:
        raise ConfigurationError("need at least one normalizer to stack")
    means = np.array([n.mean for n in normalizers], dtype=np.float64)
    stds = np.array([n.std for n in normalizers], dtype=np.float64)
    return StackedNormalizer(means, stds)


class StackedPCA:
    """Frozen per-stream PCA bases stacked for one 3-D projection.

    Attributes
    ----------
    components:
        ``(n_streams, c, m)`` tensor; slice *s* is stream *s*'s
        contiguous ``components_`` matrix.
    means:
        ``(n_streams, m)`` per-feature training means.
    """

    __slots__ = ("components", "means")

    def __init__(self, components: np.ndarray, means: np.ndarray):
        self.components = components
        self.means = means

    @property
    def n_components(self) -> int:
        return int(self.components.shape[1])

    def transform(self, frames: np.ndarray) -> np.ndarray:
        """Project row *s* of *frames* with stream *s*'s basis.

        ``components.transpose(0, 2, 1)`` gives each slice the same
        shape *and strides* as the per-stream ``components_.T`` operand,
        which is what keeps the stacked GEMM bit-identical.
        """
        centered = frames - self.means
        z = np.matmul(centered[:, None, :], self.components.transpose(0, 2, 1))
        return z[:, 0, :]


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

    Extends :class:`StackedPCA`'s frozen (components, means) pair with
    the per-stream eigenvalue bookkeeping a fitted
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


def stack_pcas(pcas) -> StackedPCA:
    """Stack fitted :class:`~repro.learn.pca.PCA` instances.

    All instances must keep the same component count (the fleet trains
    every stream with one shared :class:`~repro.core.config.LARConfig`,
    so this holds by construction).
    """
    pcas = list(pcas)
    if not pcas:
        raise ConfigurationError("need at least one PCA to stack")
    shapes = {p.components_.shape for p in pcas}
    if len(shapes) > 1:
        raise ConfigurationError(
            f"cannot stack PCA bases of differing shapes: {sorted(shapes)}"
        )
    components = np.ascontiguousarray(
        np.stack([p.components_ for p in pcas], axis=0)
    )
    means = np.stack([p.mean_ for p in pcas], axis=0)
    return StackedPCA(components, means)
