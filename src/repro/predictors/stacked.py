"""Cross-stream stacked evaluation of the paper pool's members.

The fleet evaluates one pool member over *many streams at once*: every
member of the paper pool (LAST, AR, SW_AVG) is affine in its input
window, so a whole fleet's forecasts collapse into a few stacked NumPy
calls instead of one Python dispatch per stream. One kernel family
serves both batched paths: the kernels take an ``(S, N, m)`` frame
tensor, which :class:`~repro.serving.trainer.BatchedTrainEngine` fills
with each stream's N training frames and
:class:`~repro.serving.engine.BatchedTickEngine` with one tick frame
per stream (N = 1).

Bit-exactness contract
----------------------
Each kernel must produce, for slice *s*, exactly the float64 bits the
per-stream call produces for that stream alone:

* LAST and SW_AVG are a column copy and a mean along each frame —
  NumPy evaluates the reduction over the contiguous frame axis
  independently per frame, so stacking changes nothing.
* AR is a per-stream dot product. ``np.matmul`` over stacked 3-D
  operands dispatches each ``(N, p) @ (p, 1)`` slice to the same BLAS
  kernel as the per-stream ``(lagged - mu) @ phi`` call, which keeps
  the result bitwise identical — unlike ``einsum`` or a
  multiply-then-sum formulation, which associate differently.

The parity tests in ``tests/test_serving_engine.py`` and
``tests/test_serving_trainer.py`` pin this contract.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "StackedARParams",
    "ar_predict_frames_stacked",
    "last_predict_frames_stacked",
    "sw_avg_predict_frames_stacked",
    "paper_pool_predict_frames_stacked",
]


class StackedARParams:
    """Per-stream AR parameters stacked for batched evaluation.

    Attributes
    ----------
    coefficients:
        ``(n_streams, p)`` Yule–Walker coefficients, one row per stream.
    means:
        Length ``n_streams`` training means.
    order:
        The shared AR order *p* (streams with differing orders cannot be
        stacked).
    """

    __slots__ = ("coefficients", "means", "order")

    def __init__(self, coefficients: np.ndarray, means: np.ndarray):
        self.coefficients = coefficients
        self.means = means
        self.order = int(coefficients.shape[1])


def ar_predict_frames_stacked(
    frames: np.ndarray,
    params: StackedARParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """AR over a ``(n_streams, n_frames, m)`` frame tensor.

    Every frame of every stream, evaluated under that stream's fit, in
    one stacked ``matmul`` — bit-identical per slice to
    :meth:`ARPredictor._predict_batch` on the stream's own frame matrix.
    """
    p = params.order
    if frames.shape[2] < p:
        raise ConfigurationError(
            f"AR({p}) needs frames of at least {p} values, got {frames.shape[2]}"
        )
    mu = params.means
    lagged = frames[:, :, -1 : -p - 1 : -1]
    centered = lagged - mu[:, None, None]
    dots = np.matmul(centered, params.coefficients[:, :, None])
    return np.add(mu[:, None], dots[:, :, 0], out=out)


def last_predict_frames_stacked(
    frames: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Stacked LAST over a frame tensor: last column per stream, copied."""
    if out is None:
        return frames[:, :, -1].copy()
    out[:] = frames[:, :, -1]
    return out


def sw_avg_predict_frames_stacked(
    frames: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Stacked SW_AVG (whole-frame window) over a frame tensor: the mean
    along each frame."""
    return frames.mean(axis=2, out=out)


def paper_pool_predict_frames_stacked(
    frames: np.ndarray,
    ar_params: StackedARParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Every paper-pool member over every frame of every stream.

    Returns ``(n_streams, n_frames, 3)`` predictions in pool label order
    (1=LAST, 2=AR, 3=SW_AVG) — the stacked counterpart of
    :meth:`PredictorPool.predict_all` over each stream's frame matrix,
    written so each slice matches the per-stream bits.
    Each member writes straight into its output plane (no intermediate
    per-member allocation; the values are what the allocating calls
    return). *out*, when given, must be a ``(n_streams, n_frames, 3)``
    float64 array and is returned filled.
    """
    if out is None:
        out = np.empty(frames.shape[:2] + (3,), dtype=np.float64)
    last_predict_frames_stacked(frames, out=out[:, :, 0])
    ar_predict_frames_stacked(frames, ar_params, out=out[:, :, 1])
    sw_avg_predict_frames_stacked(frames, out=out[:, :, 2])
    return out
