"""The batched fleet retraining engine: one training burst, stacked.

PR 2's tick engine made the fleet's *read* path a handful of NumPy ops,
which moved the cost center to the *write* path: every QA-ordered
retrain re-runs the full per-stream training phase — normalizer fit,
pool fits, per-frame best-predictor labelling, PCA eigendecomposition,
k-NN memory rebuild — one Python call chain (or one pickled
``parallel_map`` payload) per due stream. A drift storm across hundreds
of streams therefore paid hundreds of serialized trainings.

:class:`BatchedTrainEngine` runs the whole burst as one stacked
computation. Due histories are grouped by length into ``(S, T)``
matrices, and per group:

* the z-score fit is one broadcast ``mean``/``std`` over rows
  (:func:`repro.preprocess.stacked.fit_stacked_normalizer`);
* framing is one strided-view copy into a contiguous ``(S, N, m)``
  tensor;
* the pool's labelling pass is one ``(S, N, 3)`` prediction tensor
  (:func:`repro.predictors.stacked.paper_pool_predict_frames_stacked`)
  plus a batched centered-window MSE smoothing and a single argmin;
* the PCA fits are one stacked covariance ``matmul`` plus one
  ``np.linalg.eigh`` gufunc call over ``(S, m, m)``
  (:func:`repro.preprocess.stacked.fit_stacked_pca`);
* each stream's k-NN growth-buffer memory is constructed directly from
  its precomputed feature/label rows
  (:meth:`repro.learn.knn.KNNClassifier.from_rows`).

Only the Yule–Walker solve stays a per-stream loop: its Levinson–Durbin
recursion is O(p^2) on tiny inputs, and reusing
:func:`repro.predictors.ar.yule_walker` verbatim is what guarantees the
coefficients carry the per-stream bits.

Bit-exactness contract
----------------------
Like the tick engine, this is an execution strategy, not a model
change: for every stream the assembled
:class:`~repro.core.online.OnlineLARPredictor` must be in the identical
state a per-stream ``train(history)`` would produce — same normalizer
coefficients, AR parameters, PCA basis, labels, classifier memory, and
history. Every kernel was chosen for that property (broadcast
elementwise ops, row-wise pairwise reductions, stacked ``matmul`` whose
slices hit the same BLAS calls, one shared LAPACK eigensolver); the
parity suite in ``tests/test_serving_trainer.py`` locks it in. Configs
the stacked kernels do not cover (extended pool, ``min_variance`` PCA —
both imply per-stream shapes) report :attr:`BatchedTrainEngine.supported`
as ``False`` and the fleet falls back to a per-stream training loop.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from repro.core.online import FittedParts, OnlineLARPredictor, RelabelResult
from repro.core.relabel import SplicePlan, plan_splice, relabel_group
from repro.exceptions import ConfigurationError, DataError
from repro.predictors.ar import yule_walker

try:
    # The Levinson-Durbin kernel scipy.linalg.solve_toeplitz wraps.
    # Calling it directly skips the wrapper's per-call validation, which
    # dominates a burst of thousands of order-p solves; the kernel gets
    # the exact arrays the wrapper would build, so the bits are the
    # wrapper's bits. Guarded: if a future scipy moves it, the trainer
    # silently falls back to the public per-stream yule_walker.
    from scipy.linalg._solve_toeplitz import levinson as _levinson
except ImportError:  # pragma: no cover - depends on scipy internals
    _levinson = None
from repro.predictors.stacked import (
    StackedARParams,
    paper_pool_predict_frames_stacked,
)
from repro.preprocess.stacked import fit_stacked_normalizer, fit_stacked_pca

__all__ = ["BatchedTrainEngine", "GroupFit", "RelabelGroupInputs"]

#: Shared inert context manager for the untraced path.
_NULL_SPAN = nullcontext()


def _count_labels_rows(labels: np.ndarray, n_pool: int) -> np.ndarray:
    """Per-stream label counts over an ``(S, N)`` label matrix.

    One flat ``bincount`` with per-row offsets — integer counting, so
    row *s* is exactly ``[(labels[s] == v).sum() for v in 1..n_pool]``
    without materializing a boolean mask per member. Returns an
    ``(S, n_pool)`` int64 matrix.
    """
    n_streams, n_frames = labels.shape
    width = n_pool + 1
    offsets = labels + (np.arange(n_streams, dtype=np.int64) * width)[:, None]
    flat = np.bincount(offsets.ravel(), minlength=n_streams * width)
    return flat.reshape(n_streams, width)[:, 1:]


def _stack_by_length(histories) -> list[tuple[list[int], np.ndarray]]:
    """Group 1-D histories by exact length, in first-seen order.

    Returns one ``(indices, stack)`` pair per length: the input
    positions and their ``(S, T)`` float64 stack. Padding mixed lengths
    into one matrix was rejected: the normalizer and AR fits reduce
    over the whole history, so padded rows could not stay bit-identical
    to their per-stream fits.
    """
    arrays = [np.ascontiguousarray(h, dtype=np.float64) for h in histories]
    groups: dict[int, list[int]] = {}
    for index, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise DataError(f"history must be 1-D, got shape {arr.shape}")
        groups.setdefault(arr.shape[0], []).append(index)
    return [
        (indices, np.stack([arrays[i] for i in indices], axis=0))
        for indices in groups.values()
    ]


class GroupFit(NamedTuple):
    """Stacked fitted tensors for one equal-length group.

    Everything :meth:`~repro.core.online.OnlineLARPredictor.from_fitted_parts`
    needs, predictor-free — what an asynchronous cold-group unit ships
    back from the worker pool (see :mod:`repro.serving.retrain`).
    """

    norm_means: np.ndarray
    norm_stds: np.ndarray
    ar_means: np.ndarray
    ar_phi: np.ndarray
    ar_noise: np.ndarray
    frames: np.ndarray
    targets: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    pca_means: np.ndarray | None
    pca_components: np.ndarray | None
    pca_explained_variance: np.ndarray | None
    pca_explained_variance_ratio: np.ndarray | None


class RelabelGroupInputs(NamedTuple):
    """Frozen-parameter tensors for one relabel group, predictor-free.

    Everything :meth:`BatchedTrainEngine._compute_relabel_group` reads,
    packed from live predictors at submission time. Pure ndarrays plus a
    :class:`~repro.core.relabel.SplicePlan`, so the whole record pickles
    — what an asynchronous relabel-group unit ships to the persistent
    pool (see :mod:`repro.serving.retrain`) while the serving tick keeps
    running on the old models.
    """

    histories: np.ndarray
    norm_means: np.ndarray
    norm_stds: np.ndarray
    ar_phi: np.ndarray
    ar_means: np.ndarray
    plan: SplicePlan | None
    cached_sq: tuple | None
    cached_labels: tuple | None
    sw_window: int
    pca_means: np.ndarray | None
    pca_components: np.ndarray | None


class BatchedTrainEngine:
    """Stacked training-phase kernels for one fleet configuration.

    The engine carries no per-stream state between bursts — it holds
    the shared policy plus recycled scratch tensors, so one instance
    serves a fleet for its lifetime (and survives config-compatible
    predictor turnover trivially). The scratch cache makes the engine
    **not thread-safe**; a fleet drives it from one thread.

    Parameters
    ----------
    config:
        The fleet's shared :class:`~repro.serving.fleet.FleetConfig`
        (any object with ``lar``, ``label_smoothing``, ``max_memory``
        and ``history_limit`` attributes works).
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; when set, every batched
        burst records per-phase tracing spans (``train.zscore_fit``,
        ``train.ar_fit``, ``train.labelling``, ``train.pca_eigh``,
        ``train.rebuild``) with the group size as the batch.
    """

    def __init__(self, config, *, telemetry=None) -> None:
        self._config = config
        self._tel = telemetry
        self._lar = config.lar
        # min_variance lets each stream keep a different component
        # count and extended pools carry members without stacked
        # kernels; both fall back to the per-stream path.
        self._supported = (
            self._lar.min_variance is None and not self._lar.extended_pool
        )
        # Recycled burst-local tensors, keyed by role. Only arrays that
        # never escape into the built predictors live here (error/cumsum
        # scratch, AR work arrays, the PCA centering buffer) — anything
        # a predictor keeps a view of (histories, frames, features,
        # labels, ...) is allocated fresh every burst. Reuse matters:
        # these are multi-megabyte blocks that glibc would otherwise
        # hand back to the OS after every burst, so a drift storm of
        # same-sized bursts repays the page faults each time.
        self._scratch: dict[str, np.ndarray] = {}

    def _span(self, name: str, batch: int):
        """A tracing span when telemetry is wired, else the shared no-op."""
        if self._tel is None:
            return _NULL_SPAN
        return self._tel.tracer.span(name, batch=batch)

    def _scratch_buf(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._scratch.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._scratch[key] = buf
        return buf

    @property
    def supported(self) -> bool:
        """Whether this config's training phase can run stacked."""
        return self._supported

    @property
    def relabel_supported(self) -> bool:
        """Whether incremental relabels can run stacked.

        Broader than :attr:`supported`: ``min_variance`` PCA only breaks
        the stacked *fit* (per-stream component counts), but a relabel
        keeps each stream's frozen basis and projects features
        per-stream, so ragged components are fine. Extended pools stay
        out — their members must be refitted per window, which is a
        full retrain by definition.
        """
        return not self._lar.extended_pool

    # -- the batched burst ----------------------------------------------------

    def train_many(self, histories) -> list[OnlineLARPredictor]:
        """Train one predictor per history, batched.

        Histories are grouped by exact length (:func:`_stack_by_length`)
        and each group trained as one stacked computation; ragged tails
        (streams mid-warm-up, short history limits) simply form smaller
        groups.

        Returns predictors in input order, each indistinguishable from
        ``OnlineLARPredictor(config.lar, ...).train(history)``.
        """
        if not self._supported:
            raise ConfigurationError(
                "this configuration cannot be trained batched "
                "(extended pool or min_variance PCA); use the per-stream path"
            )
        out: list[OnlineLARPredictor | None] = [None] * len(histories)
        for indices, stacked in _stack_by_length(histories):
            for position, predictor in zip(
                indices, self._train_group(stacked)
            ):
                out[position] = predictor
        return out  # type: ignore[return-value]

    def relabel_many(self, tasks) -> list[RelabelResult]:
        """Incremental relabels for one burst, batched.

        Each task is ``(predictor, history, start, cached)``: the
        stream's current (frozen-parameter) predictor, its new raw
        window, the absolute lifetime index of ``history[0]``, and the
        stream's :class:`~repro.core.relabel.CachedLabels` tail (or
        ``None`` for a full relabel). Tasks are grouped by window length
        *and* splice geometry — streams whose caches reuse the same row
        ranges stack into one :func:`~repro.core.relabel.relabel_group`
        call; cache misses form their own full-relabel groups.

        Returns :class:`~repro.core.online.RelabelResult` rows in input
        order, each bit-identical to the per-stream
        :meth:`~repro.core.online.OnlineLARPredictor.relabel` — the
        contract the label-cache parity suite pins for both paths.
        """
        if not self.relabel_supported:
            raise ConfigurationError(
                "this configuration cannot be relabelled "
                "(extended pool); use the full retrain path"
            )
        n_tasks, groups = self._prepare_relabel_groups(tasks)
        out: list[RelabelResult | None] = [None] * n_tasks
        for items in groups:
            self._relabel_group_tasks(items, out)
        return out  # type: ignore[return-value]

    # -- internals -------------------------------------------------------------

    def _prepare_relabel_groups(self, tasks):
        """Validate tasks and bucket them by (length, splice geometry).

        Returns ``(n_tasks, groups)`` where each group is a list of
        ``(index, predictor, history, plan, cached)`` items sharing one
        window length and cache-reuse shape — one stacked relabel unit
        (see :func:`repro.serving.retrain.build_units`).
        """
        lar = self._lar
        w = lar.window
        smooth = self._config.label_smoothing
        prepared = []
        for index, (predictor, history, start, cached) in enumerate(tasks):
            arr = np.ascontiguousarray(history, dtype=np.float64)
            if arr.ndim != 1:
                raise DataError(f"history must be 1-D, got shape {arr.shape}")
            if arr.shape[0] < w + 2:
                raise DataError(
                    f"history has {arr.shape[0]} values but at least "
                    f"{w + 2} are required"
                )
            plan = None
            if cached is not None:
                plan = plan_splice(
                    cached.start,
                    cached.labels.shape[0],
                    int(start),
                    arr.shape[0] - w,
                    smooth,
                )
            prepared.append((index, predictor, arr, plan, cached))
        groups: dict[tuple, list] = {}
        for item in prepared:
            plan = item[3]
            geometry = (
                None
                if plan is None
                else (plan.reuse, plan.label_lo, plan.label_hi)
            )
            groups.setdefault((item[2].shape[0], geometry), []).append(item)
        return len(prepared), list(groups.values())

    def _pack_relabel_group(self, items) -> RelabelGroupInputs:
        """Snapshot one group's frozen parameters into pure tensors.

        Reads every live predictor exactly once, so the result is a
        self-contained (and picklable) compute input: an asynchronous
        round packs at submission and the predictors are free to keep
        serving — later observations never touch frozen parameters.
        """
        lar = self._lar
        histories = np.stack([item[2] for item in items], axis=0)
        predictors = [item[1] for item in items]
        plan = items[0][3]
        cached_sq = cached_labels = None
        if plan is not None:
            # Per-stream deltas differ; the reuse/label bounds are the
            # group key, so the sliced views share a shape and
            # relabel_group copies them straight into its output
            # tensors (no intermediate stack).
            cached_sq = tuple(
                item[4].sq[p.delta : p.delta + p.reuse]
                for item in items
                for p in (item[3],)
            )
            cached_labels = tuple(
                item[4].labels[p.delta + p.label_lo : p.delta + p.label_hi]
                for item in items
                for p in (item[3],)
            )
        runners = [p._runner for p in predictors]
        norm_means = np.array(
            [r.pipeline.normalizer.mean for r in runners], dtype=np.float64
        )
        norm_stds = np.array(
            [r.pipeline.normalizer.std for r in runners], dtype=np.float64
        )
        ar_members = [r.pool[1] for r in runners]
        ar_phi = np.stack(
            [np.ascontiguousarray(m.coefficients_) for m in ar_members]
        )
        ar_means = np.array([m.mean_ for m in ar_members], dtype=np.float64)
        sw_window = runners[0].pool[2].window
        # Fixed component counts: stack the frozen bases so the group
        # projects every stream's features in one stacked matmul — the
        # same per-slice gemm the per-stream ``pca.transform`` issues.
        # Ragged bases (min_variance) keep the per-stream loop below.
        pca_means = pca_components = None
        if lar.n_components is not None and lar.min_variance is None:
            pca_means = np.stack([r.pipeline.pca.mean_ for r in runners])
            pca_components = np.stack(
                [r.pipeline.pca.components_ for r in runners]
            )
        return RelabelGroupInputs(
            histories=histories,
            norm_means=norm_means,
            norm_stds=norm_stds,
            ar_phi=ar_phi,
            ar_means=ar_means,
            plan=plan,
            cached_sq=cached_sq,
            cached_labels=cached_labels,
            sw_window=sw_window,
            pca_means=pca_means,
            pca_components=pca_components,
        )

    def _run_relabel_group(self, inputs: RelabelGroupInputs):
        """Compute one packed group in-process."""
        return self._compute_relabel_group(
            inputs.histories, inputs.norm_means, inputs.norm_stds,
            inputs.ar_phi, inputs.ar_means, inputs.plan,
            inputs.cached_sq, inputs.cached_labels, inputs.sw_window,
            inputs.pca_means, inputs.pca_components,
        )

    def _relabel_group_tasks(self, items, out) -> None:
        """Relabel one equal-(length, splice-geometry) group of tasks."""
        computed = self._run_relabel_group(self._pack_relabel_group(items))
        self._finish_relabel_group(items, computed, out)

    def _finish_relabel_group(self, items, computed, out) -> None:
        """Assemble one group's computed tensors into RelabelResults."""
        lar = self._lar
        cfg = self._config
        smooth = cfg.label_smoothing
        frames, targets, sq, labels, counts, features_stack = computed
        counts_rows = counts.tolist()
        for s, (index, predictor, arr, task_plan, _cached) in enumerate(items):
            pipeline = predictor._runner.pipeline
            normalizer = pipeline.normalizer
            ar = predictor._runner.pool[1]
            pca = pipeline.pca
            if features_stack is not None:
                features = features_stack[s]
            elif pca is not None:
                features = pca.transform(frames[s])
            else:
                features = frames[s]
            parts = FittedParts(
                history=arr,
                norm_mean=normalizer.mean,
                norm_std=normalizer.std,
                ar_mean=ar.mean_,
                ar_coefficients=ar.coefficients_,
                ar_noise_variance=ar.noise_variance_,
                frames=frames[s],
                targets=targets[s],
                features=features,
                labels=labels[s],
                pca_mean=None if pca is None else pca.mean_,
                pca_components=None if pca is None else pca.components_,
                pca_explained_variance=(
                    None if pca is None else pca.explained_variance_
                ),
                pca_explained_variance_ratio=(
                    None if pca is None else pca.explained_variance_ratio_
                ),
                label_counts={
                    v: c
                    for v, c in enumerate(counts_rows[s], start=1)
                    if c
                },
            )
            out[index] = RelabelResult(
                predictor=OnlineLARPredictor.from_fitted_parts(
                    lar,
                    parts,
                    label_smoothing=smooth,
                    max_memory=cfg.max_memory,
                    history_limit=cfg.history_limit,
                ),
                sq=sq[s],
                labels=labels[s],
                reused=0 if task_plan is None else task_plan.reuse,
                labels_reused=(
                    0
                    if task_plan is None
                    else task_plan.label_hi - task_plan.label_lo
                ),
            )

    def _compute_relabel_group(
        self,
        histories: np.ndarray,
        norm_means: np.ndarray,
        norm_stds: np.ndarray,
        ar_phi: np.ndarray,
        ar_means: np.ndarray,
        plan,
        cached_sq,
        cached_labels,
        sw_window: int,
        pca_means,
        pca_components,
    ):
        """The in-process relabel kernels for one grouped burst.

        Pure stacked computation on frozen parameters — no predictor
        objects, so a pool worker can run it on an asynchronous relabel
        unit.
        Returns ``(frames, targets, sq, labels, counts, features)``
        where ``features`` is ``None`` unless a stacked projection
        applies (fixed component counts).
        """
        lar = self._lar
        n_streams = histories.shape[0]
        with self._span("train.relabel", n_streams):
            frames, targets, sq, labels = relabel_group(
                histories,
                norm_means,
                norm_stds,
                ar_phi,
                ar_means,
                window=lar.window,
                smooth=self._config.label_smoothing,
                sw_window=sw_window,
                plan=plan,
                cached_sq=cached_sq,
                cached_labels=cached_labels,
                sums_out=self._scratch_buf(
                    "relabel_sums",
                    (n_streams, histories.shape[1] - lar.window, 3),
                ),
            )
            counts = _count_labels_rows(labels, sq.shape[2])
        features = None
        if pca_means is not None:
            with self._span("train.relabel_project", n_streams):
                centered = np.subtract(
                    frames,
                    pca_means[:, None, :],
                    out=self._scratch_buf("relabel_centered", frames.shape),
                )
                features = np.matmul(
                    centered, pca_components.transpose(0, 2, 1)
                )
        return frames, targets, sq, labels, counts, features

    def _train_group(self, histories: np.ndarray) -> list[OnlineLARPredictor]:
        """Run the full training phase for one ``(S, T)`` equal-length group."""
        return self._build_group_predictors(
            histories, self._compute_train_group(histories)
        )

    def _compute_train_group(self, histories: np.ndarray) -> GroupFit:
        """The in-process training kernels for one ``(S, T)`` group.

        Every kernel here reads only its own row of the stack, which is
        the property that lets an asynchronous round split a cold group
        into row chunks bit-safely — pool workers call exactly this
        method on their chunk.
        """
        lar = self._lar
        w = lar.window
        p = lar.effective_ar_order
        n_streams, length = histories.shape
        if length < w + 2:
            raise DataError(
                f"history has {length} values but at least {w + 2} are required"
            )
        if not np.isfinite(histories).all():
            raise DataError("histories contain non-finite value(s)")

        # Broadcast z-score fit + transform (one reduction, one divide).
        with self._span("train.zscore_fit", n_streams):
            norm = fit_stacked_normalizer(histories)
            z = norm.transform(histories)

            # Stacked framing: stream s's frames are exactly
            # sliding_window_view(z[s, :-1], w); the contiguous copy
            # gives each slice the same layout the per-stream kernels
            # receive.
            frames = np.ascontiguousarray(
                np.lib.stride_tricks.sliding_window_view(z[:, :-1], w, axis=1)
            )
            targets = z[:, w:]

        # AR fits: batched means and autocovariances, then one tiny
        # Levinson-Durbin solve per stream.
        with self._span("train.ar_fit", n_streams):
            ar_means = z.mean(axis=1)
            ar_phi, ar_noise = self._fit_ar_batched(z, ar_means, p)

        # The labelling pass: one (S, N, 3) pool-prediction tensor, one
        # error tensor, one batched centered-window smoothing, one
        # argmin. The error math runs in place on the prediction tensor
        # (abs/square are elementwise, so the bits don't care).
        with self._span("train.labelling", n_streams):
            ar_params = StackedARParams(ar_phi, ar_means)
            sq = paper_pool_predict_frames_stacked(
                frames,
                ar_params,
                out=self._scratch_buf("pool_sq", frames.shape[:2] + (3,)),
            )
            np.subtract(sq, targets[:, :, None], out=sq)
            np.abs(sq, out=sq)
            np.multiply(sq, sq, out=sq)
            n_pool = sq.shape[2]
            labels = self._smoothed_argmin_labels(sq)
            # Count every stream's label alphabet in one vectorized pass
            # (labels are 1..n_pool by construction); each classifier
            # then skips its own counting reduction.
            counts = _count_labels_rows(labels, n_pool)

        # Batched PCA fits + the stacked feature projection. The fit
        # already centered the frames for its covariances; projecting
        # that same tensor skips recomputing ``frames - means``.
        with self._span("train.pca_eigh", n_streams):
            if lar.n_components is not None:
                pca = fit_stacked_pca(
                    frames,
                    lar.n_components,
                    keep_centered=True,
                    centered_out=self._scratch_buf(
                        "pca_centered", frames.shape
                    ),
                )
                features = np.matmul(
                    pca.centered, pca.components.transpose(0, 2, 1)
                )
            else:
                pca = None
                features = frames

        return GroupFit(
            norm_means=norm.means,
            norm_stds=norm.stds,
            ar_means=ar_means,
            ar_phi=ar_phi,
            ar_noise=ar_noise,
            frames=frames,
            targets=targets,
            features=features,
            labels=labels,
            counts=counts,
            pca_means=None if pca is None else pca.means,
            pca_components=None if pca is None else pca.components,
            pca_explained_variance=(
                None if pca is None else pca.explained_variance
            ),
            pca_explained_variance_ratio=(
                None if pca is None else pca.explained_variance_ratio
            ),
        )

    def _build_group_predictors(
        self, histories: np.ndarray, fit: GroupFit
    ) -> list[OnlineLARPredictor]:
        """Assemble one predictor per row of a :class:`GroupFit`."""
        lar = self._lar
        cfg = self._config
        n_streams = histories.shape[0]
        with self._span("train.rebuild", n_streams):
            # Per-stream scalars as plain floats in one pass each
            # (indexing a Python list beats boxing a NumPy scalar 500
            # times over).
            norm_means = fit.norm_means.tolist()
            norm_stds = fit.norm_stds.tolist()
            ar_means_list = fit.ar_means.tolist()
            ar_noise_list = fit.ar_noise.tolist()
            counts_rows = fit.counts.tolist()
            has_pca = fit.pca_means is not None

            predictors = []
            for s in range(n_streams):
                parts = FittedParts(
                    history=histories[s],
                    norm_mean=norm_means[s],
                    norm_std=norm_stds[s],
                    ar_mean=ar_means_list[s],
                    ar_coefficients=fit.ar_phi[s],
                    ar_noise_variance=ar_noise_list[s],
                    frames=fit.frames[s],
                    targets=fit.targets[s],
                    features=fit.features[s],
                    labels=fit.labels[s],
                    pca_mean=fit.pca_means[s] if has_pca else None,
                    pca_components=fit.pca_components[s] if has_pca else None,
                    pca_explained_variance=(
                        fit.pca_explained_variance[s] if has_pca else None
                    ),
                    pca_explained_variance_ratio=(
                        fit.pca_explained_variance_ratio[s] if has_pca else None
                    ),
                    label_counts={
                        v: c
                        for v, c in enumerate(counts_rows[s], start=1)
                        if c
                    },
                )
                predictors.append(
                    OnlineLARPredictor.from_fitted_parts(
                        lar,
                        parts,
                        label_smoothing=cfg.label_smoothing,
                        max_memory=cfg.max_memory,
                        history_limit=cfg.history_limit,
                    )
                )
        return predictors

    def _fit_ar_batched(
        self, z: np.ndarray, ar_means: np.ndarray, p: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :func:`~repro.predictors.ar.yule_walker` over the rows
        of *z*: the autocovariances run as stacked row-wise ``matmul``
        dot products (same BLAS dot per slice as the per-stream ``@``),
        and each order-*p* Toeplitz solve calls the Levinson kernel
        directly on the arrays ``solve_toeplitz`` would hand it. Every
        stream's ``(coefficients, noise_variance)`` carries the exact
        bits ``yule_walker(z[s] - mean, p)`` returns — the degenerate
        paths (zero lag-0 autocovariance, singular systems, the kernel
        being unavailable) simply delegate to it.
        """
        n_streams, length = z.shape
        # The per-stream path centers twice: yule_walker receives the
        # mean-subtracted series, and autocovariance() re-centers it
        # (the residual mean is ~1e-17, not exactly zero). Both passes
        # run in one recycled buffer (elementwise, so bits don't care).
        centered = np.subtract(
            z, ar_means[:, None], out=self._scratch_buf("ar_work", z.shape)
        )
        xc = np.subtract(centered, centered.mean(axis=1)[:, None], out=centered)
        acov = np.empty((n_streams, p + 1), dtype=np.float64)
        for lag in range(p + 1):
            acov[:, lag] = (
                np.matmul(xc[:, None, : length - lag], xc[:, lag:, None])[:, 0, 0]
                / length
            )
        phi = np.zeros((n_streams, p), dtype=np.float64)
        # Streams whose noise variance yule_walker already produced
        # (degenerate paths); everything else gets the batched dot below.
        manual_noise: dict[int, float] = {}
        nonpos = (acov[:, 0] <= 0.0).tolist()
        # Every stream's Levinson operands, built in two stacked ops:
        # row s of vals/rhs is exactly what solve_toeplitz would pass.
        vals = np.ascontiguousarray(
            np.concatenate((acov[:, p - 1 : 0 : -1], acov[:, :p]), axis=1)
        )
        rhs = np.ascontiguousarray(acov[:, 1:])
        for s in range(n_streams):
            if nonpos[s]:
                continue  # constant stream: zero coefficients, zero noise
            if _levinson is None:
                mean = float(ar_means[s])
                phi[s], manual_noise[s] = yule_walker(
                    z[s] - mean if mean != 0.0 else z[s], p
                )
                continue
            try:
                phi[s] = _levinson(vals[s], rhs[s])[0]
            except np.linalg.LinAlgError:
                # Singular Toeplitz system: yule_walker's ridge fallback
                # (it recomputes the same autocovariances, so the result
                # is the one the per-stream path produces).
                mean = float(ar_means[s])
                phi[s], manual_noise[s] = yule_walker(
                    z[s] - mean if mean != 0.0 else z[s], p
                )
        if not np.all(np.isfinite(phi)):
            raise DataError("Yule-Walker produced non-finite AR coefficients")
        # Innovation variances for the whole batch in one stacked dot:
        # the row-wise matmul carries the same bits as each stream's
        # 1-D ``phi[s] @ rhs[s]``, and ``where(diff >= 0)`` clamps like
        # the scalar ``max(..., 0.0)`` (keeping an exactly-zero
        # residual's sign). Zero-coefficient rows reduce to the skipped
        # streams' 0.0.
        diff = acov[:, 0] - np.matmul(phi[:, None, :], rhs[:, :, None])[:, 0, 0]
        noise = np.where(diff >= 0.0, diff, 0.0)
        for s, value in manual_noise.items():
            noise[s] = value
        return phi, noise

    def _smoothed_argmin_labels(self, sq: np.ndarray) -> np.ndarray:
        """Batched :meth:`PredictorPool.best_labels` over ``(S, N, 3)``
        squared errors: the centered cumulative-sum window smoothing,
        run once along axis 1 (cumsum and the fancy-indexed differences
        are per-(stream, member) sequential, so each slice reproduces
        the per-stream summation order), then one argmin."""
        smooth = self._config.label_smoothing
        if smooth > 1:
            n_streams, n_frames, n_pool = sq.shape
            half = smooth // 2
            cum = self._scratch_buf(
                "smooth_cum", (n_streams, n_frames + 1, n_pool)
            )
            cum[:, 0] = 0.0
            np.cumsum(sq, axis=1, out=cum[:, 1:])
            if n_frames > smooth:
                # Only the first `half` and last `smooth - half` frames
                # clip their window; everything between is a plain
                # difference of two shifted slices (same elements as the
                # per-stream fancy-indexed gather, no gather cost).
                out = self._scratch_buf("smooth_out", sq.shape)
                interior_end = n_frames - smooth + half + 1
                out[:, half:interior_end] = (
                    cum[:, smooth:] - cum[:, : n_frames - smooth + 1]
                )
                for edge in (
                    np.arange(0, half),
                    np.arange(interior_end, n_frames),
                ):
                    lo = np.maximum(edge - half, 0)
                    hi = np.minimum(edge + (smooth - half), n_frames)
                    out[:, edge] = cum[:, hi] - cum[:, lo]
                sq = out
            else:
                lo = np.maximum(np.arange(n_frames) - half, 0)
                hi = np.minimum(np.arange(n_frames) + (smooth - half), n_frames)
                sq = cum[:, hi] - cum[:, lo]
        labels = np.argmin(sq, axis=2)
        labels += 1
        return labels
