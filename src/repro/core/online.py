"""Online (incremental) LARPredictor.

The batch LARPredictor freezes its classifier at training time and only
changes when the Quality Assuror orders a full retrain. This extension
keeps *learning between retrains*: every time a new measurement arrives,
the window that just completed gains a ground-truth best-predictor label
(running the pool on one frame is cheap), and the (feature, label) pair
joins the k-NN memory immediately — k-NN is memory-based, so incremental
learning is exact, one of the reasons the paper picked it.

What stays frozen between full retrains: the normalizer coefficients,
the PCA basis, and the fitted AR parameters — re-estimating those per
step would silently shift the feature space under the stored memory.
Distribution drift that invalidates them is exactly what the QA's
retrain path is for; :meth:`OnlineLARPredictor.retrain` re-derives
everything from recent history.

Labels are smoothed with a *trailing* window here (the centered window
the offline labelling uses needs future errors, which an online learner
does not have yet; completed labels therefore lag by nothing but use
slightly noisier context).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.config import LARConfig
from repro.core.larpredictor import Forecast
from repro.core.runner import StrategyRunner
from repro.exceptions import ConfigurationError, InsufficientDataError, NotFittedError
from repro.learn.knn import KNNClassifier
from repro.preprocess.pipeline import PreparedData
from repro.util.validation import as_series

__all__ = ["OnlineLARPredictor", "FittedParts"]


@dataclass(frozen=True)
class FittedParts:
    """Everything one training phase produces, as plain arrays.

    :meth:`OnlineLARPredictor.train` derives these from a history; the
    batched fleet trainer (:mod:`repro.serving.trainer`) derives them
    for many streams at once in stacked tensors and then rebuilds each
    predictor through :meth:`OnlineLARPredictor.from_fitted_parts`.
    Slices of stacked tensors are accepted everywhere — only values
    matter, not ownership.
    """

    history: np.ndarray
    norm_mean: float
    norm_std: float
    ar_mean: float
    ar_coefficients: np.ndarray
    ar_noise_variance: float
    frames: np.ndarray
    targets: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    pca_mean: np.ndarray | None = None
    pca_components: np.ndarray | None = None
    pca_explained_variance: np.ndarray | None = None
    pca_explained_variance_ratio: np.ndarray | None = None
    #: Optional precounted ``{label: count}`` of :attr:`labels` in
    #: ascending label order (zero counts omitted) — lets a batched
    #: producer count whole bursts in one vectorized pass instead of a
    #: per-classifier reduction. ``None`` means "count them here".
    label_counts: dict[int, int] | None = None


class OnlineLARPredictor:
    """Streaming LARPredictor with incremental k-NN memory growth.

    Parameters
    ----------
    config:
        Pipeline configuration (paper defaults).
    label_smoothing:
        Trailing window of the online label rule.
    max_memory:
        Optional cap on stored training windows; when exceeded, the
        oldest pairs are dropped (a sliding workload memory). ``None``
        keeps everything.
    history_limit:
        Optional cap on stored raw history values; when exceeded, the
        oldest values roll off. Bounds the memory of a long-running
        stream and the cost of :meth:`retrain`'s default full-history
        path. ``None`` keeps everything.

    Usage
    -----
    >>> online = OnlineLARPredictor()                  # doctest: +SKIP
    >>> online.train(history)                          # doctest: +SKIP
    >>> for value in live_feed:                        # doctest: +SKIP
    ...     fc = online.forecast()
    ...     online.observe(value)   # labels the completed window, learns
    """

    def __init__(
        self,
        config: LARConfig | None = None,
        *,
        label_smoothing: int = 10,
        max_memory: int | None = None,
        history_limit: int | None = None,
    ):
        self.config = config if config is not None else LARConfig()
        label_smoothing = int(label_smoothing)
        if label_smoothing < 1:
            raise ConfigurationError(
                f"label_smoothing must be >= 1, got {label_smoothing}"
            )
        if max_memory is not None:
            max_memory = int(max_memory)
            if max_memory < self.config.k:
                raise ConfigurationError(
                    f"max_memory must be >= k ({self.config.k}), got {max_memory}"
                )
        if history_limit is not None:
            history_limit = int(history_limit)
            if history_limit < self.config.window + 2:
                raise ConfigurationError(
                    f"history_limit must be >= window + 2 "
                    f"({self.config.window + 2}), got {history_limit}"
                )
        self.label_smoothing = label_smoothing
        self.max_memory = max_memory
        self.history_limit = history_limit
        self._runner = StrategyRunner(self.config)
        self._classifier: KNNClassifier | None = None
        self._history: deque[float] = deque(maxlen=history_limit)
        # Trailing squared errors per pool member for online labelling.
        self._recent_sq: deque[np.ndarray] = deque(maxlen=self.label_smoothing)
        self._windows_learned = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has completed."""
        return self._classifier is not None

    @property
    def memory_size(self) -> int:
        """Stored labelled windows in the classifier memory."""
        self._require_trained()
        return self._classifier.n_samples_  # type: ignore[union-attr]

    @property
    def windows_learned_online(self) -> int:
        """Labelled windows appended via :meth:`observe` since training."""
        return self._windows_learned

    @property
    def history_length(self) -> int:
        """Raw values currently stored (bounded by ``history_limit``)."""
        return len(self._history)

    def recent_history(self, n: int | None = None) -> np.ndarray:
        """The last *n* stored raw values (all of them when ``None``).

        Cost is O(n), independent of the total history length — the
        supported way to snapshot a long-running stream's tail (e.g.
        for an explicit :meth:`retrain` window).
        """
        if n is None:
            return np.asarray(self._history, dtype=np.float64)
        n = int(n)
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        return self._tail(n)

    def train(self, series) -> "OnlineLARPredictor":
        """Initial training phase (identical to the batch LARPredictor)."""
        x = as_series(series, name="series", min_length=self.config.window + 2)
        self._runner.fit(x)
        train = self._runner.train_data
        labels = self._runner.pool.best_labels(
            train.frames, train.targets, smooth_window=self.label_smoothing
        )
        self._classifier = KNNClassifier(k=self.config.k).fit(
            train.features, labels
        )
        self._reset_stream_state(x)
        return self

    @classmethod
    def from_fitted_parts(
        cls,
        config: LARConfig | None,
        parts: FittedParts,
        *,
        label_smoothing: int = 10,
        max_memory: int | None = None,
        history_limit: int | None = None,
    ) -> "OnlineLARPredictor":
        """Rebuild a trained predictor from externally fitted parts.

        The inverse decomposition of :meth:`train`: instead of running
        the training phase, install its already-computed products — the
        batched fleet trainer fits whole groups of streams in stacked
        NumPy kernels and assembles each predictor through this
        constructor. Given parts that a per-stream :meth:`train` on the
        same history would have produced, the resulting predictor is in
        the *identical* state (same coefficients, same classifier
        memory, same eviction), so downstream serving cannot tell the
        two apart.

        Only the paper pool (LAST/AR/SW_AVG) can be reassembled this
        way; extended pools carry members with fits of their own.
        """
        online = cls(
            config,
            label_smoothing=label_smoothing,
            max_memory=max_memory,
            history_limit=history_limit,
        )
        if online.config.extended_pool:
            raise ConfigurationError(
                "from_fitted_parts only supports the paper pool; extended "
                "pools have members whose fits are not part of FittedParts"
            )
        runner = online._runner
        normalizer = runner.pipeline.normalizer
        normalizer._mean = float(parts.norm_mean)
        normalizer._std = float(parts.norm_std)
        pca = runner.pipeline.pca
        if pca is not None:
            if parts.pca_components is None:
                raise ConfigurationError(
                    "config enables PCA but parts carry no fitted basis"
                )
            pca.mean_ = parts.pca_mean
            pca.components_ = parts.pca_components
            pca.explained_variance_ = parts.pca_explained_variance
            pca.explained_variance_ratio_ = parts.pca_explained_variance_ratio
        # pool.fit marks the parameter-free members fitted and installs
        # the Yule-Walker estimates on AR; mirror both effects.
        pool = runner.pool
        pool[0]._fitted = True
        pool[2]._fitted = True
        ar = pool[1]
        ar.mean_ = float(parts.ar_mean)
        ar.coefficients_ = np.asarray(parts.ar_coefficients, dtype=np.float64)
        ar.noise_variance_ = float(parts.ar_noise_variance)
        ar._fitted = True
        runner._train = PreparedData(
            frames=parts.frames, targets=parts.targets, features=parts.features
        )
        online._classifier = KNNClassifier.from_rows(
            parts.features,
            parts.labels,
            k=online.config.k,
            label_counts=parts.label_counts,
        )
        online._reset_stream_state(np.asarray(parts.history, dtype=np.float64))
        return online

    def retrain(self, recent_series=None) -> "OnlineLARPredictor":
        """Full retrain (the QA path); defaults to the stored history."""
        if recent_series is None:
            self._require_trained()
            recent_series = np.asarray(self._history)
        return self.train(recent_series)

    # -- streaming ------------------------------------------------------------

    def forecast(self) -> Forecast:
        """Forecast the next value from the stored history."""
        self._require_trained()
        w = self.config.window
        if len(self._history) < w:
            raise InsufficientDataError(w, len(self._history), what="history")
        tail = self._tail(w)
        frame, feature = self._runner.pipeline.prepare_tail(tail)
        label = int(self._classifier.predict_one(feature))  # type: ignore[union-attr]
        member = self._runner.pool.by_label(label)
        normalized = member.predict_next(frame)
        value = self._runner.pipeline.normalizer.inverse_transform_value(normalized)
        return Forecast(
            value=float(value),
            normalized_value=float(normalized),
            predictor_label=label,
            predictor_name=member.name,
        )

    def observe(self, value: float) -> int | None:
        """Ingest one measurement; learn from the window it completes.

        Returns the label learned for the completed window, or ``None``
        while the history is still shorter than one (window, target)
        pair.
        """
        self._require_trained()
        value = float(value)
        if not np.isfinite(value):
            raise ConfigurationError("observed value must be finite")
        self._history.append(value)
        w = self.config.window
        if len(self._history) < w + 1:
            return None
        pipeline = self._runner.pipeline
        z = pipeline.normalizer.transform(self._tail(w + 1))
        frame, target = z[:w], float(z[w])
        # Label by trailing smoothed MSE: push this frame's squared
        # errors, argmin the window sums.
        errors = self._runner.pool.predict_all(frame[None, :])[0] - target
        self._recent_sq.append(errors * errors)
        sums = np.sum(np.stack(self._recent_sq, axis=0), axis=0)
        label = int(np.argmin(sums)) + 1
        feature = (
            pipeline.pca.transform(frame) if pipeline.pca is not None else frame
        )
        self._classifier.partial_fit(  # type: ignore[union-attr]
            np.atleast_2d(feature), np.array([label])
        )
        self._windows_learned += 1
        self._evict_if_needed()
        return label

    def observe_many(self, values) -> list[int | None]:
        """Ingest measurements in order; the deterministic replay bulk op.

        Exactly ``[self.observe(v) for v in values]`` — the asynchronous
        retrain pipeline replays the ticks that arrived while a model
        trained in flight, and bit-identity with a model that was
        swapped in at the submission tick and served since rests on this
        being the same per-value code path.
        """
        return [self.observe(v) for v in values]

    # -- internals -------------------------------------------------------------

    def _reset_stream_state(self, x: np.ndarray) -> None:
        """Post-training reset shared by :meth:`train` and
        :meth:`from_fitted_parts`: the trained history becomes the live
        stream tail, online labelling context restarts, and the fresh
        memory is trimmed to ``max_memory``."""
        self._history = deque(x.tolist(), maxlen=self.history_limit)
        self._recent_sq.clear()
        self._windows_learned = 0
        self._evict_if_needed()

    def _tail(self, n: int) -> np.ndarray:
        """Last *n* history values in O(n) — never touches the full deque.

        ``np.asarray(deque)`` walks every stored value, which made each
        streaming step cost O(history); pulling *n* items off the right
        end keeps per-step work constant for unbounded histories.
        """
        n = min(n, len(self._history))
        out = np.fromiter(
            islice(reversed(self._history), n), dtype=np.float64, count=n
        )
        return out[::-1]

    def _evict_if_needed(self) -> None:
        if self.max_memory is None:
            return
        clf = self._classifier
        assert clf is not None
        excess = clf.n_samples_ - self.max_memory
        if excess > 0:
            # Retire the oldest rows in place — an offset advance in the
            # classifier's growth buffer, not a refit.
            clf.discard_oldest(excess)

    def _require_trained(self) -> None:
        if self._classifier is None:
            raise NotFittedError("OnlineLARPredictor.train must be called first")

    def __repr__(self) -> str:
        state = (
            f"memory={self.memory_size}, learned={self._windows_learned}"
            if self.is_trained
            else "untrained"
        )
        return f"OnlineLARPredictor(window={self.config.window}, {state})"
