"""Save and load trained LARPredictors (batch and online).

A trained LARPredictor is a small parameter set: the normalizer's two
coefficients, the PCA basis, each pool member's fitted parameters, and
the classifier's labelled training windows. Everything is written into
a single ``.npz`` archive (arrays stored natively, scalar metadata as
one embedded JSON document) — no pickle, so archives are safe to load
from untrusted sources and stable across Python versions.

The classifier is reconstructed by *refitting* it on the stored
(features, labels) pairs, which is exact: every supported classifier is
a deterministic function of its training set, and for k-NN the training
set literally *is* the model.

:class:`~repro.core.online.OnlineLARPredictor` archives additionally
carry the live classifier memory (including every window learned since
training), the raw value history, and the trailing-error state of the
online labelling rule, so a restored stream resumes mid-flight with the
exact forecasts the original would have produced.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.config import LARConfig
from repro.core.larpredictor import LARPredictor
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.learn.base import Classifier
from repro.learn.centroid import NearestCentroidClassifier
from repro.learn.knn import KNNClassifier
from repro.learn.logistic import SoftmaxClassifier
from repro.learn.naive_bayes import GaussianNBClassifier
from repro.learn.tree import DecisionTreeClassifier
from repro.preprocess.pipeline import PreparedData

__all__ = [
    "save_larpredictor",
    "load_larpredictor",
    "save_online_larpredictor",
    "load_online_larpredictor",
    "FORMAT_VERSION",
]

#: Bump on any incompatible change to the archive layout.
FORMAT_VERSION = 1


def _classifier_spec(classifier: Classifier) -> dict:
    """Constructor spec for every supported classifier type."""
    if isinstance(classifier, KNNClassifier):
        return {
            "type": "knn",
            "k": classifier.k,
            "weights": classifier.weights,
        }
    if isinstance(classifier, GaussianNBClassifier):
        return {"type": "naive_bayes", "var_smoothing": classifier.var_smoothing}
    if isinstance(classifier, NearestCentroidClassifier):
        return {"type": "centroid"}
    if isinstance(classifier, DecisionTreeClassifier):
        return {
            "type": "tree",
            "max_depth": classifier.max_depth,
            "min_samples_leaf": classifier.min_samples_leaf,
        }
    if isinstance(classifier, SoftmaxClassifier):
        return {
            "type": "softmax",
            "learning_rate": classifier.learning_rate,
            "epochs": classifier.epochs,
            "l2": classifier.l2,
            "tol": classifier.tol,
        }
    raise ConfigurationError(
        f"cannot persist classifier type {type(classifier).__name__}; "
        f"supported: knn, naive_bayes, centroid, tree, softmax"
    )


def _build_classifier(spec: dict) -> Classifier:
    kind = spec.get("type")
    if kind == "knn":
        # Specs written before 8.0 also carry "algorithm" and
        # "leaf_size" (the retired KD-tree backend's options); every
        # memory now runs the one exact search, so both are ignored.
        return KNNClassifier(
            k=int(spec["k"]), weights=str(spec.get("weights", "uniform"))
        )
    if kind == "naive_bayes":
        return GaussianNBClassifier(var_smoothing=float(spec["var_smoothing"]))
    if kind == "centroid":
        return NearestCentroidClassifier()
    if kind == "tree":
        return DecisionTreeClassifier(
            max_depth=int(spec["max_depth"]),
            min_samples_leaf=int(spec["min_samples_leaf"]),
        )
    if kind == "softmax":
        return SoftmaxClassifier(
            learning_rate=float(spec["learning_rate"]),
            epochs=int(spec["epochs"]),
            l2=float(spec["l2"]),
            tol=float(spec["tol"]),
        )
    raise DataError(f"unknown classifier spec {spec!r} in archive")


def _pack_runner(runner, meta: dict, arrays: dict) -> None:
    """Pack a fitted runner's pipeline + pool state into *meta*/*arrays*."""
    pipeline = runner.pipeline
    meta["normalizer"] = {
        "mean": pipeline.normalizer.mean,
        "std": pipeline.normalizer.std,
    }
    meta["predictor_scalars"] = {}
    if pipeline.pca is not None:
        arrays["pca__components"] = pipeline.pca.components_
        arrays["pca__mean"] = pipeline.pca.mean_
        arrays["pca__explained_variance"] = pipeline.pca.explained_variance_
        arrays["pca__explained_variance_ratio"] = (
            pipeline.pca.explained_variance_ratio_
        )
    for member in runner.pool:
        state = member.state_dict()
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                arrays[f"pred__{member.name}__{key}"] = value
            else:
                meta["predictor_scalars"].setdefault(member.name, {})[key] = value


def _restore_runner(runner, meta: dict, arrays: dict) -> None:
    """Restore pipeline + pool state packed by :func:`_pack_runner`."""
    pipeline = runner.pipeline
    pipeline.normalizer._mean = float(meta["normalizer"]["mean"])
    pipeline.normalizer._std = float(meta["normalizer"]["std"])
    if pipeline.pca is not None:
        try:
            pipeline.pca.components_ = arrays["pca__components"]
            pipeline.pca.mean_ = arrays["pca__mean"]
            pipeline.pca.explained_variance_ = arrays["pca__explained_variance"]
            pipeline.pca.explained_variance_ratio_ = arrays[
                "pca__explained_variance_ratio"
            ]
        except KeyError as missing:
            raise DataError(f"archive missing PCA array {missing}") from None
    scalars = meta.get("predictor_scalars", {})
    for member in runner.pool:
        state: dict = dict(scalars.get(member.name, {}))
        prefix = f"pred__{member.name}__"
        for key, value in arrays.items():
            if key.startswith(prefix):
                state[key[len(prefix):]] = value
        if state or member.requires_fit:
            member.load_state_dict(state)


def _config_meta(config: LARConfig) -> dict:
    return {
        "window": config.window,
        "n_components": config.n_components,
        "min_variance": config.min_variance,
        "k": config.k,
        "ar_order": config.ar_order,
        "extended_pool": config.extended_pool,
    }


def _check_standard_pool(lar) -> None:
    from repro.core.runner import build_pool

    runner = lar._runner
    expected = build_pool(lar.config).names
    if runner.pool.names != expected:
        raise ConfigurationError(
            "persistence supports the standard configuration-derived pools; "
            f"this predictor's pool {runner.pool.names} differs from "
            f"{expected}"
        )


def _read_archive(path) -> tuple[dict, dict, Path]:
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        # np.savez appends .npz when missing; accept the caller's name.
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(str(archive["__meta__"]))
        except KeyError:
            raise DataError(f"{path} is not a LARPredictor archive") from None
        if meta.get("format_version") != FORMAT_VERSION:
            raise DataError(
                f"archive format {meta.get('format_version')} not supported "
                f"(expected {FORMAT_VERSION})"
            )
        arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    return meta, arrays, path


def save_larpredictor(lar: LARPredictor, path) -> None:
    """Persist a trained LARPredictor to a ``.npz`` archive.

    Raises
    ------
    NotFittedError
        If the predictor has not been trained.
    ConfigurationError
        If the predictor uses a custom pool (members outside the
        standard/extended pools cannot be reconstructed by name) or an
        unsupported classifier type.
    """
    if not lar.is_trained:
        raise NotFittedError("cannot save an untrained LARPredictor")
    runner = lar._runner
    _check_standard_pool(lar)

    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "batch",
        "config": _config_meta(lar.config),
        "classifier": _classifier_spec(lar._selection.classifier),
        "label_smoothing": lar._selection.label_smoothing,
    }
    arrays: dict[str, np.ndarray] = {}
    _pack_runner(runner, meta, arrays)

    train = runner.train_data
    arrays["train__frames"] = np.asarray(train.frames)
    arrays["train__targets"] = np.asarray(train.targets)
    arrays["train__features"] = np.asarray(train.features)
    arrays["train__labels"] = np.asarray(lar._selection.training_labels_)

    path = Path(path)
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_larpredictor(path) -> LARPredictor:
    """Reconstruct a LARPredictor saved by :func:`save_larpredictor`."""
    meta, arrays, path = _read_archive(path)
    if meta.get("kind", "batch") != "batch":
        raise DataError(
            f"{path} holds a {meta['kind']!r} predictor; "
            f"use load_online_larpredictor"
        )

    config = LARConfig(**meta["config"])
    classifier = _build_classifier(meta["classifier"])
    lar = LARPredictor(config, classifier=classifier)
    runner = lar._runner
    _restore_runner(runner, meta, arrays)

    # Training data and the classifier (refit == exact reconstruction).
    try:
        train = PreparedData(
            frames=arrays["train__frames"],
            targets=arrays["train__targets"],
            features=arrays["train__features"],
        )
        labels = arrays["train__labels"]
    except KeyError as missing:
        raise DataError(f"archive missing training array {missing}") from None
    runner._train = train
    lar._selection.label_smoothing = int(meta["label_smoothing"])
    lar._selection.classifier.fit(train.features, labels)
    lar._selection.training_labels_ = np.asarray(labels)
    lar._trained = True
    return lar


def save_online_larpredictor(online, path) -> None:
    """Persist a trained :class:`OnlineLARPredictor` to a ``.npz`` archive.

    The archive carries the current k-NN memory (initial training pairs
    *plus* every window learned online), the raw history, and the
    trailing squared-error state of the online labelling rule — enough
    for :func:`load_online_larpredictor` to resume the stream with
    byte-identical forecasts.
    """
    from repro.core.online import OnlineLARPredictor

    if not isinstance(online, OnlineLARPredictor):
        raise ConfigurationError(
            f"expected an OnlineLARPredictor, got {type(online).__name__}"
        )
    if not online.is_trained:
        raise NotFittedError("cannot save an untrained OnlineLARPredictor")
    clf = online._classifier
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "online",
        "config": _config_meta(online.config),
        "classifier": _classifier_spec(clf),
        "label_smoothing": online.label_smoothing,
        "max_memory": online.max_memory,
        "history_limit": online.history_limit,
        "windows_learned": online.windows_learned_online,
    }
    arrays: dict[str, np.ndarray] = {}
    _pack_runner(online._runner, meta, arrays)
    arrays["memory__X"] = np.asarray(clf._X, dtype=np.float64)
    arrays["memory__y"] = np.asarray(clf._y, dtype=np.int64)
    arrays["history"] = np.asarray(online._history, dtype=np.float64)
    arrays["recent_sq"] = (
        np.stack(list(online._recent_sq), axis=0)
        if online._recent_sq
        else np.empty((0, len(online._runner.pool.names)), dtype=np.float64)
    )

    path = Path(path)
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_online_larpredictor(path):
    """Reconstruct an OnlineLARPredictor saved by
    :func:`save_online_larpredictor`."""
    from repro.core.online import OnlineLARPredictor

    meta, arrays, path = _read_archive(path)
    if meta.get("kind") != "online":
        raise DataError(
            f"{path} holds a {meta.get('kind', 'batch')!r} predictor; "
            f"use load_larpredictor"
        )

    config = LARConfig(**meta["config"])
    online = OnlineLARPredictor(
        config,
        label_smoothing=int(meta["label_smoothing"]),
        max_memory=(
            None if meta["max_memory"] is None else int(meta["max_memory"])
        ),
        history_limit=(
            None if meta["history_limit"] is None else int(meta["history_limit"])
        ),
    )
    _restore_runner(online._runner, meta, arrays)
    try:
        memory_x = arrays["memory__X"]
        memory_y = arrays["memory__y"]
        history = arrays["history"]
        recent_sq = arrays["recent_sq"]
    except KeyError as missing:
        raise DataError(f"archive missing online array {missing}") from None

    classifier = _build_classifier(meta["classifier"])
    if not isinstance(classifier, KNNClassifier):
        raise DataError(
            "online archives must carry a k-NN classifier, "
            f"got {meta['classifier'].get('type')!r}"
        )
    online._classifier = classifier.fit(memory_x, memory_y)
    online._history = deque(history.tolist(), maxlen=online.history_limit)
    online._recent_sq = deque(
        [row for row in recent_sq], maxlen=online.label_smoothing
    )
    online._windows_learned = int(meta["windows_learned"])
    return online
