"""Save and restore a whole :class:`~repro.serving.fleet.PredictionFleet`.

Layout: one directory per fleet —

* ``fleet.json`` — the manifest: fleet configuration, per-stream
  bookkeeping (ticks, retrain counts, selection histogram, QA state,
  and a cold stream's warm-up values as its ``"buffer"`` list, read
  from and restored into the fleet's warm-up ring), and the archive
  name of each trained stream.
* ``streams/stream_NNNN.npz`` — one
  :func:`~repro.core.persistence.save_online_larpredictor` archive per
  trained stream (stream names can contain characters that are not
  filename-safe, so archives are numbered and mapped in the manifest).

Everything is JSON + ``.npz`` — no pickle — and :func:`load_fleet`
reads no archive outside the fleet directory, so a fleet directory is
safe to load from untrusted sources. A restored fleet resumes with
exactly the forecasts the original would have produced (the pending
forecast cache is not persisted; it is recomputed, deterministically,
on the next read).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.config import LARConfig
from repro.core.persistence import (
    load_online_larpredictor,
    save_online_larpredictor,
)
from repro.exceptions import DataError

__all__ = ["save_fleet", "load_fleet", "FLEET_FORMAT_VERSION"]

#: Bump on any incompatible change to the directory layout.
FLEET_FORMAT_VERSION = 1

_MANIFEST = "fleet.json"
_STREAM_DIR = "streams"


def _fleet_config_meta(config) -> dict:
    return {
        "lar": {
            "window": config.lar.window,
            "n_components": config.lar.n_components,
            "min_variance": config.lar.min_variance,
            "k": config.lar.k,
            "ar_order": config.lar.ar_order,
            "extended_pool": config.lar.extended_pool,
        },
        "min_train": config.min_train,
        "label_smoothing": config.label_smoothing,
        "max_memory": config.max_memory,
        "history_limit": config.history_limit,
        "qa_threshold": config.qa_threshold,
        "audit_window": config.audit_window,
        "audit_interval": config.audit_interval,
        "retrain_window": config.retrain_window,
        "auto_retrain": config.auto_retrain,
        "retrain_mode": config.retrain_mode,
        "max_retrains_per_tick": config.max_retrains_per_tick,
    }


def _fleet_config_from_meta(meta: dict):
    from repro.serving.fleet import FleetConfig

    try:
        return FleetConfig(
            lar=LARConfig(**meta["lar"]),
            min_train=int(meta["min_train"]),
            label_smoothing=int(meta["label_smoothing"]),
            max_memory=(
                None if meta["max_memory"] is None else int(meta["max_memory"])
            ),
            history_limit=(
                None
                if meta["history_limit"] is None
                else int(meta["history_limit"])
            ),
            qa_threshold=float(meta["qa_threshold"]),
            audit_window=int(meta["audit_window"]),
            audit_interval=int(meta["audit_interval"]),
            retrain_window=(
                None
                if meta["retrain_window"] is None
                else int(meta["retrain_window"])
            ),
            auto_retrain=bool(meta["auto_retrain"]),
            # .get(): manifests written before the retrain budget existed
            # load as unlimited, which is what they ran with.
            max_retrains_per_tick=(
                None
                if meta.get("max_retrains_per_tick") is None
                else int(meta["max_retrains_per_tick"])
            ),
            # .get(): manifests written before asynchronous retraining
            # existed load in sync mode, which is what they ran with.
            retrain_mode=str(meta.get("retrain_mode", "sync")),
            # Older manifests also carry keys for removed options: a
            # "parallel" block (before 2.0), "label_cache" and
            # "max_inflight_retrains" (before 3.0), and before 4.0
            # "min_relabel_overlap" plus per-stream "params_window" and
            # "label_cache" entries, before 6.0 every stream's "qa"
            # entry carries an "audits" list and an "audits_total"
            # counter, and before 7.0 "max_integrations_per_tick". All
            # of them are ignored; a fleet that relabelled before 4.0
            # refits cold from now on, and a 6.x async fleet integrates
            # every landed burst at the next tick boundary.
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed fleet config in manifest: {exc}") from exc


def _load_stream_archive(directory: Path, name: str, archive):
    """Load stream *name*'s model from *archive*, a path relative to
    *directory*.

    The resolved path must stay inside *directory*: a manifest naming an
    absolute path or one that climbs out with ``..`` would otherwise
    load a model from anywhere on the file system.
    """
    root = directory.resolve()
    path = (root / str(archive)).resolve()
    if not path.is_relative_to(root):
        raise DataError(
            f"archive {archive!r} of stream {name!r} lies outside the "
            f"fleet directory {directory}"
        )
    try:
        return load_online_larpredictor(path)
    except (
        DataError, OSError, KeyError, TypeError, ValueError,
        zipfile.BadZipFile,
    ) as exc:
        raise DataError(
            f"cannot read archive {archive!r} of stream {name!r}: {exc}"
        ) from exc


def _check_stream_model(config, name: str, predictor) -> None:
    """Raise ``DataError`` unless *predictor* is a model *config* builds.

    The fleet builds every stream from its one config, and its tick
    engine serves every trained stream with that config's kernels; a
    stream archive on disk is the one input that can differ. An AR
    coefficient vector of the wrong length already fails in
    ``ARPredictor.load_state_dict``.
    """
    lar = config.lar
    found = {
        "LAR config": (predictor.config, lar),
        "label_smoothing": (predictor.label_smoothing, config.label_smoothing),
        "max_memory": (predictor.max_memory, config.max_memory),
        "history_limit": (predictor.history_limit, config.history_limit),
        "k-NN weights": (predictor._classifier.weights, "uniform"),
    }
    pca = predictor._runner.pipeline.pca
    if pca is not None:
        rows = lar.n_components or pca.components_.shape[0]
        found["PCA basis shapes"] = (
            (pca.components_.shape, pca.mean_.shape),
            ((rows, lar.window), (lar.window,)),
        )
    for what, (got, want) in found.items():
        if got != want:
            raise DataError(
                f"archive of stream {name!r} has {what} {got!r}, but the "
                f"fleet's config builds {want!r}"
            )


def _check_warmup(config, name: str, values: np.ndarray, ticks: int) -> None:
    """Raise ``DataError`` unless *values* are the warm-up values a cold
    stream with *ticks* ticks holds: ``min(ticks, history_limit)``
    finite values.

    A non-finite value would fail the stream's initial train, and with
    it every retrain round that includes the stream. The ring cannot
    represent a buffer of any other length: its count is the tick
    count, and it stores that many values up to ``history_limit``.
    """
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataError(
            f"warm-up buffer of stream {name!r} holds {bad} non-finite "
            f"value(s)"
        )
    limit = config.history_limit
    stored = ticks if limit is None else min(ticks, limit)
    if values.shape[0] != stored:
        raise DataError(
            f"warm-up buffer of stream {name!r} holds {values.shape[0]} "
            f"values, but a cold stream with {ticks} ticks holds "
            f"min(ticks, history_limit) = {stored}"
        )


def _stream_entry(fleet, state) -> dict:
    """*state*'s manifest entry, with no archive yet."""
    warmup = fleet._warmup
    name = state.name
    return {
        "name": name,
        "ticks": state.ticks,
        "retrain_count": state.retrain_count,
        "selections": state.selections,
        "train_due": state.train_due,
        "retrain_due": state.retrain_due,
        "due_at": state.due_at,
        "qa": state.qa.state_dict(),
        "buffer": warmup.values(name).tolist() if name in warmup else [],
        "archive": None,
    }


def save_fleet(fleet, directory) -> None:
    """Write *fleet* under *directory* (created if missing).

    Retrains in flight are flushed first (trained, integrated, and
    replayed to the current tick), so the directory always captures a
    fleet with no outstanding work — the manifest has no notion of an
    in-flight burst, and the restored fleet must forecast exactly as
    the original would have.
    """
    fleet.drain_retrains(wait=True)
    directory = Path(directory)
    stream_dir = directory / _STREAM_DIR
    stream_dir.mkdir(parents=True, exist_ok=True)

    streams = []
    for index, state in enumerate(fleet._streams.values()):
        entry = _stream_entry(fleet, state)
        if state.predictor is not None:
            archive = f"{_STREAM_DIR}/stream_{index:04d}.npz"
            save_online_larpredictor(state.predictor, directory / archive)
            entry["archive"] = archive
        streams.append(entry)

    manifest = {
        "format_version": FLEET_FORMAT_VERSION,
        "config": _fleet_config_meta(fleet.config),
        "deferred_retrains": fleet._retrain.deferred_total,
        "due_seq": fleet._due_seq,
        "streams": streams,
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))


def load_fleet(directory, *, telemetry=None):
    """Restore a fleet saved by :func:`save_fleet`.

    Parameters
    ----------
    directory:
        Fleet directory written by :func:`save_fleet`.
    telemetry:
        Forwarded to the :class:`~repro.serving.fleet.PredictionFleet`
        constructor — ``True`` builds a fresh
        :class:`~repro.obs.Telemetry`, an instance is used as-is,
        ``None`` restores without telemetry. Telemetry state itself
        (metrics, spans, events) is process-local and never persisted;
        only the fleet-level ``deferred_retrains`` aggregate travels
        with the manifest.

    Raises ``DataError`` naming the stream when an archive lies outside
    *directory*, cannot be read, or holds a model the manifest's config
    would not build (another LAR config, ``label_smoothing``,
    ``max_memory`` or ``history_limit``, a distance-weighted k-NN, or a
    PCA basis or AR coefficient vector of the wrong shape), and when a
    cold stream's warm-up buffer holds a non-finite value or any number
    of values other than ``min(ticks, history_limit)``, the values a
    stream with that many ticks stores (more values than ticks, say).
    """
    from repro.serving.fleet import PredictionFleet

    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise DataError(f"{directory} is not a fleet directory (no {_MANIFEST})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt fleet manifest {manifest_path}: {exc}") from exc
    if manifest.get("format_version") != FLEET_FORMAT_VERSION:
        raise DataError(
            f"fleet format {manifest.get('format_version')} not supported "
            f"(expected {FLEET_FORMAT_VERSION})"
        )

    fleet = PredictionFleet(
        _fleet_config_from_meta(manifest["config"]), telemetry=telemetry
    )
    # .get(): manifests written before the deferral aggregate existed
    # resume with a zero count, the only value they could have reported.
    fleet._retrain.deferred_total = int(manifest.get("deferred_retrains", 0))
    for entry in manifest.get("streams", []):
        try:
            name = entry["name"]
            fleet.add_stream(name)
            state = fleet._streams[name]
            ticks = int(entry["ticks"])
            state.retrain_count = int(entry["retrain_count"])
            state.selections = {
                str(k): int(v) for k, v in entry["selections"].items()
            }
            state.train_due = bool(entry["train_due"])
            state.retrain_due = bool(entry["retrain_due"])
            state.due_at = int(entry.get("due_at", 0))
            state.qa.load_state_dict(entry["qa"])
            buffer = np.array(
                [float(v) for v in entry["buffer"]], dtype=np.float64
            )
            archive = entry["archive"]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DataError(f"malformed stream entry in manifest: {exc}") from exc
        if archive is not None:
            predictor = _load_stream_archive(directory, name, archive)
            _check_stream_model(fleet.config, name, predictor)
            fleet._warmup.release(name)
            state._predictor = predictor
            state._ticks = ticks
        else:
            _check_warmup(fleet.config, name, buffer, ticks)
            fleet._warmup.restore(name, buffer, ticks)
    # The due flags above were set directly, bypassing the scheduler.
    # .get(): manifests written before 7.1 carry no due clock.
    fleet._retrain.restore(int(manifest.get("due_seq", 0)))
    return fleet
