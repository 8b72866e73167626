"""Save and restore a whole :class:`~repro.serving.fleet.PredictionFleet`.

Layout: one directory per fleet —

* ``fleet.json`` — the manifest: fleet configuration, per-stream
  bookkeeping (ticks, retrain counts, selection histogram, QA state,
  warm-up buffer), and the archive name of each trained stream.
* ``streams/stream_NNNN.npz`` — one
  :func:`~repro.core.persistence.save_online_larpredictor` archive per
  trained stream (stream names can contain characters that are not
  filename-safe, so archives are numbered and mapped in the manifest).
* ``streams/cache_NNNN.npz`` — the stream's label-cache tail (squared
  pool errors + smoothed labels), when one exists: a restored fleet
  must make the same splice-vs-relabel decisions the original would
  have, so the tails travel with it (fingerprints live in the
  manifest).

Everything is JSON + ``.npz`` — no pickle — so a fleet directory is
safe to load from untrusted sources, and a restored fleet resumes with
exactly the forecasts the original would have produced (the pending
forecast cache is not persisted; it is recomputed, deterministically,
on the next read).
"""

from __future__ import annotations

import json
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
        "min_relabel_overlap": config.min_relabel_overlap,
        "auto_retrain": config.auto_retrain,
        "retrain_mode": config.retrain_mode,
        "max_integrations_per_tick": config.max_integrations_per_tick,
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
            # .get(): manifests written before incremental relabelling
            # existed load with the policy off — every retrain refits
            # cold, exactly what they ran with.
            min_relabel_overlap=(
                None
                if meta.get("min_relabel_overlap") is None
                else float(meta["min_relabel_overlap"])
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
            max_integrations_per_tick=(
                None
                if meta.get("max_integrations_per_tick") is None
                else int(meta["max_integrations_per_tick"])
            ),
            # Older manifests also carry keys for removed options: a
            # "parallel" block (before 2.0), "label_cache" and
            # "max_inflight_retrains" (before 3.0). None of them ever
            # changed a forecast, so they are ignored.
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed fleet config in manifest: {exc}") from exc


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
    for index, (name, state) in enumerate(fleet._streams.items()):
        entry = {
            "name": name,
            "ticks": state.ticks,
            "retrain_count": state.retrain_count,
            "selections": state.selections,
            "train_due": state.train_due,
            "retrain_due": state.retrain_due,
            "due_at": state.due_at,
            "qa": state.qa.state_dict(),
            "buffer": [float(v) for v in state.buffer],
            "params_window": (
                None
                if state.params_window is None
                else list(state.params_window)
            ),
            "archive": None,
            "label_cache": None,
        }
        if state.predictor is not None:
            archive = f"{_STREAM_DIR}/stream_{index:04d}.npz"
            save_online_larpredictor(state.predictor, directory / archive)
            entry["archive"] = archive
        tail = fleet._label_cache.tail(name)
        if tail is not None:
            cache_archive = f"{_STREAM_DIR}/cache_{index:04d}.npz"
            np.savez_compressed(
                directory / cache_archive, sq=tail.sq, labels=tail.labels
            )
            # The fingerprints are stored as written, not recomputed at
            # load: a manifest edited to a different labelling config
            # then correctly misses instead of splicing stale rows.
            entry["label_cache"] = {
                "archive": cache_archive,
                "start": tail.start,
                "config_fp": tail.config_fp,
                "params_fp": tail.params_fp,
            }
        streams.append(entry)

    manifest = {
        "format_version": FLEET_FORMAT_VERSION,
        "config": _fleet_config_meta(fleet.config),
        "deferred_retrains": fleet._retrain.deferred_total,
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
            state.ticks = int(entry["ticks"])
            state.retrain_count = int(entry["retrain_count"])
            state.selections = {
                str(k): int(v) for k, v in entry["selections"].items()
            }
            state.train_due = bool(entry["train_due"])
            state.retrain_due = bool(entry["retrain_due"])
            state.due_at = int(entry.get("due_at", 0))
            state.qa.load_state_dict(entry["qa"])
            state.buffer.extend(float(v) for v in entry["buffer"])
            # .get(): pre-1.4 manifests have no fit window on record, so
            # the restored stream refits cold on its next retrain (the
            # only behavior those fleets had).
            window_meta = entry.get("params_window")
            if window_meta is not None:
                state.params_window = (
                    int(window_meta[0]),
                    int(window_meta[1]),
                )
            archive = entry["archive"]
            cache_meta = entry.get("label_cache")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DataError(f"malformed stream entry in manifest: {exc}") from exc
        if archive is not None:
            state.predictor = load_online_larpredictor(directory / archive)
        if cache_meta is not None:
            try:
                with np.load(directory / cache_meta["archive"]) as arrays:
                    fleet._label_cache.store(
                        name,
                        int(cache_meta["start"]),
                        arrays["sq"],
                        np.ascontiguousarray(
                            arrays["labels"], dtype=np.int64
                        ),
                        str(cache_meta["config_fp"]),
                        str(cache_meta["params_fp"]),
                    )
            except (KeyError, TypeError, ValueError, OSError) as exc:
                raise DataError(
                    f"malformed label-cache entry for stream {name!r}: {exc}"
                ) from exc
    # The due flags above were set directly, bypassing the scheduler.
    fleet._retrain.restore()
    return fleet
