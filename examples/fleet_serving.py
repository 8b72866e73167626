#!/usr/bin/env python
"""Serving many resource streams at once with a PredictionFleet.

A production monitor rarely watches one resource: a VM farm exposes a
CPU, memory, and network stream per machine, and each wants its own
lightweight adaptive predictor (the regime where per-stream models win;
the paper's LARPredictor is exactly such a model). This example runs the
:mod:`repro.serving` layer over a small farm:

1. streams register cold and train lazily once enough history arrives;
2. every tick is one batched ``forecast_all`` + ``ingest`` call pair;
3. half the farm drifts mid-run — the per-stream Quality Assurors
   breach, and the fleet retrains those streams (only those) in one
   out-of-band stacked burst;
4. the fleet is saved and restored, and the restored fleet produces the
   same next forecasts.

Run:  python examples/fleet_serving.py
"""

import tempfile

import numpy as np

from repro.core.config import LARConfig
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series, white_noise_series


def main() -> None:
    names = [f"vm{i}.{metric}" for i in range(3) for metric in ("cpu", "net")]
    ticks = 260
    drift_at = 160

    # Synthetic feeds: smooth AR(1) everywhere; the "cpu" streams get a
    # level shift (a deployment) two thirds of the way through.
    feeds = {}
    for i, name in enumerate(names):
        smooth = 15.0 + 3.0 * ar1_series(ticks, phi=0.9, seed=i)
        if name.endswith("cpu"):
            smooth = smooth.copy()
            shift = 35.0 + 6.0 * white_noise_series(
                ticks - drift_at, seed=100 + i
            )
            smooth[drift_at:] = shift
        feeds[name] = smooth

    config = FleetConfig(
        lar=LARConfig(window=5),
        min_train=60,
        qa_threshold=3.0,
        audit_window=16,
        audit_interval=8,
        retrain_window=120,
    )
    fleet = PredictionFleet(config, streams=names)

    sq_err = {name: [] for name in names}
    for t in range(ticks):
        forecasts = fleet.forecast_all()
        tick = {name: feeds[name][t] for name in names}
        for name, fc in forecasts.items():
            sq_err[name].append((fc.value - tick[name]) ** 2)
        fleet.ingest(tick)

    metrics = fleet.metrics()
    print(f"fleet served {metrics.n_streams} streams for {ticks} ticks")
    print(f"streams trained: {metrics.n_trained}, "
          f"QA-ordered retrains: {metrics.total_retrains}")
    print()
    print(metrics.render())
    print()

    drifted = sorted(m.name for m in metrics.streams if m.retrain_count > 0)
    print(f"streams the QA retrained: {drifted}")
    assert all(name.endswith("cpu") for name in drifted), (
        "only the drifting cpu streams should have retrained"
    )

    # Post-drift error on a drifted stream: retraining keeps it bounded.
    errs = np.array(sq_err["vm0.cpu"])
    settled = errs[-40:]
    print(f"vm0.cpu mean squared error over the last 40 ticks: "
          f"{settled.mean():.2f}")

    # Persistence: a restored fleet picks up exactly where this one is.
    with tempfile.TemporaryDirectory() as directory:
        fleet.save(directory)
        restored = PredictionFleet.load(directory)
    before = fleet.forecast_all()
    after = restored.forecast_all()
    assert before.keys() == after.keys()
    assert all(
        before[k].value == after[k].value
        and before[k].predictor_label == after[k].predictor_label
        for k in before
    )
    print("restored fleet reproduces the same next forecasts.")


if __name__ == "__main__":
    main()
