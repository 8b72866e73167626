#!/usr/bin/env python
"""Online prediction under the Quality Assuror's retraining regime.

The paper's Figure 1 includes a *Prediction Quality Assuror* that
"audits the LARPredictor's performance and orders re-training for the
predictor if the performance drops below a predefined threshold". This
example shows that loop handling a workload shift: a VM's CPU pattern
changes abruptly mid-stream (a new application is deployed), the QA's
audit-window MSE breaches the threshold, and the LARPredictor re-trains
on recent data and recovers.

Run:  python examples/online_retraining.py
"""

import numpy as np

from repro.core import LARConfig, LARPredictor, PredictionQualityAssuror
from repro.traces.synthetic import ar1_series, white_noise_series


def main() -> None:
    rng_seed = 17
    # Phase 1: smooth, low CPU load. Phase 2: a deployment doubles the
    # level and changes the dynamics to noisy churn.
    phase1 = 10.0 + 2.0 * ar1_series(260, phi=0.9, seed=rng_seed)
    phase2 = 35.0 + 6.0 * white_noise_series(240, seed=rng_seed + 1)
    stream = np.concatenate([phase1, phase2])

    lar = LARPredictor(LARConfig(window=5)).train(phase1[:200])
    breaches = []
    qa = PredictionQualityAssuror(
        threshold=4.0,       # normalized-MSE threshold (1.0 == mean predictor)
        audit_window=16,
        audit_interval=8,
        on_breach=breaches.append,
    )

    forecasts = lar.run_with_qa(stream[200:], qa, retrain_window=120)
    values = np.array([f.value for f in forecasts])
    observed = stream[205:]  # first forecast targets index 200 + window

    # Report per-phase absolute error so the recovery is visible.
    boundary = 260 - 205  # stream step where phase 2 begins
    err = np.abs(values - observed)
    pre = err[:boundary]
    post_shift = err[boundary : boundary + 24]
    recovered = err[boundary + 24 :]
    print(f"forecasts made: {values.size}")
    print(f"mean |error| before the shift:          {pre.mean():7.2f}")
    print(f"mean |error| during the shift window:   {post_shift.mean():7.2f}")
    print(f"mean |error| after QA-ordered retrains: {recovered.mean():7.2f}")
    print(f"\nQA audits run: {qa.audits_total}, breaches: {qa.breaches_total}")
    assert qa.breaches_total == len(breaches)
    for audit in breaches[:5]:
        print(
            f"  breach at step {audit.step}: window MSE "
            f"{audit.window_mse:.2f} > threshold {qa.threshold}"
        )
    assert recovered.mean() < post_shift.mean(), "retraining should recover"
    print("\nretraining recovered the prediction quality.")


if __name__ == "__main__":
    main()
