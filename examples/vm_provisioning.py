#!/usr/bin/env python
"""Dynamic VM provisioning driven by LARPredictor forecasts.

The paper's motivating application (§1, §3): "the learning aided
adaptive resource performance prediction can be used to support dynamic
VM provisioning by providing accurate prediction of the resource
availability of the host server". This example runs the whole Figure 1
loop on the simulated testbed:

    monitor agent -> RRD -> profiler -> prediction DB -> LARPredictor
    -> resource-manager decision -> QA audit

A toy resource manager provisions CPU shares for the guest one step
ahead of demand: it allocates ``forecast * (1 + headroom)`` and we score
how often the allocation covered the realized demand versus how much
capacity it wasted — comparing LAR-driven allocation against the naive
"allocate what was used last step" policy.

Run:  python examples/vm_provisioning.py
"""

import numpy as np

from repro.core import LARConfig, LARPredictor, PredictionQualityAssuror
from repro.db.prediction_db import PredictionDatabase, SeriesKey
from repro.traces.profiler import Profiler
from repro.vmm.host import HostServer
from repro.vmm.monitor import PerformanceMonitoringAgent
from repro.vmm.vm import METRIC_DEVICE
from repro.vmm.workloads import build_vm

HEADROOM = 0.15  # fractional over-allocation above the forecast


def provisioning_score(allocations: np.ndarray, demand: np.ndarray) -> tuple[float, float]:
    """(violation rate, mean waste) of an allocation policy."""
    violations = float(np.mean(allocations < demand))
    waste = float(np.mean(np.maximum(allocations - demand, 0.0)))
    return violations, waste


def main() -> None:
    # -- collect a day of VM4 telemetry through the monitoring stack ----
    spec = build_vm("VM4", seed=11)
    agent = PerformanceMonitoringAgent(HostServer())
    rrd = agent.collect(
        spec.vm, spec.duration_minutes,
        report_interval_minutes=spec.report_interval_minutes, seed=11,
    )
    db = PredictionDatabase()
    trace = Profiler(db).extract(rrd, spec.vm_id, "CPU_usedsec")
    print(f"profiled {trace.trace_id}: {len(trace)} samples at "
          f"{trace.interval_seconds} s")

    # -- train on the first half ------------------------------------------
    half = len(trace) // 2
    lar = LARPredictor(LARConfig(window=5)).train(trace.values[:half])
    qa = PredictionQualityAssuror(threshold=2.0, audit_interval=12)
    key = SeriesKey(spec.vm_id, METRIC_DEVICE["CPU_usedsec"], "CPU_usedsec")

    # -- drive the provisioning loop over the second half -------------------
    lar_alloc, naive_alloc, demand = [], [], []
    for t in range(half, len(trace) - 1):
        history = trace.values[: t + 1]
        fc = lar.forecast(history)
        actual_next = trace.values[t + 1]
        # Record the forecast in the prediction DB (Figure 1 dataflow)
        # and audit it with the QA once the observation lands.
        db.store_prediction(key, int(trace.timestamps[t + 1]), fc.value)
        qa.record(fc.value, actual_next)
        lar_alloc.append(max(fc.value, 0.0) * (1.0 + HEADROOM))
        naive_alloc.append(history[-1] * (1.0 + HEADROOM))
        demand.append(actual_next)

    lar_alloc = np.asarray(lar_alloc)
    naive_alloc = np.asarray(naive_alloc)
    demand = np.asarray(demand)

    lar_viol, lar_waste = provisioning_score(lar_alloc, demand)
    naive_viol, naive_waste = provisioning_score(naive_alloc, demand)
    print(f"\nprovisioning over {demand.size} intervals "
          f"(headroom {HEADROOM:.0%}):")
    print(f"  LAR-driven : violations {lar_viol:6.2%}, "
          f"mean waste {lar_waste:.2f} CPU-s/min")
    print(f"  last-value : violations {naive_viol:6.2%}, "
          f"mean waste {naive_waste:.2f} CPU-s/min")

    audited = db.audit_mse(key)
    print(f"\nprediction-DB audit MSE: {audited:.3f} "
          f"({qa.audits_total} QA audits, {qa.breaches_total} breaches)")


if __name__ == "__main__":
    main()
