"""End-to-end generation of the paper's evaluation trace set.

Wires the whole substrate together the way Figure 1 draws it: build the
five VM profiles, run the monitoring agent over each (host arbitration
included), and profile every metric out of the consolidated RRD archive
into a :class:`~repro.traces.catalog.TraceSet` — 5 VMs x 12 metrics =
60 traces, of which 52 are non-constant, matching the paper's
valid-trace count.

Generation is deterministic in the seed. It simulates 15,840 minutes x
12 metrics across the five VMs, and the agent writes each VM into its
RRD in one block, so one call takes about 0.03-0.05 s on a 2-core Xeon;
the first call in a process also pays about 0.65 s to import
``scipy.signal``. :func:`load_paper_traces` still memoizes per seed —
the experiment drivers and the test suite share one generation.
"""

from __future__ import annotations

from repro.db.prediction_db import PredictionDatabase
from repro.traces.catalog import TraceSet
from repro.traces.profiler import Profiler
from repro.util.rng import spawn_rngs
from repro.vmm.host import HostServer
from repro.vmm.monitor import PerformanceMonitoringAgent
from repro.vmm.vm import METRICS
from repro.vmm.workloads import paper_vm_specs

__all__ = ["generate_paper_traces", "load_paper_traces", "DEFAULT_SEED"]

#: Seed used by every experiment driver unless overridden.
DEFAULT_SEED = 20070326  # the IPPS 2007 conference opening date

_CACHE: dict[int, TraceSet] = {}


def generate_paper_traces(
    seed: int = DEFAULT_SEED,
    *,
    prediction_db: PredictionDatabase | None = None,
) -> TraceSet:
    """Simulate the testbed and extract all 60 evaluation traces.

    Parameters
    ----------
    seed:
        Controls the job schedule, device noise, and host background.
    prediction_db:
        Optional database to mirror extractions into (the prototype's
        dataflow); omitted by default to keep generation lean.
    """
    specs = paper_vm_specs(seed)
    host = HostServer()
    agent = PerformanceMonitoringAgent(host)
    profiler = Profiler(prediction_db)
    trace_set = TraceSet()
    rngs = spawn_rngs(seed + 1, len(specs))
    for spec, rng in zip(specs, rngs):
        rrd = agent.collect(
            spec.vm,
            spec.duration_minutes,
            report_interval_minutes=spec.report_interval_minutes,
            seed=rng,
        )
        for metric in METRICS:
            trace_set.add(profiler.extract(rrd, spec.vm_id, metric, archive=1))
    return trace_set


def load_paper_traces(seed: int = DEFAULT_SEED) -> TraceSet:
    """Memoized :func:`generate_paper_traces` (no prediction-DB mirroring).

    The returned object is shared — treat it as read-only.
    """
    seed = int(seed)
    cached = _CACHE.get(seed)
    if cached is None:
        cached = generate_paper_traces(seed)
        _CACHE[seed] = cached
    return cached
