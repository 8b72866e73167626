"""The performance monitoring agent (paper §3.2, Figure 1).

"A performance monitoring agent is installed in the VMM ... The tool
samples every minute, and updates its data every five minutes with an
average of the one-minute statistics over the given five-minute
interval. The collected data is stored in a Round Robin Database."

:class:`PerformanceMonitoringAgent` is that component for the simulated
host: it drives the host/guest simulation at one-minute resolution and
writes each VM's whole sample matrix, in one block, into a per-VM
:class:`~repro.db.rrd.RoundRobinDatabase` with two archives — the raw
one-minute samples and the consolidated (averaged) report-interval
archive the profiler later reads (5 minutes for VM2-VM5, 30 minutes for
VM1).
"""

from __future__ import annotations

import numpy as np

from repro.db.rrd import ArchiveSpec, RoundRobinDatabase
from repro.exceptions import ConfigurationError
from repro.util.rng import resolve_rng
from repro.vmm.host import HostServer
from repro.vmm.vm import METRICS, GuestVM

__all__ = ["PerformanceMonitoringAgent"]

#: Primary sampling interval (vmkusage samples every minute).
SAMPLE_STEP_SECONDS = 60


class PerformanceMonitoringAgent:
    """vmkusage-like collector: simulate, sample, consolidate, store.

    Parameters
    ----------
    host:
        The :class:`~repro.vmm.host.HostServer` whose guests are traced.
    raw_rows:
        Capacity of the raw one-minute archive. Defaults to two weeks.
    """

    def __init__(self, host: HostServer, *, raw_rows: int = 20160):
        self.host = host
        self.raw_rows = int(raw_rows)
        if self.raw_rows < 1:
            raise ConfigurationError(f"raw_rows must be >= 1, got {raw_rows}")

    def collect(
        self,
        vm: GuestVM,
        n_minutes: int,
        *,
        report_interval_minutes: int = 5,
        seed=None,
    ) -> RoundRobinDatabase:
        """Trace one guest for *n_minutes* and return its filled RRD.

        Parameters
        ----------
        report_interval_minutes:
            Consolidation width of the averaged archive — the interval
            at which the paper's traces are reported (5 or 30).

        Returns
        -------
        RoundRobinDatabase
            Archive 0 holds the raw one-minute samples, archive 1 the
            ``report_interval_minutes``-averaged series.
        """
        n_minutes = int(n_minutes)
        if n_minutes < 1:
            raise ConfigurationError(f"n_minutes must be >= 1, got {n_minutes}")
        interval = int(report_interval_minutes)
        if interval < 1:
            raise ConfigurationError(
                f"report_interval_minutes must be >= 1, got {interval}"
            )
        rng = resolve_rng(seed)
        samples = self.host.simulate_vm(vm, n_minutes, seed=rng)
        return self._store(samples, n_minutes, interval)

    def collect_cohort(
        self,
        vms,
        n_minutes: int,
        *,
        report_interval_minutes: int = 5,
        seed=None,
    ) -> dict[str, RoundRobinDatabase]:
        """Trace several co-hosted guests simultaneously.

        Uses :meth:`repro.vmm.host.HostServer.simulate_cohort`, so the
        guests contend with each other for CPU (the paper's actual
        five-VMs-on-one-Xeon deployment), and returns one filled RRD per
        guest.
        """
        n_minutes = int(n_minutes)
        if n_minutes < 1:
            raise ConfigurationError(f"n_minutes must be >= 1, got {n_minutes}")
        interval = int(report_interval_minutes)
        if interval < 1:
            raise ConfigurationError(
                f"report_interval_minutes must be >= 1, got {interval}"
            )
        cohort = self.host.simulate_cohort(vms, n_minutes, seed=seed)
        return {
            vm_id: self._store(samples, n_minutes, interval)
            for vm_id, samples in cohort.items()
        }

    def _store(
        self, samples: dict, n_minutes: int, interval: int
    ) -> RoundRobinDatabase:
        consolidated_rows = max(1, n_minutes // interval)
        rrd = RoundRobinDatabase(
            step=SAMPLE_STEP_SECONDS,
            sources=METRICS,
            archives=[
                ArchiveSpec("average", 1, min(self.raw_rows, n_minutes)),
                ArchiveSpec("average", interval, consolidated_rows),
            ],
        )
        rrd.update_many(
            np.arange(n_minutes) * SAMPLE_STEP_SECONDS,
            {metric: samples[metric] for metric in METRICS},
        )
        return rrd
