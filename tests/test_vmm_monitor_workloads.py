"""Unit tests for the monitoring agent and the paper workload profiles."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.vmm.devices import ConstantModel
from repro.vmm.host import HostServer
from repro.vmm.monitor import PerformanceMonitoringAgent
from repro.vmm.vm import METRICS, GuestVM
from repro.vmm.workloads import PAPER_TRACE_LAYOUT, build_vm, paper_vm_specs


def _ramp_vm():
    class Ramp(ConstantModel):
        def generate(self, n, rng):
            return np.arange(float(n))

    models = {m: ConstantModel(0.0) for m in METRICS}
    models["CPU_usedsec"] = ConstantModel(0.0)
    models["Memory_size"] = Ramp()
    return GuestVM(vm_id="R", description="ramp", models=models)


class TestMonitoringAgent:
    def test_two_archives(self):
        agent = PerformanceMonitoringAgent(HostServer())
        rrd = agent.collect(_ramp_vm(), 20, report_interval_minutes=5, seed=0)
        raw_t, raw_v = rrd.fetch("Memory_size", archive=0)
        con_t, con_v = rrd.fetch("Memory_size", archive=1)
        assert raw_v.size == 20
        assert con_v.size == 4

    def test_consolidation_is_average(self):
        agent = PerformanceMonitoringAgent(HostServer())
        rrd = agent.collect(_ramp_vm(), 10, report_interval_minutes=5, seed=0)
        _, v = rrd.fetch("Memory_size", archive=1)
        np.testing.assert_allclose(v, [2.0, 7.0])  # means of 0..4, 5..9

    def test_timestamps_are_minutes(self):
        agent = PerformanceMonitoringAgent(HostServer())
        rrd = agent.collect(_ramp_vm(), 10, report_interval_minutes=5, seed=0)
        t, _ = rrd.fetch("Memory_size", archive=0)
        np.testing.assert_array_equal(t, np.arange(10) * 60)

    def test_collect_stores_every_minute_once(self):
        """The agent's block write holds each simulated minute once, and
        the report archive is the per-bucket mean of those samples."""
        host, vm = HostServer(), build_vm("VM2", seed=5).vm
        rrd = PerformanceMonitoringAgent(host).collect(
            vm, 97, report_interval_minutes=5, seed=11
        )
        samples = host.simulate_vm(vm, 97, seed=11)
        assert rrd.n_updates == 97
        assert rrd.last_timestamp == 96 * 60
        for metric in METRICS:
            assert samples[metric].shape == (97,)
            t, v = rrd.fetch(metric, archive=1)
            np.testing.assert_array_equal(t, (np.arange(19) * 5 + 4) * 60)
            buckets = samples[metric][:95].reshape(19, 5)
            expected = np.array(
                [np.asarray([float(x) for x in bucket]).mean() for bucket in buckets]
            )
            np.testing.assert_array_equal(v.view(np.uint64), expected.view(np.uint64))

    def test_validation(self):
        agent = PerformanceMonitoringAgent(HostServer())
        with pytest.raises(ConfigurationError):
            agent.collect(_ramp_vm(), 0)
        with pytest.raises(ConfigurationError):
            agent.collect(_ramp_vm(), 10, report_interval_minutes=0)
        with pytest.raises(ConfigurationError):
            PerformanceMonitoringAgent(HostServer(), raw_rows=0)


class TestPaperLayout:
    def test_layout_matches_section7(self):
        assert PAPER_TRACE_LAYOUT["VM1"] == (7 * 24 * 60, 30)
        for vm in ("VM2", "VM3", "VM4", "VM5"):
            assert PAPER_TRACE_LAYOUT[vm] == (24 * 60, 5)

    def test_reported_point_counts(self):
        specs = {s.vm_id: s for s in paper_vm_specs(seed=0)}
        assert specs["VM1"].n_reported_points == 336
        assert specs["VM2"].n_reported_points == 288


class TestPaperProfiles:
    def test_five_vms(self):
        specs = paper_vm_specs(seed=0)
        assert [s.vm_id for s in specs] == ["VM1", "VM2", "VM3", "VM4", "VM5"]

    def test_every_vm_has_all_metrics(self):
        for spec in paper_vm_specs(seed=0):
            assert set(spec.vm.models) == set(METRICS)

    def test_nan_cells_match_table3(self):
        """The constant (unused) devices are exactly the paper's NaN cells."""
        specs = {s.vm_id: s for s in paper_vm_specs(seed=0)}
        expected_constant = {
            ("VM3", "Memory_swapped"),
            ("VM3", "NIC2_received"),
            ("VM3", "NIC2_transmitted"),
            ("VM3", "VD1_read"),
            ("VM3", "VD1_write"),
            ("VM5", "NIC1_received"),
            ("VM5", "NIC1_transmitted"),
            ("VM5", "VD2_read"),
        }
        actual = {
            (vm_id, metric)
            for vm_id, spec in specs.items()
            for metric, model in spec.vm.models.items()
            if isinstance(model, ConstantModel)
        }
        assert actual == expected_constant

    def test_build_single_vm(self):
        spec = build_vm("VM2", seed=1)
        assert spec.vm_id == "VM2"
        assert spec.report_interval_minutes == 5

    def test_build_unknown_vm(self):
        with pytest.raises(ConfigurationError):
            build_vm("VM9")

    def test_profiles_deterministic_in_seed(self):
        a = paper_vm_specs(seed=5)
        b = paper_vm_specs(seed=5)
        # VM1's job-driven CPU demand is the seeded structural part.
        da = a[0].vm.models["CPU_usedsec"].components[0].demand
        db = b[0].vm.models["CPU_usedsec"].components[0].demand
        np.testing.assert_array_equal(da, db)
