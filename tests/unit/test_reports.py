"""Unit tests for GEOPM-style reports."""

import numpy as np
import pytest

from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.reports import HostReport, JobReport
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _host(i, power=200.0, runtime=10.0):
    return HostReport(
        host_id=i,
        runtime_s=runtime,
        energy_j=power * runtime,
        mean_power_w=power,
        mean_freq_ghz=2.0,
        power_limit_w=240.0,
        epochs=5,
    )


class TestHostReport:
    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            HostReport(0, -1.0, 0.0, 0.0, 2.0, 240.0, 1)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            HostReport(0, 1.0, -5.0, 0.0, 2.0, 240.0, 1)


class TestJobReport:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JobReport(job_name="j", agent="monitor", hosts=())

    def test_rejects_unordered_hosts(self):
        with pytest.raises(ValueError, match="ordered"):
            JobReport(job_name="j", agent="monitor", hosts=(_host(1), _host(0)))

    def test_rejects_duplicate_hosts(self):
        with pytest.raises(ValueError):
            JobReport(job_name="j", agent="monitor", hosts=(_host(0), _host(0)))

    def test_array_accessors(self):
        report = JobReport(
            job_name="j", agent="monitor", hosts=(_host(0, 180.0), _host(1, 220.0))
        )
        np.testing.assert_allclose(report.mean_power_w(), [180.0, 220.0])
        assert report.host_count == 2

    def test_total_energy(self):
        report = JobReport(
            job_name="j", agent="monitor",
            hosts=(_host(0, 100.0, 10.0), _host(1, 200.0, 10.0)),
        )
        assert report.total_energy_j() == pytest.approx(3000.0)

    def test_summary(self):
        report = JobReport(
            job_name="j", agent="monitor", hosts=(_host(0, 100.0), _host(1, 300.0))
        )
        s = report.summary()
        assert s["hosts"] == 2.0
        assert s["mean_power_w"] == pytest.approx(200.0)
        assert s["min_power_w"] == pytest.approx(100.0)

    def test_controller_report_carries_balancer_metadata(self, execution_model):
        """A real balancer run reports every host and the agent's
        budget bookkeeping."""
        job = Job(
            name="real",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=3,
        )
        agent = PowerBalancerAgent(job_budget_w=3 * 240.0)
        report = Controller(job, np.ones(3), agent,
                            model=execution_model).run(max_epochs=60)
        assert "unallocated_w" in report.metadata
        assert report.host_count == 3
