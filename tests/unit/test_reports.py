"""Unit tests for GEOPM-style reports."""

import numpy as np
import pytest

from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.reports import HostReport, report_from_sums
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _report(power=(200.0, 200.0), runtime=10.0, epochs=5, energy=None,
            limits=None):
    """A report whose hosts drew ``power`` for ``runtime`` seconds."""
    power = np.asarray(power, dtype=float)
    times = np.full(epochs, runtime / epochs)
    return report_from_sums(
        job_name="j", agent="monitor",
        epoch_times_s=times,
        energy_j=power * float(np.sum(times)) if energy is None else energy,
        freq_sum_ghz=np.full(power.size, 2.0 * epochs),
        final_limits_w=(np.full(power.size, 240.0) if limits is None
                        else limits),
        metadata={},
    )


class TestReportFromSums:
    @pytest.mark.parametrize("energy", [[-5.0, 100.0], [np.nan, 100.0]],
                             ids=["negative", "nan"])
    def test_rejects_negative_or_nan_energy(self, energy):
        with pytest.raises(ValueError, match="non-negative"):
            _report(energy=np.array(energy))

    @pytest.mark.parametrize("time", [-1.0, np.nan], ids=["negative", "nan"])
    def test_rejects_negative_or_nan_runtime(self, time):
        with pytest.raises(ValueError, match="non-negative"):
            report_from_sums("j", "monitor", np.array([time]),
                             np.ones(2), np.ones(2), np.ones(2), {})

    def test_rejects_no_epochs(self):
        with pytest.raises(ValueError, match="epoch"):
            report_from_sums("j", "monitor", np.array([]),
                             np.ones(2), np.ones(2), np.ones(2), {})

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="shape"):
            _report(limits=np.full(3, 240.0))

    def test_columns_are_read_only_copies(self):
        energy = np.array([1000.0, 2000.0])
        limits = np.array([200.0, 220.0])
        report = _report(energy=energy, limits=limits)
        energy[0] = limits[0] = 0.0
        assert report.energy_j()[0] == 1000.0
        assert report.power_limits_w()[0] == 200.0
        for column in (report.energy_j(), report.mean_power_w(),
                       report.mean_freq_ghz(), report.power_limits_w()):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0


class TestJobReport:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="host"):
            _report(power=())

    def test_array_accessors(self):
        report = _report(power=(180.0, 220.0))
        np.testing.assert_allclose(report.mean_power_w(), [180.0, 220.0])
        np.testing.assert_array_equal(report.runtime_s(), [10.0, 10.0])
        np.testing.assert_array_equal(report.mean_freq_ghz(), [2.0, 2.0])
        assert report.host_count == 2

    def test_total_energy(self):
        report = _report(power=(100.0, 200.0), runtime=10.0)
        assert report.total_energy_j() == pytest.approx(3000.0)

    def test_summary(self):
        s = _report(power=(100.0, 300.0)).summary()
        assert s["hosts"] == 2.0
        assert s["max_runtime_s"] == 10.0
        assert s["mean_power_w"] == pytest.approx(200.0)
        assert s["min_power_w"] == pytest.approx(100.0)

    def test_hosts_equal_the_columns(self):
        report = _report(power=(180.0, 220.0, 200.0),
                         limits=np.array([200.0, 230.0, 240.0]))
        hosts = report.hosts
        assert all(isinstance(h, HostReport) for h in hosts)
        assert [h.host_id for h in hosts] == [0, 1, 2]
        assert [h.energy_j for h in hosts] == report.energy_j().tolist()
        assert [h.mean_power_w for h in hosts] == (
            report.mean_power_w().tolist())
        assert [h.mean_freq_ghz for h in hosts] == (
            report.mean_freq_ghz().tolist())
        assert [h.power_limit_w for h in hosts] == (
            report.power_limits_w().tolist())
        assert [h.runtime_s for h in hosts] == report.runtime_s().tolist()
        assert all(h.epochs == report.epochs == 5 for h in hosts)
        assert hosts == report.hosts

    def test_equality_is_exact(self):
        energy = np.array([1000.0, 2000.0])
        report = _report(energy=energy)
        assert report == _report(energy=energy.copy())
        nudged = energy.copy()
        nudged[1] = np.nextafter(nudged[1], np.inf)
        other = _report(energy=nudged)
        assert report != other
        assert report.hosts != other.hosts

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
