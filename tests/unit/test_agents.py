"""Unit tests for the agent framework, monitor, and governor agents."""

import numpy as np
import pytest

from repro.runtime.agent import PlatformSample
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_governor import PowerGovernorAgent


def _sample(limits, times=None, epoch=0):
    limits = np.asarray(limits, dtype=float)
    n = limits.size
    times = np.asarray(times if times is not None else np.ones(n), dtype=float)
    return PlatformSample(
        epoch=epoch,
        host_time_s=times,
        epoch_time_s=float(times.max()),
        host_power_w=limits * 0.9,
        power_limit_w=limits,
        host_energy_j=limits * times,
        mean_freq_ghz=np.full(n, 2.0),
    )


class TestMonitorAgent:
    def test_echoes_limits(self):
        agent = MonitorAgent()
        limits = np.array([200.0, 210.0])
        out = agent.adjust(_sample(limits))
        np.testing.assert_array_equal(out, limits)

    def test_returns_copy(self):
        agent = MonitorAgent()
        limits = np.array([200.0, 210.0])
        out = agent.adjust(_sample(limits))
        out[0] = 0.0
        assert limits[0] == 200.0

    def test_trivially_converged(self):
        assert MonitorAgent().converged()


class TestPowerGovernorAgent:
    def test_uniform_split(self):
        agent = PowerGovernorAgent(job_budget_w=800.0)
        out = agent.adjust(_sample(np.full(4, 240.0)))
        np.testing.assert_allclose(out, 200.0)

    def test_constant_across_epochs(self):
        agent = PowerGovernorAgent(job_budget_w=800.0)
        first = agent.adjust(_sample(np.full(4, 240.0), epoch=0))
        second = agent.adjust(_sample(first, epoch=1))
        np.testing.assert_array_equal(first, second)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PowerGovernorAgent(job_budget_w=0.0)

    def test_describe(self):
        assert PowerGovernorAgent(500.0).describe() == {"job_budget_w": 500.0}
