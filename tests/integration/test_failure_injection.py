"""Failure injection: the stack under misbehaving components.

A production power stack must contain faults, not propagate them: rogue
agents, corrupt characterizations, pathological workload shapes, and
extreme budgets.  These tests inject each and assert the containment
behaviour (clamping, validation errors, graceful degradation).
"""

import numpy as np
import pytest

from repro.core.registry import default_policies
from repro.runtime.agent import Agent
from repro.runtime.controller import Controller
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig
from tests.unit.test_policies_basic import make_char


class RogueAgent(Agent):
    """An agent that returns out-of-range, even non-physical limits."""

    name = "rogue"

    def __init__(self, limits):
        self._limits = np.asarray(limits, dtype=float)

    def adjust(self, sample):
        return self._limits.copy()


class TestRogueAgent:
    def test_controller_clamps_absurd_limits(self, execution_model):
        """Limits of 10 kW and 1 W both land inside the RAPL range before
        touching the platform."""
        job = Job(name="r", config=KernelConfig(intensity=8.0), node_count=2)
        agent = RogueAgent([10_000.0, 1.0])
        ctl = Controller(job, np.ones(2), agent, model=execution_model)
        ctl.run(max_epochs=3, min_epochs=3)
        sample = ctl.steady_state_sample()
        assert sample.power_limit_w[0] == pytest.approx(240.0)
        assert sample.power_limit_w[1] == pytest.approx(136.0)

    def test_physics_stays_finite_under_rogue_limits(self, execution_model):
        job = Job(name="r", config=KernelConfig(intensity=0.25), node_count=2)
        agent = RogueAgent([1e9, 1e-9])
        ctl = Controller(job, np.ones(2), agent, model=execution_model)
        report = ctl.run(max_epochs=3, min_epochs=3)
        assert np.all(np.isfinite(report.energy_j()))
        assert np.all(report.mean_freq_ghz() > 0)


class TestCorruptCharacterization:
    def test_needed_above_monitor_still_safe(self):
        """A corrupt characterization (needed > observed) must not push
        any policy outside the RAPL range or the budget."""
        char = make_char(
            monitor=[180, 180],
            needed=[239, 239],  # nonsense: needs more than it draws
            boundaries=[0, 2],
        )
        for policy in default_policies():
            alloc = policy.allocate(char, 400.0)
            assert np.all(alloc.caps_w >= 136.0 - 1e-9)
            assert np.all(alloc.caps_w <= 240.0 + 1e-9)
            if policy.system_power_aware:
                assert alloc.within_budget(), policy.name

    def test_degenerate_equal_characterization(self):
        """All hosts identical: policies reduce to uniform allocations."""
        char = make_char(
            monitor=[200, 200, 200, 200],
            needed=[200, 200, 200, 200],
            boundaries=[0, 2, 4],
        )
        for policy in default_policies():
            alloc = policy.allocate(char, 800.0)
            assert np.ptp(alloc.caps_w) < 1e-6, policy.name


class TestPathologicalWorkloads:
    def test_single_node_mix(self, execution_model):
        mix = WorkloadMix(
            name="tiny",
            jobs=(Job(name="one", config=KernelConfig(intensity=8.0),
                      node_count=1, iterations=3),),
        )
        result = simulate_mix(
            mix, np.array([200.0]), np.ones(1), execution_model,
            SimulationOptions(noise_std=0.0),
        )
        assert result.mean_elapsed_s > 0

    def test_extreme_intensity(self, execution_model):
        """Intensity far beyond the calibration grid stays physical."""
        mix = WorkloadMix(
            name="hot",
            jobs=(Job(name="j", config=KernelConfig(intensity=10_000.0),
                      node_count=2, iterations=2),),
        )
        result = simulate_mix(
            mix, np.full(2, 240.0), np.ones(2), execution_model,
            SimulationOptions(noise_std=0.0),
        )
        assert np.all(np.isfinite(result.iteration_times_s))
        assert np.all(result.host_mean_power_w <= 240.0 + 1e-6)

    def test_tiny_work_quantum(self, execution_model):
        """Microscopic iterations: barrier overhead dominates but nothing
        degenerates."""
        config = KernelConfig(intensity=8.0, common_traffic_gb=1e-6)
        mix = WorkloadMix(
            name="micro",
            jobs=(Job(name="j", config=config, node_count=2, iterations=3),),
        )
        result = simulate_mix(
            mix, np.full(2, 200.0), np.ones(2), execution_model,
            SimulationOptions(noise_std=0.0),
        )
        assert np.all(result.iteration_times_s > 0)
        assert np.all(np.isfinite(result.host_mean_power_w))


class TestExtremeBudgets:
    def test_budget_below_floor_degenerates_uniform(self):
        """A budget below hosts x floor: every policy pins at the floor
        and the run is still well-defined (the paper: 'power caps less
        than min result in all policies producing the same
        configuration')."""
        char = make_char(
            monitor=[230, 210], needed=[220, 200], boundaries=[0, 2]
        )
        caps = {}
        for policy in default_policies():
            if not policy.system_power_aware:
                continue
            alloc = policy.allocate(char, 100.0)  # 50 W/host << 136 floor
            caps[policy.name] = alloc.caps_w
        for name, c in caps.items():
            np.testing.assert_allclose(c, 136.0, err_msg=name)

    def test_gigantic_budget_capped_at_tdp(self):
        char = make_char(
            monitor=[230, 210], needed=[220, 200], boundaries=[0, 2]
        )
        for policy in default_policies():
            alloc = policy.allocate(char, 1e9)
            assert np.all(alloc.caps_w <= 240.0 + 1e-9), policy.name
