"""Unit tests for the frequency-governor agent."""

import numpy as np
import pytest

from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import (
    FrequencyGovernorAgent,
    FrequencyGovernorOptions,
)
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _controller(target, nodes=4, intensity=8.0, execution_model=None, **opts):
    job = Job(name="fg", config=KernelConfig(intensity=intensity),
              node_count=nodes)
    agent = FrequencyGovernorAgent(
        target_freq_ghz=target,
        options=FrequencyGovernorOptions(**opts) if opts else FrequencyGovernorOptions(),
    )
    controller = Controller(job, np.ones(nodes), agent, model=execution_model)
    return controller, agent


class TestOptions:
    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            FrequencyGovernorOptions(gain=0.0)

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValueError):
            FrequencyGovernorOptions(min_limit_w=240.0, max_limit_w=136.0)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            FrequencyGovernorAgent(target_freq_ghz=0.0)


class TestTracking:
    @pytest.mark.parametrize("target", [1.75, 1.9, 2.0])
    def test_reaches_in_band_target(self, execution_model, target):
        controller, agent = _controller(target, execution_model=execution_model)
        controller.run(max_epochs=60)
        achieved = controller.steady_state_sample().mean_freq_ghz
        np.testing.assert_allclose(achieved, target, atol=0.02)

    def test_converged_flag(self, execution_model):
        controller, agent = _controller(1.8, execution_model=execution_model)
        controller.run(max_epochs=60)
        assert agent.converged()
        assert agent.describe()["max_error_ghz"] <= 0.01

    def test_unreachable_high_target_saturates_at_tdp(self, execution_model):
        """A target above turbo pins limits at TDP and still terminates."""
        controller, agent = _controller(3.0, execution_model=execution_model)
        controller.run(max_epochs=80)
        limits = controller.final_limits_w()
        np.testing.assert_allclose(limits, 240.0)
        assert agent.describe()["max_error_ghz"] > 0.5

    def test_unreachable_low_target_saturates_at_floor(self, execution_model):
        """A target below what the floor cap permits pins at the floor."""
        controller, agent = _controller(1.0, execution_model=execution_model)
        controller.run(max_epochs=80)
        limits = controller.final_limits_w()
        np.testing.assert_allclose(limits, 136.0)

    def test_tracks_across_activity_levels(self, execution_model):
        """The same target frequency is reached for different workloads —
        the agent learns each workload's W/GHz slope online."""
        for intensity in (1.0, 8.0, 32.0):
            controller, _ = _controller(
                1.8, intensity=intensity, execution_model=execution_model
            )
            controller.run(max_epochs=60)
            achieved = controller.steady_state_sample().mean_freq_ghz
            np.testing.assert_allclose(achieved, 1.8, atol=0.02)

    def test_per_host_variation_handled(self, execution_model):
        """Hosts with different efficiencies need different limits for the
        same frequency; the agent finds them."""
        job = Job(name="fg", config=KernelConfig(intensity=8.0), node_count=3)
        agent = FrequencyGovernorAgent(target_freq_ghz=1.85)
        eff = np.array([0.9, 1.0, 1.1])
        controller = Controller(job, eff, agent, model=execution_model)
        controller.run(max_epochs=80)
        achieved = controller.steady_state_sample().mean_freq_ghz
        np.testing.assert_allclose(achieved, 1.85, atol=0.02)
        limits = controller.final_limits_w()
        assert limits[2] > limits[0]  # inefficient part needs more power


class TestBatching:
    def test_five_agent_mix_batches_without_fallback(self):
        """The repository benchmark's ``runtime`` mix — balancers at TDP
        and at 0.8 TDP, a power governor, a monitor and a 1.8 GHz frequency
        governor — batches every run; none steps through the per-run
        fallback."""
        from repro.runtime.batch import ControllerBatch, ControllerRunSpec
        from repro.runtime.monitor import MonitorAgent
        from repro.runtime.power_balancer import PowerBalancerAgent
        from repro.runtime.power_governor import PowerGovernorAgent

        hosts = 4
        full = 240.0 * hosts
        factories = [
            lambda: PowerBalancerAgent(job_budget_w=full),
            lambda: PowerBalancerAgent(job_budget_w=0.8 * full),
            lambda: PowerGovernorAgent(job_budget_w=0.8 * full),
            MonitorAgent,
            lambda: FrequencyGovernorAgent(target_freq_ghz=1.8),
        ]
        configs = [KernelConfig(intensity=i) for i in (2.0, 16.0)]
        specs = [
            ControllerRunSpec(
                job=Job(name=f"mix-{k}-{c.label()}", config=c,
                        node_count=hosts),
                efficiencies=np.ones(hosts), agent=factory(),
                noise_std=0.003, seed=k,
            )
            for k, factory in enumerate(factories)
            for c in configs
        ]
        batch = ControllerBatch(specs)
        assert batch._fallback == []
        assert len(batch._groups) == 4  # one per agent class

    def test_make_batch_declines_mixed_options_and_stepped_agents(self):
        plain = FrequencyGovernorAgent(target_freq_ghz=1.8)
        tuned = FrequencyGovernorAgent(
            target_freq_ghz=1.8, options=FrequencyGovernorOptions(gain=0.5)
        )
        assert FrequencyGovernorAgent.make_batch([plain, tuned]) is None
        stepped, _ = _controller(1.8)
        stepped.run(max_epochs=1, min_epochs=1)
        assert FrequencyGovernorAgent.make_batch(
            [FrequencyGovernorAgent(1.8), stepped.agent]
        ) is None
        assert FrequencyGovernorAgent.make_batch(
            [FrequencyGovernorAgent(1.8), FrequencyGovernorAgent(2.0)]
        ) is not None
