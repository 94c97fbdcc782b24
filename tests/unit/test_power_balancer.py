"""Unit tests for the power balancer agent's feedback loop."""

import numpy as np
import pytest

from repro.runtime.agent import PlatformSample, SampleBatch
from repro.runtime.power_balancer import BalancerOptions, PowerBalancerAgent


def _sample(limits, times, powers=None, epoch=0):
    limits = np.asarray(limits, dtype=float)
    times = np.asarray(times, dtype=float)
    powers = np.asarray(
        powers if powers is not None else limits * 0.95, dtype=float
    )
    return PlatformSample(
        epoch=epoch,
        host_time_s=times,
        epoch_time_s=float(times.max()),
        host_power_w=powers,
        power_limit_w=limits,
        host_energy_j=powers * times,
        mean_freq_ghz=np.full(limits.size, 2.0),
    )


class TestOptions:
    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            BalancerOptions(gain=0.0)

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValueError):
            BalancerOptions(min_limit_w=240.0, max_limit_w=136.0)

    def test_rejects_bad_harvest(self):
        with pytest.raises(ValueError):
            BalancerOptions(harvest_fraction=0.0)
        with pytest.raises(ValueError):
            BalancerOptions(harvest_fraction=1.5)


class TestFirstEpoch:
    def test_initial_limits_uniform(self):
        agent = PowerBalancerAgent(job_budget_w=960.0)
        out = agent.adjust(_sample(np.full(4, 240.0), np.ones(4)))
        np.testing.assert_allclose(out, 240.0)

    def test_initial_limits_clamped(self):
        agent = PowerBalancerAgent(job_budget_w=100.0)  # 25 W/host -> floor
        out = agent.adjust(_sample(np.full(4, 240.0), np.ones(4)))
        np.testing.assert_allclose(out, 136.0)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PowerBalancerAgent(job_budget_w=-5.0)


class TestFeedback:
    def test_cuts_slack_hosts(self):
        agent = PowerBalancerAgent(job_budget_w=960.0)
        limits = agent.adjust(_sample(np.full(4, 240.0), np.ones(4)))
        # Host 3 is the critical path; hosts 0-2 have 40 % slack.
        times = np.array([0.6, 0.6, 0.6, 1.0])
        new = agent.adjust(_sample(limits, times, epoch=1))
        assert np.all(new[:3] < limits[:3])
        assert new[3] >= limits[3] - 1e-9

    def test_budget_conserved(self):
        agent = PowerBalancerAgent(job_budget_w=800.0)
        limits = agent.adjust(_sample(np.full(4, 200.0), np.ones(4)))
        times = np.array([0.5, 0.8, 0.9, 1.0])
        for epoch in range(1, 20):
            limits = agent.adjust(_sample(limits, times, epoch=epoch))
            total = float(np.sum(limits)) + agent.describe()["unallocated_w"]
            assert total == pytest.approx(800.0, abs=1e-6)

    def test_respects_harvest_floor(self):
        """Cuts stop at the harvest-fraction distance from the initial
        observed power."""
        opts = BalancerOptions(harvest_fraction=0.5)
        agent = PowerBalancerAgent(job_budget_w=960.0, options=opts)
        first = _sample(np.full(4, 240.0), np.ones(4), powers=np.full(4, 220.0))
        limits = agent.adjust(first)
        times = np.array([0.2, 0.2, 0.2, 1.0])
        for epoch in range(1, 50):
            limits = agent.adjust(_sample(limits, times, epoch=epoch))
        floor = 220.0 - 0.5 * (220.0 - opts.min_limit_w)
        assert np.all(limits[:3] >= floor - 1e-6)

    def test_idealised_harvest_reaches_rapl_floor(self):
        opts = BalancerOptions(harvest_fraction=1.0, gain=0.8)
        agent = PowerBalancerAgent(job_budget_w=960.0, options=opts)
        limits = agent.adjust(
            _sample(np.full(4, 240.0), np.ones(4), powers=np.full(4, 230.0))
        )
        times = np.array([0.1, 0.1, 0.1, 1.0])
        for epoch in range(1, 60):
            limits = agent.adjust(_sample(limits, times, epoch=epoch))
        np.testing.assert_allclose(limits[:3], opts.min_limit_w, atol=1.0)

    def test_convergence_on_balanced_job(self):
        agent = PowerBalancerAgent(job_budget_w=800.0)
        limits = agent.adjust(_sample(np.full(4, 200.0), np.ones(4)))
        for epoch in range(1, 10):
            limits = agent.adjust(_sample(limits, np.ones(4), epoch=epoch))
            if agent.converged():
                break
        assert agent.converged()
        np.testing.assert_allclose(limits, 200.0, atol=1.0)

    def test_never_below_rapl_floor(self):
        agent = PowerBalancerAgent(
            job_budget_w=800.0, options=BalancerOptions(harvest_fraction=1.0)
        )
        limits = agent.adjust(_sample(np.full(4, 200.0), np.ones(4)))
        times = np.array([0.01, 0.01, 0.01, 1.0])
        for epoch in range(1, 40):
            limits = agent.adjust(_sample(limits, times, epoch=epoch))
        assert np.all(limits >= 136.0 - 1e-9)

    def test_never_above_tdp(self):
        agent = PowerBalancerAgent(job_budget_w=2000.0)
        limits = agent.adjust(_sample(np.full(4, 240.0), np.ones(4)))
        times = np.array([0.5, 0.5, 0.5, 1.0])
        for epoch in range(1, 40):
            limits = agent.adjust(_sample(limits, times, epoch=epoch))
        assert np.all(limits <= 240.0 + 1e-9)

    def test_degenerate_epoch_holds_state(self):
        """An epoch with no positive host time steps nothing; in a batch
        only that row holds, the other steps as its serial twin."""
        agent, twin = (PowerBalancerAgent(job_budget_w=800.0) for _ in "ab")
        batch = PowerBalancerAgent.make_batch(
            [PowerBalancerAgent(job_budget_w=800.0) for _ in "ab"]
        )
        first = _sample(np.full(4, 200.0), np.ones(4))
        limits = agent.adjust(first)
        twin.adjust(first)
        before = agent.describe()
        held = _sample(limits, np.zeros(4), epoch=1)
        moving = _sample(limits, np.array([0.5, 0.8, 0.9, 1.0]), epoch=1)
        np.testing.assert_array_equal(agent.adjust(held), limits)
        assert agent.describe() == before
        rows = np.arange(2)
        stacked = [first, first], [held, moving]
        for samples in stacked:
            out = batch.adjust_batch(SampleBatch(
                samples[0].epoch,
                *(np.stack([getattr(s, f) for s in samples]) for f in (
                    "host_time_s", "epoch_time_s", "host_power_w",
                    "power_limit_w", "host_energy_j", "mean_freq_ghz",
                )),
            ), rows)
        np.testing.assert_array_equal(out[0], limits)
        np.testing.assert_array_equal(out[1], twin.adjust(moving))
        assert [batch.describe_run(r) for r in rows] == [
            before, twin.describe()
        ]

    def test_describe_keys(self):
        agent = PowerBalancerAgent(job_budget_w=500.0)
        info = agent.describe()
        assert set(info) == {
            "job_budget_w", "unallocated_w", "last_step_w",
            "steps", "harvested_w", "redistributed_w",
        }
