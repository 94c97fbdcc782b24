"""Unit tests for the bulk-synchronous execution loop."""

import numpy as np
import pytest

from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _mix(intensity=8.0, nodes=6, waiting=0.0, imbalance=1, iters=10, jobs=1):
    job_list = tuple(
        Job(
            name=f"j{i}",
            config=KernelConfig(
                intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
            ),
            node_count=nodes,
            iterations=iters,
        )
        for i in range(jobs)
    )
    return WorkloadMix(name="m", jobs=job_list)


class TestValidation:
    def test_cap_shape_checked(self, execution_model):
        mix = _mix()
        with pytest.raises(ValueError, match="caps_w"):
            simulate_mix(mix, np.full(3, 200.0), np.ones(6), execution_model)

    def test_efficiency_shape_checked(self, execution_model):
        mix = _mix()
        with pytest.raises(ValueError, match="efficiencies"):
            simulate_mix(mix, np.full(6, 200.0), np.ones(3), execution_model)

    def test_mismatched_iterations_rejected(self, execution_model):
        jobs = (
            Job(name="a", config=KernelConfig(intensity=1.0), node_count=2, iterations=5),
            Job(name="b", config=KernelConfig(intensity=1.0), node_count=2, iterations=9),
        )
        mix = WorkloadMix(name="m", jobs=jobs)
        with pytest.raises(ValueError, match="same iteration count"):
            simulate_mix(mix, np.full(4, 200.0), np.ones(4), execution_model)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SimulationOptions(noise_std=-0.1)

    @pytest.mark.parametrize("seed", [None, 1.5, 2.0, "3"])
    def test_non_integer_seed_rejected(self, seed):
        # None would draw OS entropy: two identical runs would differ.
        with pytest.raises(TypeError, match="seed must be an integer"):
            SimulationOptions(seed=seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationOptions(seed=seed)

    def test_rejected_even_without_noise(self):
        with pytest.raises(ValueError, match="seed"):
            SimulationOptions(noise_std=0.0, seed=-1)

    @pytest.mark.parametrize("seed", [0, 2**70, np.int64(5), np.uint32(9)])
    def test_integral_seeds_accepted(self, execution_model, seed):
        mix = _mix()
        caps, eff = np.full(6, 200.0), np.ones(6)
        opts = SimulationOptions(seed=seed)
        a = simulate_mix(mix, caps, eff, execution_model, opts)
        b = simulate_mix(mix, caps, eff, execution_model,
                         SimulationOptions(seed=int(seed)))
        assert a == b


class TestDeterminism:
    def test_same_seed_same_result(self, execution_model):
        mix = _mix()
        caps, eff = np.full(6, 200.0), np.ones(6)
        opts = SimulationOptions(seed=4)
        a = simulate_mix(mix, caps, eff, execution_model, opts)
        b = simulate_mix(mix, caps, eff, execution_model, opts)
        np.testing.assert_array_equal(a.iteration_times_s, b.iteration_times_s)
        np.testing.assert_array_equal(a.host_energy_j, b.host_energy_j)

    def test_different_seed_differs(self, execution_model):
        mix = _mix()
        caps, eff = np.full(6, 200.0), np.ones(6)
        a = simulate_mix(mix, caps, eff, execution_model, SimulationOptions(seed=1))
        b = simulate_mix(mix, caps, eff, execution_model, SimulationOptions(seed=2))
        assert not np.array_equal(a.iteration_times_s, b.iteration_times_s)

    def test_zero_noise_iterations_identical(self, execution_model):
        mix = _mix()
        res = simulate_mix(
            mix, np.full(6, 200.0), np.ones(6), execution_model,
            SimulationOptions(noise_std=0.0),
        )
        spread = np.ptp(res.iteration_times_s, axis=0)
        np.testing.assert_allclose(spread, 0.0, atol=1e-15)


class TestPhysics:
    def test_result_shapes(self, execution_model):
        mix = _mix(iters=7, jobs=2)
        res = simulate_mix(mix, np.full(12, 200.0), np.ones(12), execution_model)
        assert res.iteration_times_s.shape == (7, 2)
        assert res.iteration_energy_j.shape == (7,)
        assert res.host_energy_j.shape == (12,)

    def test_more_power_is_faster_compute_bound(self, execution_model):
        mix = _mix(intensity=32.0)
        eff = np.ones(6)
        quiet = SimulationOptions(noise_std=0.0)
        slow = simulate_mix(mix, np.full(6, 150.0), eff, execution_model, quiet)
        fast = simulate_mix(mix, np.full(6, 240.0), eff, execution_model, quiet)
        assert fast.mean_elapsed_s < slow.mean_elapsed_s

    def test_caps_are_clamped_like_rapl(self, execution_model):
        """Caps outside the settable range behave as if clamped."""
        mix = _mix()
        eff = np.ones(6)
        quiet = SimulationOptions(noise_std=0.0)
        wild = simulate_mix(mix, np.full(6, 1000.0), eff, execution_model, quiet)
        clamped = simulate_mix(mix, np.full(6, 240.0), eff, execution_model, quiet)
        np.testing.assert_allclose(
            wild.iteration_times_s, clamped.iteration_times_s
        )

    def test_energy_positive(self, execution_model):
        mix = _mix()
        res = simulate_mix(mix, np.full(6, 200.0), np.ones(6), execution_model)
        assert np.all(res.host_energy_j > 0)

    def test_waiting_hosts_burn_slack_energy(self, execution_model):
        """Waiting hosts consume energy while polling — the paper's
        'consuming energy without making any application progress'."""
        mix = _mix(waiting=0.5, imbalance=3)
        quiet = SimulationOptions(noise_std=0.0)
        res = simulate_mix(mix, np.full(6, 240.0), np.ones(6), execution_model, quiet)
        layout = mix.layout()
        waiting_power = res.host_mean_power_w[~layout.critical]
        # Polling keeps waiting hosts well above idle: at least 80 % of a
        # critical host's mean power under no cap.
        critical_power = res.host_mean_power_w[layout.critical]
        assert waiting_power.min() > 0.8 * critical_power.max()

    def test_mean_power_below_cap(self, execution_model):
        mix = _mix()
        quiet = SimulationOptions(noise_std=0.0)
        res = simulate_mix(mix, np.full(6, 200.0), np.ones(6), execution_model, quiet)
        assert np.all(res.host_mean_power_w <= 200.0 + 1e-6)

    def test_total_gflop_deterministic(self, execution_model):
        mix = _mix(intensity=8.0, iters=10)
        res = simulate_mix(mix, np.full(6, 200.0), np.ones(6), execution_model)
        expected = 6 * 10 * 16.0  # hosts x iters x (8 f/b x 2 GB)
        assert res.total_gflop == pytest.approx(expected)

    def test_barrier_overhead_added(self, execution_model):
        mix = _mix()
        with_barrier = simulate_mix(
            mix, np.full(6, 200.0), np.ones(6), execution_model,
            SimulationOptions(noise_std=0.0, barrier_overhead_s=0.01),
        )
        without = simulate_mix(
            mix, np.full(6, 200.0), np.ones(6), execution_model,
            SimulationOptions(noise_std=0.0, barrier_overhead_s=0.0),
        )
        per_iter_delta = (
            with_barrier.iteration_times_s[0, 0] - without.iteration_times_s[0, 0]
        )
        assert per_iter_delta == pytest.approx(0.01)

    def test_metadata_recorded(self, execution_model):
        mix = _mix()
        res = simulate_mix(
            mix, np.full(6, 200.0), np.ones(6), execution_model,
            policy_name="TestPolicy", budget_w=1234.0,
        )
        assert res.policy_name == "TestPolicy"
        assert res.budget_w == 1234.0
