"""Property-based tests: execution-engine physics invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ExecutionModel
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig, INTENSITY_GRID

MODEL = ExecutionModel()


@st.composite
def kernel_configs(draw):
    intensity = draw(st.sampled_from(INTENSITY_GRID))
    imbalanced = draw(st.booleans())
    if imbalanced:
        waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
        imbalance = draw(st.sampled_from([2, 3]))
    else:
        waiting, imbalance = 0.0, 1
    return KernelConfig(
        intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
    )


@st.composite
def simulation_cases(draw):
    config = draw(kernel_configs())
    nodes = draw(st.integers(2, 8))
    job = Job(name="p", config=config, node_count=nodes, iterations=4)
    mix = WorkloadMix(name="p", jobs=(job,))
    caps = np.array(
        draw(
            st.lists(
                st.floats(136.0, 240.0, allow_nan=False),
                min_size=nodes,
                max_size=nodes,
            )
        )
    )
    effs = np.array(
        draw(
            st.lists(
                st.floats(0.85, 1.15, allow_nan=False),
                min_size=nodes,
                max_size=nodes,
            )
        )
    )
    return mix, caps, effs


class TestEngineInvariants:
    @given(case=simulation_cases())
    @settings(max_examples=150, deadline=None)
    def test_times_positive_and_finite(self, case):
        mix, caps, effs = case
        res = simulate_mix(mix, caps, effs, MODEL, SimulationOptions(noise_std=0.0))
        assert np.all(res.iteration_times_s > 0)
        assert np.all(np.isfinite(res.iteration_times_s))

    @given(case=simulation_cases())
    @settings(max_examples=150, deadline=None)
    def test_energy_positive_and_finite(self, case):
        mix, caps, effs = case
        res = simulate_mix(mix, caps, effs, MODEL, SimulationOptions(noise_std=0.0))
        assert np.all(res.host_energy_j > 0)
        assert np.all(np.isfinite(res.host_energy_j))

    @given(case=simulation_cases())
    @settings(max_examples=150, deadline=None)
    def test_host_power_within_physics(self, case):
        """Mean host power never exceeds min(cap, TDP) and never drops
        below the uncore floor."""
        mix, caps, effs = case
        res = simulate_mix(mix, caps, effs, MODEL, SimulationOptions(noise_std=0.0))
        assert np.all(res.host_mean_power_w <= np.minimum(caps, 240.0) + 1e-6)
        assert np.all(res.host_mean_power_w > 20.0)

    @given(case=simulation_cases())
    @settings(max_examples=100, deadline=None)
    def test_uniform_raise_never_slows(self, case):
        """Raising every cap by 20 W never increases any job's time."""
        mix, caps, effs = case
        quiet = SimulationOptions(noise_std=0.0)
        base = simulate_mix(mix, caps, effs, MODEL, quiet)
        boosted = simulate_mix(mix, np.minimum(caps + 20.0, 240.0), effs, MODEL, quiet)
        assert np.all(
            boosted.job_elapsed_s <= base.job_elapsed_s + 1e-9
        )

    @given(case=simulation_cases())
    @settings(max_examples=100, deadline=None)
    def test_iteration_energy_sums_to_total(self, case):
        mix, caps, effs = case
        res = simulate_mix(mix, caps, effs, MODEL, SimulationOptions(noise_std=0.0))
        assert float(np.sum(res.iteration_energy_j)) == pytest.approx(
            res.total_energy_j, rel=1e-9
        )

    @given(case=simulation_cases(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_noise_preserves_work(self, case, seed):
        """Noise perturbs time, never the retired FLOPs."""
        mix, caps, effs = case
        quiet = simulate_mix(mix, caps, effs, MODEL, SimulationOptions(noise_std=0.0))
        noisy = simulate_mix(
            mix, caps, effs, MODEL, SimulationOptions(noise_std=0.01, seed=seed)
        )
        assert noisy.total_gflop == quiet.total_gflop

    @given(case=simulation_cases())
    @settings(max_examples=100, deadline=None)
    def test_job_time_is_max_host_time(self, case):
        """The BSP contract: each job's iteration time is at least every
        member host's compute time (noise-free)."""
        mix, caps, effs = case
        layout = mix.layout()
        quiet = SimulationOptions(noise_std=0.0, barrier_overhead_s=0.0)
        res = simulate_mix(mix, caps, effs, MODEL, quiet)
        t = MODEL.bind(layout, effs)(caps)[2]
        job_time = res.iteration_times_s[0]
        assert np.all(t <= job_time[layout.job_index] + 1e-12)


@st.composite
def accounting_cases(draw):
    """Multi-job mixes under noisy or noise-free (broadcast) execution."""
    jobs = tuple(
        Job(name=f"j{i}", config=draw(kernel_configs()),
            node_count=draw(st.integers(1, 6)), iterations=5)
        for i in range(draw(st.integers(1, 3)))
    )
    mix = WorkloadMix(name="a", jobs=jobs)
    hosts = mix.total_nodes
    caps = np.array(draw(st.lists(st.floats(136.0, 240.0), min_size=hosts,
                                  max_size=hosts)))
    effs = np.array(draw(st.lists(st.floats(0.85, 1.15), min_size=hosts,
                                  max_size=hosts)))
    options = SimulationOptions(
        noise_std=draw(st.sampled_from([0.0, 0.008, 0.05])),
        barrier_overhead_s=draw(st.sampled_from([0.0, 5.0e-4])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return mix, caps, effs, options


def _host_times(mix, caps, effs, options):
    """The engine's ``(iterations, hosts)`` compute-time tensor, redrawn."""
    t = MODEL.bind(mix.layout(), effs)(caps)[2]
    shape = (mix.common_iterations(), mix.total_nodes)
    if options.noise_std == 0:
        return np.broadcast_to(t, shape)
    z = np.random.default_rng(options.seed).standard_normal(shape)
    return np.exp(options.noise_std * z) * t


class TestSlackFreeAccounting:
    """Hosts are billed their job's elapsed time without a slack tensor."""

    @given(case=accounting_cases())
    @settings(max_examples=150, deadline=None)
    def test_host_slack_is_non_negative_exactly(self, case):
        mix, caps, effs, options = case
        layout = mix.layout()
        res = simulate_mix(mix, caps, effs, MODEL, options)
        times = _host_times(mix, caps, effs, options)
        # The redrawn tensor is the engine's: its critical path reproduces
        # every job iteration time bit for bit.
        starts = layout.job_boundaries[:-1]
        assert np.array_equal(
            np.maximum.reduceat(times, starts, axis=1)
            + options.barrier_overhead_s,
            res.iteration_times_s,
        )
        slack = res.job_elapsed_s[layout.job_index] - times.sum(axis=0)
        assert np.all(slack >= 0.0)

    @given(case=accounting_cases())
    @settings(max_examples=150, deadline=None)
    def test_host_elapsed_is_job_elapsed(self, case):
        mix, caps, effs, options = case
        res = simulate_mix(mix, caps, effs, MODEL, options)
        np.testing.assert_allclose(
            res.host_energy_j / res.host_mean_power_w,
            res.job_elapsed_s[res.host_job_index], rtol=1e-12,
        )

    @given(case=accounting_cases())
    @settings(max_examples=50, deadline=None)
    def test_noise_free_path_repeats_one_iteration(self, case):
        mix, caps, effs, options = case
        quiet = dataclasses.replace(options, noise_std=0.0)
        res = simulate_mix(mix, caps, effs, MODEL, quiet)
        assert np.all(res.iteration_times_s == res.iteration_times_s[0])
        assert np.all(res.iteration_energy_j == res.iteration_energy_j[0])
