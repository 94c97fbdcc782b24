"""Unit tests: the batched scenario engine and its consumers."""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.sim.batch import (
    LayoutBatch,
    simulate_cap_batch,
    simulate_layout_rows,
    stack_layouts,
)
from repro.sim.engine import ExecutionModel
from repro.sim.execution import (
    DEFAULT_OPTIONS,
    SimulationOptions,
    _iteration_energy,
    simulate_mix,
)
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


@pytest.fixture(autouse=True)
def _fresh_global_state():
    telemetry.reset()
    yield
    telemetry.reset()


def make_mix(iterations: int = 6) -> WorkloadMix:
    jobs = (
        Job(name="a", config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                          imbalance=2),
            node_count=4, iterations=iterations),
        Job(name="b", config=KernelConfig(intensity=0.25),
            node_count=3, iterations=iterations),
    )
    return WorkloadMix(name="unit", jobs=jobs)


def rand_inputs(mix, scenarios=4, seed=11):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(130.0, 250.0, (scenarios, mix.total_nodes))
    eff = rng.uniform(0.9, 1.1, mix.total_nodes)
    return caps, eff


class TestSimulateCapBatch:
    def test_rejects_wrong_cap_shape(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="caps_sw must have shape"):
            simulate_cap_batch(mix, caps[0], eff)
        with pytest.raises(ValueError, match="caps_sw must have shape"):
            simulate_cap_batch(mix, caps[:, :-1], eff)

    def test_rejects_wrong_efficiency_shape(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="efficiencies must have shape"):
            simulate_cap_batch(mix, caps, eff[:-1])

    def test_rejects_mismatched_seed_length(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="seeds must have length"):
            simulate_cap_batch(mix, caps, eff, seeds=[1, 2])

    def test_rejects_mismatched_metadata_length(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="policy_names"):
            simulate_cap_batch(mix, caps, eff, policy_names=["only-one"])
        with pytest.raises(ValueError, match="budgets_w"):
            simulate_cap_batch(mix, caps, eff, budgets_w=[1.0, 2.0])

    def test_matches_serial_noisy_and_quiet(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=5)
        seeds = [3, 1, 4, 1, 5]
        for noise in (0.0, 0.01):
            options = SimulationOptions(noise_std=noise, seed=0)
            batch = simulate_cap_batch(mix, caps, eff, options=options, seeds=seeds)
            for s in range(5):
                serial = simulate_mix(
                    mix, caps[s], eff,
                    options=dataclasses.replace(options, seed=seeds[s]),
                )
                assert batch[s] == serial

    def test_single_scenario_single_job(self):
        job = Job(name="solo", config=KernelConfig(intensity=2.0),
                  node_count=1, iterations=3)
        mix = WorkloadMix(name="solo", jobs=(job,))
        caps = np.array([[181.5]])
        eff = np.array([1.02])
        batch = simulate_cap_batch(mix, caps, eff)
        assert len(batch) == 1
        assert batch[0] == simulate_mix(mix, caps[0], eff, options=DEFAULT_OPTIONS)

    def test_batch_telemetry(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=3)
        simulate_cap_batch(mix, caps, eff)
        registry = telemetry.get_registry()
        assert registry.counter("sim.execution.runs").value == 3
        totals = telemetry.get_tracer().totals()
        assert totals["sim.simulate_cap_batch"]["count"] == 1


class TestSimulateLayoutRows:
    def test_rows_match_serial_and_one_row_passes(self):
        # Independent runs on independent host rows: every row of a pass
        # equals its serial simulate_mix call and its own one-row pass,
        # with and without an engine fault schedule, whether the rows
        # share one layout object (run unstacked, with (S, hosts) caps
        # and efficiencies) or carry mixed layouts (stacked).
        from repro.faults.scenarios import build_scenario

        shared = make_mix()
        other = WorkloadMix(name="other", jobs=(
            Job(name="c", config=KernelConfig(intensity=32.0),
                node_count=4, iterations=6),
            Job(name="d", config=KernelConfig(intensity=2.0),
                node_count=3, iterations=6),
        ))
        rng = np.random.default_rng(5)
        caps = rng.uniform(130.0, 250.0, (3, 7))
        eff = rng.uniform(0.9, 1.1, (3, 7))
        seeds = [3, 4, 5]
        faults = build_scenario("stuck-caps", 2000.0, 7, 1.0).engine_slice(0.0)
        for mixes in ([shared] * 3, [shared, other, shared]):
            layouts = [mix.layout() for mix in mixes]
            for schedule in (None, faults):
                options = SimulationOptions(noise_std=0.01,
                                            fault_schedule=schedule)
                out = simulate_layout_rows(
                    layouts, 6, caps, eff, ExecutionModel(), options, seeds,
                )
                for s in range(3):
                    row = out.result(s, mixes[s], "unmanaged", 0.0)
                    assert row == simulate_mix(
                        mixes[s], caps[s], eff[s],
                        options=dataclasses.replace(options, seed=seeds[s]),
                    )
                    alone = simulate_layout_rows(
                        layouts[s:s + 1], 6, caps[s:s + 1], eff[s:s + 1],
                        ExecutionModel(), options, seeds[s:s + 1],
                    )
                    assert row == alone.result(0, mixes[s], "unmanaged", 0.0)


def _per_row_energy(host_times, net_compute, job_iter_times, job_poll):
    """The per-scenario gemv loop the stacked contraction replaced."""
    out = np.empty(host_times.shape[:2])
    for s in range(host_times.shape[0]):
        out[s] = host_times[s] @ net_compute[s] + job_iter_times[s] @ job_poll[s]
    return out


class TestIterationEnergy:
    @pytest.mark.parametrize("scenarios", [1, 2, 15, 40])
    @pytest.mark.parametrize("hosts,starts", [
        (1, [0]), (4, [0, 1]), (4, [0, 3]), (614, [0, 1, 7, 300, 613]),
    ])
    @pytest.mark.parametrize("n_iter", [1, 120])
    def test_stacked_contraction_matches_per_row_gemvs(self, scenarios, hosts,
                                                       starts, n_iter):
        rng = np.random.default_rng(scenarios * 1000 + hosts + n_iter)
        t_compute = rng.uniform(0.01, 0.2, (scenarios, hosts))
        p_compute = rng.uniform(150.0, 250.0, (scenarios, hosts))
        p_poll = rng.uniform(100.0, 150.0, (scenarios, hosts))
        noisy = t_compute[:, np.newaxis, :] * np.exp(
            0.01 * rng.standard_normal((scenarios, n_iter, hosts))
        )
        # The noise-free engine passes a stride-0 broadcast view.
        quiet = np.broadcast_to(t_compute[:, np.newaxis, :],
                                (scenarios, n_iter, hosts))
        net_compute = p_compute - p_poll
        job_poll = np.add.reduceat(p_poll, starts, axis=-1)
        for host_times in (noisy, quiet):
            job_iter_times = np.maximum.reduceat(host_times, starts, axis=2)
            job_iter_times += 5.0e-4
            args = (host_times, net_compute, job_iter_times, job_poll)
            got = _iteration_energy(*args)
            assert got.shape == (scenarios, n_iter)
            assert got.tobytes() == _per_row_energy(*args).tobytes()


class TestStackLayouts:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one layout"):
            stack_layouts([])

    def test_rejects_mismatched_job_structure(self):
        a = make_mix().layout()
        solo = WorkloadMix(
            name="solo",
            jobs=(Job(name="s", config=KernelConfig(intensity=1.0),
                      node_count=7, iterations=6),),
        ).layout()
        with pytest.raises(ValueError, match="job block structure"):
            stack_layouts([a, solo])

    def test_unions_ceiling_vocabularies(self):
        from repro.workload.kernel import Precision, VectorWidth

        mixes = [
            WorkloadMix(
                name=f"m{i}",
                jobs=(Job(name="j", config=cfg, node_count=3, iterations=1),),
            )
            for i, cfg in enumerate(
                [
                    KernelConfig(intensity=4.0, vector=VectorWidth.YMM),
                    KernelConfig(intensity=4.0, vector=VectorWidth.XMM),
                    KernelConfig(intensity=4.0, precision=Precision.SINGLE),
                ]
            )
        ]
        layouts = [m.layout() for m in mixes]
        batch = stack_layouts(layouts)
        assert isinstance(batch, LayoutBatch)
        assert batch.scenario_count == 3
        assert batch.host_count == 3
        assert len(set(batch.ceiling_names)) == len(batch.ceiling_names)
        for s, layout in enumerate(layouts):
            resolved = [batch.ceiling_names[i]
                        for i in batch.compute_ceiling_index[s]]
            expected = [layout.ceiling_names[i]
                        for i in layout.compute_ceiling_index]
            assert resolved == expected
            assert np.array_equal(batch.kappa[s], layout.kappa)


class TestHotPathMemoization:
    def test_layout_is_memoized_and_read_only(self):
        mix = make_mix()
        layout = mix.layout()
        assert mix.layout() is layout
        for array in (layout.kappa, layout.gflop, layout.traffic_gb,
                      layout.job_index, layout.job_boundaries):
            assert not array.flags.writeable

    def test_common_iterations_memoized_and_validating(self):
        mix = make_mix(iterations=9)
        assert mix.common_iterations() == 9
        bad = WorkloadMix(
            name="bad",
            jobs=(
                Job(name="a", config=KernelConfig(intensity=1.0),
                    node_count=2, iterations=3),
                Job(name="b", config=KernelConfig(intensity=1.0),
                    node_count=2, iterations=4),
            ),
        )
        with pytest.raises(ValueError, match="same iteration count"):
            bad.common_iterations()

    def test_kernel_kappa_precomputed(self):
        config = KernelConfig(intensity=8.0)
        assert config.kappa == config._kappa
        from repro.workload.kernel import activity_factor

        assert config.kappa == float(activity_factor(8.0))
