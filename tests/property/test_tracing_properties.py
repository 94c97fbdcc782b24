"""Property-based tests: tracing is physics-blind and trees stay well-formed.

Two contracts pin the tracing layer:

* **Bit-identity.**  Span recording never touches a simulation RNG
  stream, so every traced entry point — ``simulate_mix``,
  ``simulate_cap_batch``, ``run_controller_batch``,
  ``run_site_simulation`` — produces *exactly* the same result with
  tracing on and off, for any workload Hypothesis draws.
* **Well-formedness.**  Whatever the instrumented stack records, the
  finished span set validates: one root per trace, no orphans, no
  cross-trace parents, child intervals nested in their parents — and the
  same holds after a cross-process merge through the parallel runner.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.parallel.runner import ParallelRunner
from repro.parallel.seeding import child_seed
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.sim.batch import simulate_cap_batch
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.telemetry import get_tracer, set_tracing, validate_span_tree
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


@pytest.fixture(autouse=True)
def _clean_tracer():
    get_tracer().clear()
    yield
    set_tracing(True)
    get_tracer().clear()
    telemetry.reset()


def _mix(hosts, intensity, waiting, imbalance, iterations):
    job = Job(
        name="prop",
        config=KernelConfig(intensity=intensity, waiting_fraction=waiting,
                            imbalance=imbalance),
        node_count=hosts,
        iterations=iterations,
    )
    return WorkloadMix(name="prop-mix", jobs=(job,))


@st.composite
def mix_cases(draw):
    hosts = draw(st.integers(2, 8))
    intensity = draw(st.sampled_from([0.25, 2.0, 8.0, 32.0]))
    if draw(st.booleans()):
        waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
        imbalance = draw(st.integers(2, min(3, hosts)))
    else:
        waiting, imbalance = 0.0, 1
    iterations = draw(st.integers(1, 20))
    noise = draw(st.sampled_from([0.0, 0.01]))
    seed = draw(st.integers(0, 2**31))
    return hosts, intensity, waiting, imbalance, iterations, noise, seed


def _traced_and_untraced(fn):
    """Run ``fn`` with tracing on, then off; return both results."""
    get_tracer().clear()
    set_tracing(True)
    traced = fn()
    set_tracing(False)
    try:
        untraced = fn()
    finally:
        set_tracing(True)
    return traced, untraced


class TestBitIdentity:
    @given(case=mix_cases())
    @settings(max_examples=25, deadline=None)
    def test_simulate_mix(self, case):
        hosts, intensity, waiting, imbalance, iterations, noise, seed = case
        mix = _mix(hosts, intensity, waiting, imbalance, iterations)
        caps = np.full(hosts, 200.0)
        eff = np.random.default_rng(seed % 997).uniform(0.9, 1.1, hosts)
        options = SimulationOptions(noise_std=noise, seed=seed)

        traced, untraced = _traced_and_untraced(
            lambda: simulate_mix(mix, caps, eff, None, options)
        )
        assert traced == untraced

    @given(case=mix_cases(), rungs=st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_simulate_cap_batch(self, case, rungs):
        hosts, intensity, waiting, imbalance, iterations, noise, seed = case
        mix = _mix(hosts, intensity, waiting, imbalance, iterations)
        eff = np.random.default_rng(seed % 997).uniform(0.9, 1.1, hosts)
        rung_caps = np.linspace(150.0, 240.0, rungs)
        caps_sw = np.broadcast_to(rung_caps[:, np.newaxis], (rungs, hosts))
        seeds = [child_seed(seed, i, f"{float(c)!r}")
                 for i, c in enumerate(rung_caps)]
        options = SimulationOptions(noise_std=noise, seed=seed)

        traced, untraced = _traced_and_untraced(
            lambda: simulate_cap_batch(mix, caps_sw, eff, options=options,
                                       seeds=seeds)
        )
        assert traced == untraced

    @given(seed=st.integers(0, 2**16), hosts=st.integers(2, 5),
           max_epochs=st.integers(2, 20))
    @settings(max_examples=10, deadline=None)
    def test_run_controller_batch(self, seed, hosts, max_epochs):
        rng = np.random.default_rng(seed)
        specs = [
            ControllerRunSpec(
                job=Job(name=f"run-{i}",
                        config=KernelConfig(intensity=float(2 ** (1 + i))),
                        node_count=hosts),
                efficiencies=1.0 + 0.05 * rng.standard_normal(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 200.0),
                noise_std=0.01,
                seed=seed + i,
            )
            for i in range(2)
        ]

        def run():
            return run_controller_batch(specs, max_epochs=max_epochs)

        traced, untraced = _traced_and_untraced(run)
        np.testing.assert_array_equal(traced.epochs, untraced.epochs)
        np.testing.assert_array_equal(traced.converged, untraced.converged)
        for a, b in zip(traced.reports, untraced.reports):
            # Report telemetry sections carry wall-clock timings that
            # legitimately differ between any two runs; the physics must
            # not.
            assert dataclasses.replace(a, telemetry={}) == \
                dataclasses.replace(b, telemetry={})

    @given(seed=st.integers(0, 2**16), jobs=st.integers(1, 3))
    @settings(max_examples=5, deadline=None)
    def test_run_site_simulation(self, seed, jobs, small_cluster):
        from repro.core.registry import create_policy
        from repro.manager.queue import JobRequest
        from repro.manager.site_simulation import Arrival, run_site_simulation

        nodes = 4
        cluster = small_cluster.subset(np.arange(3 * nodes))
        arrivals = [
            Arrival(
                time_s=float(i),
                request=JobRequest(
                    f"prop-job-{i}",
                    KernelConfig(intensity=float(2 ** (1 + i % 3))),
                    node_count=nodes, iterations=5,
                ),
            )
            for i in range(jobs)
        ]
        budget_w = 3 * nodes * 200.0

        def run():
            return run_site_simulation(
                arrivals, cluster, create_policy("MixedAdaptive"), budget_w,
                run_seed=seed,
            )

        traced, untraced = _traced_and_untraced(run)
        assert traced == untraced


class TestWellFormedness:
    @given(case=mix_cases())
    @settings(max_examples=15, deadline=None)
    def test_simulate_mix_spans_validate(self, case):
        hosts, intensity, waiting, imbalance, iterations, noise, seed = case
        mix = _mix(hosts, intensity, waiting, imbalance, iterations)
        get_tracer().clear()
        simulate_mix(mix, np.full(hosts, 200.0), np.ones(hosts), None,
                     SimulationOptions(noise_std=noise, seed=seed))
        spans = get_tracer().finished()
        assert spans
        assert validate_span_tree(spans) == []

    def test_grid_cell_spans_validate(self, small_grid):
        get_tracer().clear()
        small_grid.run_cell(small_grid.config.mixes[0], "ideal",
                            "MixedAdaptive")
        spans = get_tracer().finished()
        names = {s.name for s in spans}
        assert "experiments.grid.cell" in names
        assert "sim.simulate_cap_batch" in names
        assert validate_span_tree(spans) == []

    def test_cross_process_merge_validates(self):
        get_tracer().clear()
        runner = ParallelRunner(workers=2)
        with telemetry.span("prop.fanout"):
            results = runner.map(_traced_square, list(range(6)))
        assert results == [x * x for x in range(6)]
        spans = get_tracer().finished()
        assert validate_span_tree(spans) == []
        if runner.parallel and runner.pool_failures == 0:
            # Worker spans shipped home and grafted under parallel.map.
            names = [s.name for s in spans]
            assert names.count("parallel.task") == 6
            assert "prop.worker" in names
            by_id = {s.span_id: s for s in spans}
            map_sp, = [s for s in spans if s.name == "parallel.map"]
            for task in (s for s in spans if s.name == "parallel.task"):
                assert by_id[task.parent_id] is map_sp
                assert task.trace_id == map_sp.trace_id


def _traced_square(x):
    with telemetry.span("prop.worker", x=x):
        return x * x
