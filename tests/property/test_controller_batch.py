"""Property-based tests: batched controller runtime == serial, bitwise.

The batched runtime's contract mirrors the batched engine's: run ``c`` of
a :class:`~repro.runtime.batch.ControllerBatch` is *bit-identical* — not
merely close — to a serial :class:`~repro.runtime.controller.Controller`
run with the same job, efficiencies, seed, and agent.  These tests pin
that for reports (``JobReport.__eq__`` is exact dataclass equality,
metadata floats included), per-epoch history samples, and final limits,
across noise-free and noisy runs, early-convergence freezing, mixed agent
groups, heterogeneous balancer options (the per-run fallback), the
batched frequency governor (saturated runs, mixed options, already-stepped
agents), and fault-injected configurations.

All comparisons run under disabled telemetry: report ``telemetry``
sections carry wall-clock timings that legitimately differ between the
two runtimes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults.injection import RuntimeFaultInjector
from repro.faults.scenarios import SCENARIO_NAMES, STANDARD_SCENARIOS
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.batch import ControllerBatch
from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import (
    FrequencyGovernorAgent,
    FrequencyGovernorOptions,
)
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_balancer import BalancerOptions, PowerBalancerAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


@pytest.fixture(autouse=True)
def _quiet_telemetry():
    with telemetry.disabled():
        yield


def _job(name, hosts, intensity, waiting, imbalance):
    return Job(
        name=name,
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=hosts,
    )


#: Frequency-governor kinds: a target below what the 136 W floor allows
#: (saturates at the floor), one inside the DVFS band, and one above turbo
#: (saturates at the top limit).
FREQUENCY_TARGETS = {"freq-low": 1.0, "freq-mid": 1.8, "freq-high": 2.6}
BASE_KINDS = ("monitor", "balancer", "governor")


@st.composite
def run_cases(draw, kinds=BASE_KINDS):
    """A batch of 1-6 heterogeneous runs sharing one host count."""
    hosts = draw(st.integers(2, 6))
    n_runs = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    runs = []
    for i in range(n_runs):
        intensity = draw(st.sampled_from([2.0, 8.0, 16.0]))
        if draw(st.booleans()):
            waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
            imbalance = draw(st.integers(2, min(3, hosts)))
        else:
            waiting, imbalance = 0.0, 1
        job = _job(f"run-{i}", hosts, intensity, waiting, imbalance)
        eff = 1.0 + 0.05 * rng.standard_normal(hosts)
        kind = draw(st.sampled_from(kinds))
        noise = draw(st.sampled_from([0.0, 0.01]))
        seed = draw(st.integers(0, 2**31))
        runs.append((job, eff, kind, noise, seed))
    max_epochs = draw(st.integers(1, 40))
    min_epochs = draw(st.integers(1, 5))
    return hosts, runs, max_epochs, min_epochs


def _make_agent(kind, hosts, options=None):
    if kind == "monitor":
        return MonitorAgent()
    if kind == "governor":
        return PowerGovernorAgent(job_budget_w=hosts * 200.0)
    if kind in FREQUENCY_TARGETS:
        return FrequencyGovernorAgent(
            target_freq_ghz=FREQUENCY_TARGETS[kind], options=options
        )
    return PowerBalancerAgent(
        job_budget_w=hosts * 240.0, options=options
    )


def _assert_run_matches(controller, result, c, max_epochs, min_epochs):
    report = controller.run(max_epochs=max_epochs, min_epochs=min_epochs)
    assert report == result.reports[c]
    assert len(controller.history) == result.epochs[c]
    batch_history = result.history_for(c)
    for serial, batched in zip(controller.history, batch_history):
        assert serial.epoch == batched.epoch
        s, b = serial.sample, batched.sample
        assert s.epoch_time_s == b.epoch_time_s
        for name in (
            "host_time_s", "host_power_w", "power_limit_w",
            "host_energy_j", "mean_freq_ghz",
        ):
            np.testing.assert_array_equal(
                getattr(s, name), getattr(b, name), err_msg=name
            )
        np.testing.assert_array_equal(
            serial.limits_applied_w, batched.limits_applied_w
        )
    np.testing.assert_array_equal(
        controller.final_limits_w(), result.final_limits_w(c)
    )
    np.testing.assert_array_equal(
        controller.steady_state_sample().host_power_w,
        result.steady_state_sample(c).host_power_w,
    )


class TestBatchedEqualsSerial:
    @given(case=run_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_mixed_agents(self, case):
        hosts, runs, max_epochs, min_epochs = case
        specs = [
            ControllerRunSpec(
                job=job, efficiencies=eff, agent=_make_agent(kind, hosts),
                noise_std=noise, seed=seed,
            )
            for job, eff, kind, noise, seed in runs
        ]
        result = run_controller_batch(
            specs, max_epochs=max_epochs, min_epochs=min_epochs
        )
        for c, (job, eff, kind, noise, seed) in enumerate(runs):
            controller = Controller(
                job, eff, _make_agent(kind, hosts),
                noise_std=noise, seed=seed,
            )
            _assert_run_matches(controller, result, c, max_epochs, min_epochs)

    @given(
        seed=st.integers(0, 2**31),
        hosts=st.integers(2, 5),
        max_epochs=st.integers(5, 80),
    )
    @settings(max_examples=25, deadline=None)
    def test_early_convergence_freezes_correctly(self, seed, hosts, max_epochs):
        """Runs converging at different epochs each match their serial twin
        — the active-mask bookkeeping cannot leak between cells."""
        shapes = [(16.0, 0.75, 2), (8.0, 0.25, 2), (16.0, 0.5, 2), (2.0, 0.0, 1)]
        specs = [
            ControllerRunSpec(
                job=_job(f"c{i}", hosts, inten, wait, imb),
                efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                seed=seed + i,
            )
            for i, (inten, wait, imb) in enumerate(shapes)
        ]
        result = run_controller_batch(specs, max_epochs=max_epochs)
        for c, (inten, wait, imb) in enumerate(shapes):
            controller = Controller(
                _job(f"c{c}", hosts, inten, wait, imb), np.ones(hosts),
                PowerBalancerAgent(job_budget_w=hosts * 240.0),
                seed=seed + c,
            )
            _assert_run_matches(controller, result, c, max_epochs, 3)

    @given(
        gains=st.lists(
            st.sampled_from([0.3, 0.5, 0.8]), min_size=2, max_size=4
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_heterogeneous_options_fall_back(self, gains, seed):
        """Balancers with differing options cannot batch; the per-run
        fallback must still be bit-identical."""
        hosts = 4
        specs = [
            ControllerRunSpec(
                job=_job(f"h{i}", hosts, 16.0, 0.5, 2),
                efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(
                    job_budget_w=hosts * 240.0,
                    options=BalancerOptions(gain=gain),
                ),
                noise_std=0.005,
                seed=seed + i,
            )
            for i, gain in enumerate(gains)
        ]
        result = run_controller_batch(specs, max_epochs=50)
        for c, gain in enumerate(gains):
            controller = Controller(
                _job(f"h{c}", hosts, 16.0, 0.5, 2), np.ones(hosts),
                PowerBalancerAgent(
                    job_budget_w=hosts * 240.0,
                    options=BalancerOptions(gain=gain),
                ),
                noise_std=0.005, seed=seed + c,
            )
            _assert_run_matches(controller, result, c, 50, 3)


class TestBatchedFrequencyGovernor:
    @given(case=run_cases(kinds=BASE_KINDS + tuple(FREQUENCY_TARGETS)))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_in_mixed_groups(self, case):
        """Frequency governors batch next to balancer, governor and monitor
        groups, noisy or not, saturating or tracking."""
        hosts, runs, max_epochs, min_epochs = case
        specs = [
            ControllerRunSpec(
                job=job, efficiencies=eff, agent=_make_agent(kind, hosts),
                noise_std=noise, seed=seed,
            )
            for job, eff, kind, noise, seed in runs
        ]
        batch = ControllerBatch(specs)
        assert batch._fallback == []
        result = batch.run(max_epochs=max_epochs, min_epochs=min_epochs)
        for c, (job, eff, kind, noise, seed) in enumerate(runs):
            controller = Controller(
                job, eff, _make_agent(kind, hosts),
                noise_std=noise, seed=seed,
            )
            _assert_run_matches(controller, result, c, max_epochs, min_epochs)

    @pytest.mark.parametrize("kind, bound", [
        ("freq-low", 136.0), ("freq-high", 240.0),
    ])
    def test_saturated_runs_stop_with_residual(self, kind, bound):
        """Unreachable targets pin every host at a bound: ``converged()``'s
        saturation branch stops the run, and ``describe()`` keeps the
        residual error — batched exactly as serial."""
        hosts = 4
        jobs = [_job(f"s{i}", hosts, inten, 0.0, 1)
                for i, inten in enumerate([2.0, 16.0])]
        specs = [
            ControllerRunSpec(job=job, efficiencies=np.ones(hosts),
                              agent=_make_agent(kind, hosts),
                              noise_std=0.01, seed=i)
            for i, job in enumerate(jobs)
        ]
        result = run_controller_batch(specs, max_epochs=200)
        for c, job in enumerate(jobs):
            assert result.converged[c]
            np.testing.assert_array_equal(result.final_limits_w(c), bound)
            residual = result.reports[c].metadata["max_error_ghz"]
            assert residual > FrequencyGovernorOptions().tolerance_ghz
            controller = Controller(job, np.ones(hosts),
                                    _make_agent(kind, hosts),
                                    noise_std=0.01, seed=c)
            _assert_run_matches(controller, result, c, 200, 3)

    def test_describe_sentinel_before_first_step(self):
        """``max_error_ghz`` reads -1.0 until the loop has an error."""
        agent = FrequencyGovernorAgent(target_freq_ghz=1.8)
        batch = FrequencyGovernorAgent.make_batch([agent])
        assert batch.describe_run(0) == agent.describe()
        assert agent.describe()["max_error_ghz"] == -1.0

    @given(
        gains=st.lists(st.sampled_from([0.4, 0.8]), min_size=2, max_size=4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_differing_options_fall_back(self, gains, seed):
        hosts = 4

        def agent(gain):
            return FrequencyGovernorAgent(
                target_freq_ghz=1.8,
                options=FrequencyGovernorOptions(gain=gain),
            )

        specs = [
            ControllerRunSpec(
                job=_job(f"o{i}", hosts, 8.0, 0.5, 2),
                efficiencies=np.ones(hosts), agent=agent(gain),
                noise_std=0.005, seed=seed + i,
            )
            for i, gain in enumerate(gains)
        ]
        batch = ControllerBatch(specs)
        if len(set(gains)) > 1:
            assert batch._fallback == list(range(len(gains)))
        result = batch.run(max_epochs=60)
        for c, gain in enumerate(gains):
            controller = Controller(
                _job(f"o{c}", hosts, 8.0, 0.5, 2), np.ones(hosts),
                agent(gain), noise_std=0.005, seed=seed + c,
            )
            _assert_run_matches(controller, result, c, 60, 3)

    @given(seed=st.integers(0, 2**31), warmup=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_already_stepped_agents_fall_back(self, seed, warmup):
        """An agent that has stepped carries state the batch cannot adopt;
        its group runs through the per-run fallback, still bit-identical."""
        hosts = 3
        job = _job("w", hosts, 16.0, 0.0, 1)
        eff = np.array([0.97, 1.0, 1.04])

        def stepped_agent():
            agent = FrequencyGovernorAgent(target_freq_ghz=1.9)
            warm = Controller(job, eff, agent, seed=seed)
            warm.run(max_epochs=warmup, min_epochs=warmup)
            return agent

        specs = [
            ControllerRunSpec(job=job, efficiencies=eff,
                              agent=stepped_agent(), seed=seed),
            ControllerRunSpec(job=job, efficiencies=eff,
                              agent=FrequencyGovernorAgent(1.9), seed=seed),
        ]
        batch = ControllerBatch(specs)
        assert batch._fallback == [0, 1]
        result = batch.run(max_epochs=40)
        for c, agent in enumerate([stepped_agent(),
                                   FrequencyGovernorAgent(1.9)]):
            controller = Controller(job, eff, agent, seed=seed)
            _assert_run_matches(controller, result, c, 40, 3)


class TestFaultInjectedRuns:
    @given(
        scenario=st.sampled_from(SCENARIO_NAMES),
        seed=st.integers(0, 2**31),
        noise=st.sampled_from([0.0, 0.005]),
    )
    @settings(max_examples=25, deadline=None)
    def test_injected_runs_bit_identical(self, scenario, seed, noise):
        hosts = 4
        schedule = STANDARD_SCENARIOS[scenario].build(
            hosts * 240.0, hosts, 60.0
        )
        job = _job("flt", hosts, 16.0, 0.5, 2)

        def injector():
            return RuntimeFaultInjector(schedule, seed=seed)

        specs = [
            # A clean run batches alongside the injected ones.
            ControllerRunSpec(
                job=job, efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed,
            ),
            ControllerRunSpec(
                job=job, efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed, fault_injector=injector(),
            ),
        ]
        result = run_controller_batch(specs, max_epochs=40)
        for c, flt in enumerate([None, injector()]):
            controller = Controller(
                job, np.ones(hosts),
                PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed, fault_injector=flt,
            )
            _assert_run_matches(controller, result, c, 40, 3)


class TestBatchSemantics:
    def test_mismatched_hosts_rejected(self):
        specs = [
            ControllerRunSpec(
                job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
                agent=MonitorAgent(),
            ),
            ControllerRunSpec(
                job=_job("b", 4, 8.0, 0.0, 1), efficiencies=np.ones(4),
                agent=MonitorAgent(),
            ),
        ]
        with pytest.raises(ValueError, match="host count"):
            run_controller_batch(specs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            run_controller_batch([])

    def test_bad_efficiency_shape_rejected(self):
        with pytest.raises(ValueError, match="efficiencies"):
            ControllerRunSpec(
                job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(5),
                agent=MonitorAgent(),
            )

    def test_shared_initial_limits_broadcast(self):
        hosts = 3
        init = np.array([200.0, 180.0, 220.0])
        spec = ControllerRunSpec(
            job=_job("a", hosts, 8.0, 0.0, 1), efficiencies=np.ones(hosts),
            agent=MonitorAgent(),
        )
        result = run_controller_batch(
            [spec], initial_limits_w=init, max_epochs=3, min_epochs=3
        )
        controller = Controller(
            _job("a", hosts, 8.0, 0.0, 1), np.ones(hosts), MonitorAgent()
        )
        report = controller.run(
            initial_limits_w=init, max_epochs=3, min_epochs=3
        )
        assert report == result.reports[0]

    def test_bad_initial_limit_shape_rejected(self):
        spec = ControllerRunSpec(
            job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
            agent=MonitorAgent(),
        )
        with pytest.raises(ValueError, match="initial limits"):
            run_controller_batch([spec], initial_limits_w=np.ones(2))

    def test_bad_epoch_budget_rejected(self):
        spec = ControllerRunSpec(
            job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
            agent=MonitorAgent(),
        )
        with pytest.raises(ValueError, match="max_epochs"):
            run_controller_batch([spec], max_epochs=0)
