"""Unit tests for the fault subsystem: schedules, injection, degradation."""

import numpy as np
import pytest

from repro.core.policy import apply_job_runtime
from repro.core.registry import create_policy
from repro.faults import (
    DegradationConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RuntimeFaultInjector,
    SCENARIO_NAMES,
    STANDARD_SCENARIOS,
    build_scenario,
    plan_with_degradation,
    quarantine_caps,
    random_schedule,
)
from repro.runtime.controller import Controller
from repro.runtime.power_governor import PowerGovernorAgent
from repro.runtime.trace import attach_tracer
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


class TestFaultEvent:
    def test_budget_change_needs_budget(self):
        with pytest.raises(ValueError, match="budget_w"):
            FaultEvent(time_s=0.0, kind=FaultKind.BUDGET_CHANGE)

    def test_node_failure_needs_hosts(self):
        with pytest.raises(ValueError, match="host_ids"):
            FaultEvent(time_s=0.0, kind=FaultKind.NODE_FAILURE)

    def test_cap_stuck_needs_value(self):
        with pytest.raises(ValueError, match="stuck_at_w"):
            FaultEvent(time_s=0.0, kind=FaultKind.CAP_STUCK, host_ids=(0,))

    def test_noise_burst_needs_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            FaultEvent(time_s=0.0, kind=FaultKind.NOISE_BURST, duration_s=1.0)

    def test_hosts_sorted_and_window(self):
        event = FaultEvent(time_s=2.0, kind=FaultKind.NODE_FAILURE,
                           duration_s=3.0, host_ids=(4, 1, 2))
        assert event.host_ids == (1, 2, 4)
        assert event.end_s == 5.0
        assert event.window_overlaps(4.0, 10.0)
        assert not event.window_overlaps(5.0, 10.0)

    def test_instantaneous_window(self):
        event = FaultEvent(time_s=2.0, kind=FaultKind.NODE_RECOVERY,
                           host_ids=(0,))
        assert event.window_overlaps(2.0, 3.0)
        assert not event.window_overlaps(0.0, 2.0)


class TestFaultSchedule:
    def test_empty_schedule_inactive(self):
        schedule = FaultSchedule()
        assert not schedule.active
        assert schedule.budget_at(10.0, 5000.0) == 5000.0
        assert schedule.failed_hosts_at(10.0) == frozenset()
        assert schedule.cap_overrides_at(10.0, 240.0) == {}
        assert schedule.engine_slice(0.0) is None

    def test_events_time_sorted(self):
        schedule = (FaultSchedule()
                    .budget_drop(50.0, 4000.0)
                    .node_failure(10.0, (0,)))
        assert [e.time_s for e in schedule.events] == [10.0, 50.0]

    def test_budget_step_and_restore(self):
        schedule = (FaultSchedule()
                    .budget_drop(10.0, 3000.0)
                    .budget_restore(20.0, 5000.0))
        assert schedule.budget_at(5.0, 5000.0) == 5000.0
        assert schedule.budget_at(10.0, 5000.0) == 3000.0
        assert schedule.budget_at(25.0, 5000.0) == 5000.0

    def test_budget_ramp_interpolates(self):
        schedule = FaultSchedule().budget_drop(10.0, 3000.0, ramp_s=10.0)
        assert schedule.budget_at(15.0, 5000.0) == pytest.approx(4000.0)
        assert schedule.budget_at(20.0, 5000.0) == 3000.0

    def test_failed_hosts_recover(self):
        schedule = (FaultSchedule()
                    .node_failure(10.0, (1, 2))
                    .node_recovery(20.0, (1,)))
        assert schedule.failed_hosts_at(15.0) == frozenset({1, 2})
        assert schedule.failed_hosts_at(25.0) == frozenset({2})

    def test_noise_sigma_max_of_base_and_burst(self):
        schedule = FaultSchedule().noise_burst(10.0, 5.0, sigma=0.05)
        assert schedule.noise_sigma_at(12.0, 0.004) == 0.05
        assert schedule.noise_sigma_at(12.0, 0.08) == 0.08
        assert schedule.noise_sigma_at(20.0, 0.004) == 0.004

    def test_cap_overrides_stuck_and_error(self):
        schedule = (FaultSchedule()
                    .cap_stuck(5.0, (0,), stuck_at_w=150.0, duration_s=10.0)
                    .cap_error(5.0, (1,), duration_s=10.0))
        overrides = schedule.cap_overrides_at(7.0, tdp_w=240.0)
        assert overrides == {0: 150.0, 1: 240.0}
        assert schedule.cap_overrides_at(20.0, tdp_w=240.0) == {}

    def test_shifted_clamps_past_windows(self):
        schedule = FaultSchedule().sensor_dropout(10.0, 20.0)
        moved = schedule.shifted(-15.0)
        assert moved.events[0].time_s == 0.0
        assert moved.events[0].duration_s == pytest.approx(15.0)
        assert schedule.shifted(-40.0).events == ()

    def test_engine_slice_keeps_only_engine_kinds(self):
        schedule = (FaultSchedule(name="combo")
                    .budget_drop(5.0, 4000.0)
                    .cap_stuck(8.0, (0,), stuck_at_w=140.0, duration_s=4.0))
        sliced = schedule.engine_slice(6.0)
        assert sliced is not None
        assert [e.kind for e in sliced.events] == [FaultKind.CAP_STUCK]
        assert sliced.events[0].time_s == pytest.approx(2.0)
        assert FaultSchedule().budget_drop(5.0, 1.0).engine_slice(0.0) is None

    def test_random_schedule_deterministic(self):
        a = random_schedule(100.0, 16, 3000.0, events=5, seed=9)
        b = random_schedule(100.0, 16, 3000.0, events=5, seed=9)
        assert a.events == b.events
        assert a.events != random_schedule(100.0, 16, 3000.0, events=5,
                                           seed=10).events


class TestScenarios:
    def test_suite_covers_required_classes(self):
        assert len(SCENARIO_NAMES) >= 4
        assert {"budget-step", "node-loss", "sensor-blackout",
                "stuck-caps"} <= set(SCENARIO_NAMES)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builds_nonempty_active_schedule(self, name):
        schedule = build_scenario(name, 5000.0, 16, 100.0)
        assert schedule.active
        assert schedule.name == name

    def test_brownout_infeasible_budget_step_feasible(self):
        hosts, budget = 10, 0.9 * 10 * 240.0
        assert not STANDARD_SCENARIOS["brownout"].feasible(budget, hosts, 50.0)
        assert STANDARD_SCENARIOS["budget-step"].feasible(budget, hosts, 50.0)

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="budget-step"):
            build_scenario("nope", 5000.0, 16, 100.0)


class TestRuntimeFaultInjector:
    def test_inactive_is_noop(self):
        injector = RuntimeFaultInjector(FaultSchedule())
        limits = np.array([200.0, 210.0])
        assert injector.filter_limits(limits, 0.0) is limits
        assert injector.noise_sigma(0.004, 0.0) == 0.004
        assert not injector.active

    def test_filter_limits_applies_overrides(self):
        schedule = (FaultSchedule()
                    .cap_stuck(0.0, (0,), stuck_at_w=150.0)
                    .cap_error(0.0, (1,)))
        injector = RuntimeFaultInjector(schedule, tdp_w=240.0)
        out = injector.filter_limits(np.array([200.0, 200.0, 200.0]), 1.0)
        np.testing.assert_array_equal(out, [150.0, 240.0, 200.0])
        assert any(kind == "cap_override" for _, kind, _ in injector.applied)

    def test_dropout_freezes_reading_at_onset(self):
        schedule = FaultSchedule().sensor_dropout(1.0, 10.0, host_ids=(0,))
        injector = RuntimeFaultInjector(schedule)
        first = _sample(epoch=0, power=(100.0, 100.0))
        second = _sample(epoch=1, power=(130.0, 130.0))
        third = _sample(epoch=2, power=(160.0, 160.0))
        injector.corrupt_sample(first, 0.0)          # before the dropout
        seen1 = injector.corrupt_sample(second, 1.5)
        seen2 = injector.corrupt_sample(third, 2.5)
        # Host 0 holds the pre-dropout reading across epochs; host 1 tracks.
        assert seen1.host_power_w[0] == 100.0
        assert seen2.host_power_w[0] == 100.0
        assert seen2.host_power_w[1] == 160.0

    def test_dropout_without_history_reads_zero(self):
        schedule = FaultSchedule().sensor_dropout(0.0, 10.0)
        injector = RuntimeFaultInjector(schedule)
        seen = injector.corrupt_sample(_sample(0, (120.0, 140.0)), 0.0)
        np.testing.assert_array_equal(seen.host_power_w, 0.0)

    def test_burst_jitters_agent_view_only(self):
        schedule = FaultSchedule().noise_burst(0.0, 10.0, sigma=0.2)
        injector = RuntimeFaultInjector(schedule, seed=3)
        sample = _sample(0, (150.0, 150.0))
        seen = injector.corrupt_sample(sample, 1.0)
        assert not np.array_equal(seen.host_power_w, sample.host_power_w)
        # The physics sample itself is untouched.
        np.testing.assert_array_equal(sample.host_power_w, [150.0, 150.0])


def _sample(epoch, power):
    from repro.runtime.agent import PlatformSample

    power = np.asarray(power, dtype=float)
    return PlatformSample(
        epoch=epoch,
        host_time_s=np.ones_like(power),
        epoch_time_s=1.0,
        host_power_w=power,
        power_limit_w=np.full_like(power, 240.0),
        host_energy_j=power * 1.0,
        mean_freq_ghz=np.full_like(power, 2.0),
    )


class TestControllerInjection:
    def _controller(self, injector=None, noise_std=0.0):
        job = Job(name="fault-probe",
                  config=KernelConfig(intensity=8.0, waiting_fraction=0.25,
                                      imbalance=2),
                  node_count=3, iterations=6)
        agent = PowerGovernorAgent(job_budget_w=600.0)
        return Controller(job, np.ones(3), agent, noise_std=noise_std,
                          seed=5, fault_injector=injector)

    def test_inactive_injector_bit_identical(self):
        runs = []
        for injector in (None, RuntimeFaultInjector(FaultSchedule())):
            controller = self._controller(injector)
            writer = attach_tracer(controller)
            report = controller.run(max_epochs=6)
            writer.close()
            runs.append((report, writer.trace))
        (plain, plain_trace), (injected, injected_trace) = runs
        assert plain == injected
        for column in ("power_w", "epoch_time_s"):
            np.testing.assert_array_equal(plain_trace.column(column),
                                          injected_trace.column(column))

    def test_stuck_cap_overrides_agent_request(self):
        schedule = FaultSchedule().cap_stuck(0.0, (0,), stuck_at_w=150.0)
        controller = self._controller(RuntimeFaultInjector(schedule))
        controller.run(max_epochs=4)
        # The platform honoured the stuck value, not the agent's 200 W.
        assert controller.steady_state_sample().power_limit_w[0] == 150.0
        assert controller.steady_state_sample().power_limit_w[1] == 200.0


class TestDegradationLadder:
    def test_floor_tier_reports_infeasible(self):
        decision = plan_with_degradation(
            create_policy("StaticCaps"), 100.0, host_count=4,
            min_cap_w=136.0,
        )
        assert decision.tier == "floor"
        assert not decision.feasible
        np.testing.assert_array_equal(decision.caps_w, 136.0)

    def test_clamp_tier_without_characterization(self):
        decision = plan_with_degradation(
            create_policy("StaticCaps"), 700.0,
            current_caps_w=np.array([240.0, 240.0, 240.0, 240.0]),
            min_cap_w=136.0,
        )
        assert decision.tier == "clamp"
        assert decision.feasible
        assert float(np.sum(decision.caps_w)) <= 700.0 + 1e-6

    def test_clamp_tier_seeds_tdp_when_no_caps(self):
        decision = plan_with_degradation(
            create_policy("StaticCaps"), 800.0, host_count=4,
            min_cap_w=136.0, tdp_w=240.0,
        )
        assert decision.tier == "clamp"
        assert float(np.sum(decision.caps_w)) <= 800.0 + 1e-6

    def test_replan_tier_with_characterization(self, scheduled_wasteful):
        char = scheduled_wasteful.characterization
        decision = plan_with_degradation(
            create_policy("MixedAdaptive"),
            scheduled_wasteful.budgets.ideal_w,
            characterization=char,
            config=DegradationConfig(max_retries=1),
        )
        assert decision.tier == "replan"
        assert decision.attempts == 1
        assert decision.backoff_s == 0.0
        assert float(np.sum(decision.caps_w)) <= \
            scheduled_wasteful.budgets.ideal_w + 1e-6

    def test_replan_tier_programs_balancer_caps(self, scheduled_wasteful):
        """An application-aware policy's replan tier returns the caps to
        program: its allocation reshaped per job by the in-job balancer."""
        char = scheduled_wasteful.characterization
        policy = create_policy("MixedAdaptive")
        budget = scheduled_wasteful.budgets.min_w
        decision = plan_with_degradation(policy, budget,
                                         characterization=char)
        allocation, caps = policy.program(char, budget)
        assert decision.tier == "replan"
        np.testing.assert_array_equal(decision.caps_w, caps)
        np.testing.assert_array_equal(
            caps, apply_job_runtime(char, allocation.caps_w))
        assert not np.array_equal(caps, allocation.caps_w)

    def test_quarantine_parks_failed_and_conserves_power(self):
        caps = np.array([200.0, 200.0, 200.0, 200.0])
        out = quarantine_caps(caps, failed_hosts=(1,), min_cap_w=136.0,
                              tdp_w=240.0)
        assert out[1] == 136.0
        assert float(np.sum(out)) == pytest.approx(float(np.sum(caps)))
        assert np.all(out <= 240.0 + 1e-9)

    def test_quarantine_noop_without_failures(self):
        caps = np.array([200.0, 180.0])
        np.testing.assert_array_equal(
            quarantine_caps(caps, (), 136.0, 240.0), caps
        )
