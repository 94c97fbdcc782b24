"""Property-based tests: a fault-free ``FaultSchedule`` changes nothing.

The fault subsystem's bit-identity contract: attaching an *empty*
schedule (or an active schedule whose engine slice is empty) to
``simulate_mix`` / ``simulate_cap_batch`` must reproduce the fault-free
run exactly — ``MixRunResult.__eq__`` is bitwise array equality, so
these assert with ``==``.  A second group pins algebraic properties of
the schedule queries themselves across random schedules.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.sim.batch import simulate_cap_batch
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from tests.property.generators import random_schedule
from repro.workload.kernel import INTENSITY_GRID, KernelConfig


@st.composite
def kernel_configs(draw):
    intensity = draw(st.sampled_from(INTENSITY_GRID))
    if draw(st.booleans()):
        waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
        imbalance = draw(st.sampled_from([2, 3]))
    else:
        waiting, imbalance = 0.0, 1
    return KernelConfig(
        intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
    )


@st.composite
def sim_cases(draw):
    """A mix (1-3 jobs), caps, efficiencies, and simulation options."""
    n_jobs = draw(st.integers(1, 3))
    jobs = tuple(
        Job(
            name=f"j{i}",
            config=draw(kernel_configs()),
            node_count=draw(st.integers(1, 4)),
            iterations=draw(st.integers(1, 4)),
        )
        for i in range(n_jobs)
    )
    iters = min(j.iterations for j in jobs)
    jobs = tuple(dataclasses.replace(j, iterations=iters) for j in jobs)
    mix = WorkloadMix(name="fault-prop", jobs=jobs)
    hosts = mix.total_nodes
    caps = np.array(
        draw(
            st.lists(
                st.floats(140.0, 240.0, allow_nan=False),
                min_size=hosts, max_size=hosts,
            )
        )
    )
    effs = np.array(
        draw(
            st.lists(
                st.floats(0.85, 1.15, allow_nan=False),
                min_size=hosts, max_size=hosts,
            )
        )
    )
    noise_std = draw(st.sampled_from([0.0, 0.008, 0.02]))
    options = SimulationOptions(
        noise_std=noise_std, seed=draw(st.integers(0, 99))
    )
    return mix, caps, effs, options


@st.composite
def fault_schedules(draw):
    return random_schedule(
        duration_s=draw(st.floats(10.0, 500.0, allow_nan=False)),
        host_count=draw(st.integers(1, 32)),
        base_budget_w=draw(st.floats(500.0, 20000.0, allow_nan=False)),
        events=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestFaultFreeBitIdentity:
    @given(case=sim_cases())
    @settings(max_examples=40, deadline=None)
    def test_empty_schedule_equals_none(self, case):
        mix, caps, effs, options = case
        plain = simulate_mix(mix, caps, effs, options=options)
        attached = simulate_mix(
            mix, caps, effs,
            options=dataclasses.replace(
                options, fault_schedule=FaultSchedule()
            ),
        )
        assert attached == plain

    @given(case=sim_cases())
    @settings(max_examples=20, deadline=None)
    def test_empty_engine_slice_equals_none(self, case):
        """Manager-level faults (budget drops, node failures) carry no
        engine events; their ``engine_slice`` is None and the run must be
        untouched even though the parent schedule is active."""
        mix, caps, effs, options = case
        schedule = (FaultSchedule(name="manager-only")
                    .budget_drop(5.0, 1000.0)
                    .node_failure(8.0, (0,))
                    .node_recovery(18.0, (0,)))
        sliced = schedule.engine_slice(0.0)
        assert sliced is None
        plain = simulate_mix(mix, caps, effs, options=options)
        attached = simulate_mix(
            mix, caps, effs,
            options=dataclasses.replace(options, fault_schedule=sliced),
        )
        assert attached == plain

    @given(case=sim_cases())
    @settings(max_examples=20, deadline=None)
    def test_batch_rows_unchanged_by_empty_schedule(self, case):
        mix, caps, effs, options = case
        scenarios = np.vstack([caps, np.minimum(caps + 10.0, 240.0)])
        plain = simulate_cap_batch(mix, scenarios, effs, options=options)
        attached = simulate_cap_batch(
            mix, scenarios, effs,
            options=dataclasses.replace(
                options, fault_schedule=FaultSchedule()
            ),
        )
        assert list(attached) == list(plain)


class TestSiteSimulationBitIdentity:
    @given(run_seed=st.integers(0, 2**16),
           noise_std=st.sampled_from([0.0, 0.004, 0.01]),
           jobs=st.integers(2, 4))
    @settings(max_examples=8, deadline=None)
    def test_empty_schedule_equals_none(self, run_seed, noise_std, jobs):
        from repro.core.registry import create_policy
        from repro.experiments.resilience import standard_arrivals
        from repro.hardware.cluster import Cluster
        from repro.manager.site_simulation import run_site_simulation

        arrivals = standard_arrivals(jobs, nodes_per_job=2, iterations=4)
        cluster = Cluster(node_count=6, variation=None, seed=11)
        policy = create_policy("MixedAdaptive")
        budget_w = 0.9 * len(cluster) * 240.0
        plain = run_site_simulation(
            arrivals, cluster, policy, budget_w,
            noise_std=noise_std, run_seed=run_seed,
        )
        attached = run_site_simulation(
            arrivals, cluster, policy, budget_w,
            noise_std=noise_std, run_seed=run_seed,
            fault_schedule=FaultSchedule(),
        )
        assert attached == plain


class TestScheduleQueryProperties:
    @given(schedule=fault_schedules(),
           t=st.floats(0.0, 600.0, allow_nan=False),
           base=st.floats(500.0, 20000.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_budget_at_is_positive_and_bounded_by_events(self, schedule, t,
                                                         base):
        budget = schedule.budget_at(t, base)
        floor = min(
            [base] + [e.budget_w for e in schedule.events
                      if e.kind is FaultKind.BUDGET_CHANGE]
        )
        ceiling = max(
            [base] + [e.budget_w for e in schedule.events
                      if e.kind is FaultKind.BUDGET_CHANGE]
        )
        assert floor - 1e-9 <= budget <= ceiling + 1e-9

    @given(schedule=fault_schedules(),
           t=st.floats(0.0, 600.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_failed_hosts_subset_of_failure_events(self, schedule, t):
        failed = schedule.failed_hosts_at(t)
        mentioned = {
            h for e in schedule.of_kind(FaultKind.NODE_FAILURE)
            for h in e.host_ids
        }
        assert failed <= mentioned

    @given(schedule=fault_schedules(),
           dt=st.floats(-100.0, 100.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_shifted_preserves_order_and_nonnegative_times(self, schedule,
                                                           dt):
        moved = schedule.shifted(dt)
        times = [e.time_s for e in moved.events]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    @given(schedule=fault_schedules(),
           start=st.floats(0.0, 600.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_engine_slice_contains_only_engine_kinds(self, schedule, start):
        from repro.faults.schedule import ENGINE_KINDS

        sliced = schedule.engine_slice(start)
        # The filter-first slice equals shifting the whole schedule and
        # then keeping the engine kinds: same events, same order.
        shifted = schedule.shifted(-start)
        kept = tuple(e for e in shifted.events if e.kind in ENGINE_KINDS)
        if not kept:
            assert sliced is None
            return
        assert sliced == FaultSchedule(events=kept, name=schedule.name)
        assert sliced.events == kept
        assert sliced.active
        assert all(e.kind in ENGINE_KINDS for e in sliced.events)

    @given(schedule=fault_schedules(),
           t=st.floats(0.0, 600.0, allow_nan=False),
           base=st.floats(0.0, 0.05, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_noise_sigma_never_below_base(self, schedule, t, base):
        assert schedule.noise_sigma_at(t, base) >= base


# ----------------------------------------------------------------------
# bisect fast paths vs the reference linear scans
# ----------------------------------------------------------------------
def _scan_budget_at(schedule, time_s, base_budget_w):
    """The original O(E) linear scan ``budget_at`` (reference)."""
    budget = float(base_budget_w)
    for event in schedule.of_kind(FaultKind.BUDGET_CHANGE):
        if time_s < event.time_s:
            break
        if event.duration_s > 0 and time_s < event.end_s:
            frac = (time_s - event.time_s) / event.duration_s
            budget = budget + frac * (event.budget_w - budget)
        else:
            budget = float(event.budget_w)
    return budget


def _scan_failed_hosts_at(schedule, time_s):
    """The original O(E) linear scan ``failed_hosts_at`` (reference)."""
    failed = set()
    for event in schedule.events:
        if event.time_s > time_s:
            break
        if event.kind is FaultKind.NODE_FAILURE:
            failed.update(event.host_ids)
        elif event.kind is FaultKind.NODE_RECOVERY:
            failed.difference_update(event.host_ids)
    return frozenset(failed)


def _scan_sensor_dropout_at(schedule, time_s):
    """The original O(E) linear filter ``sensor_dropout_at`` (reference)."""
    return tuple(
        e for e in schedule.of_kind(FaultKind.SENSOR_DROPOUT)
        if e.time_s <= time_s < e.end_s
    )


def _query_times(schedule, draw_times):
    """Fuzzed query instants plus every exact boundary of the schedule
    (the off-by-one hot spots of any bisect)."""
    times = list(draw_times)
    for event in schedule.events:
        times.append(event.time_s)
        if np.isfinite(event.end_s):
            times.append(event.end_s)
            times.append(np.nextafter(event.end_s, -np.inf))
        times.append(np.nextafter(event.time_s, np.inf))
    return times


class TestScheduleFastPathBitIdentity:
    """The bisect/prefix fast paths must be bit-identical to the scans."""

    @given(schedule=fault_schedules(),
           draw_times=st.lists(st.floats(0.0, 700.0, allow_nan=False),
                               min_size=1, max_size=8),
           base=st.floats(500.0, 20000.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_budget_at_matches_scan(self, schedule, draw_times, base):
        for t in _query_times(schedule, draw_times):
            assert schedule.budget_at(t, base) == \
                _scan_budget_at(schedule, t, base)

    @given(schedule=fault_schedules(),
           draw_times=st.lists(st.floats(0.0, 700.0, allow_nan=False),
                               min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_failed_hosts_at_matches_scan(self, schedule, draw_times):
        for t in _query_times(schedule, draw_times):
            assert schedule.failed_hosts_at(t) == \
                _scan_failed_hosts_at(schedule, t)

    @given(schedule=fault_schedules(),
           draw_times=st.lists(st.floats(0.0, 700.0, allow_nan=False),
                               min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sensor_dropout_at_matches_scan(self, schedule, draw_times):
        for t in _query_times(schedule, draw_times):
            assert schedule.sensor_dropout_at(t) == \
                _scan_sensor_dropout_at(schedule, t)

    @given(base=st.floats(500.0, 20000.0, allow_nan=False),
           t=st.floats(0.0, 200.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_budget_at_overlapping_ramps_match_scan(self, base, t):
        # Hand-built worst case: chained, overlapping ramps with a step
        # in the middle — the in-flight-ramp replay after the last
        # completed change must interpolate exactly like the scan.
        schedule = (FaultSchedule()
                    .budget_drop(10.0, 4000.0, ramp_s=60.0)
                    .budget_drop(30.0, 9000.0, ramp_s=100.0)
                    .budget_drop(50.0, 6000.0)
                    .budget_drop(55.0, 7000.0, ramp_s=80.0)
                    .budget_drop(60.0, 5000.0, ramp_s=90.0))
        assert schedule.budget_at(t, base) == \
            _scan_budget_at(schedule, t, base)

    @given(schedule=fault_schedules(), dt=st.floats(-50.0, 50.0,
                                                    allow_nan=False),
           t=st.floats(0.0, 700.0, allow_nan=False),
           base=st.floats(500.0, 20000.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_derived_schedules_rebuild_their_indices(self, schedule, dt, t,
                                                     base):
        # Warm the parent's lazy indices, then derive: the child must
        # answer from its own (rebuilt) indices, not stale parent state.
        schedule.budget_at(t, base)
        schedule.failed_hosts_at(t)
        moved = schedule.shifted(dt)
        assert moved.budget_at(t, base) == _scan_budget_at(moved, t, base)
        assert moved.failed_hosts_at(t) == _scan_failed_hosts_at(moved, t)
