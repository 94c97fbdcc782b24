"""Unit tests for the budget-broker tree (`repro.hierarchy`)."""

import pytest

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.hierarchy import (
    BROKER_POLICIES,
    BudgetBroker,
    ChildSignal,
    ClusterSpec,
    FacilityConfig,
    apportion,
    cluster_arrivals,
    facility_budget_series,
    run_facility_simulation,
)
from repro.hierarchy.facility import _leaf_schedule, _plan_facility


def _children(*caps, **common):
    return [
        ChildSignal(name=f"c{i}", capacity_w=cap, **common)
        for i, cap in enumerate(caps)
    ]


class TestApportion:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown broker policy"):
            apportion("nope", 100.0, _children(50.0))

    def test_single_child_gets_budget_exactly(self):
        # Bitwise: the degenerate facility contract depends on it.
        budget = 12345.6789
        (alloc,) = apportion("demand", budget, _children(99999.0))
        assert alloc == budget

    def test_single_child_clamped_to_ceiling(self):
        (alloc,) = apportion("uniform", 500.0, _children(300.0))
        assert alloc == 300.0

    @pytest.mark.parametrize("policy", sorted(BROKER_POLICIES))
    def test_never_allocates_more_than_budget(self, policy):
        children = _children(100.0, 200.0, 300.0, floor_w=10.0,
                             demand_w=150.0)
        for budget in (25.0, 150.0, 450.0, 900.0):
            allocs = apportion(policy, budget, children)
            assert sum(allocs) <= budget + 1e-6
            for alloc, child in zip(allocs, children):
                assert alloc <= child.ceiling_w + 1e-9

    @pytest.mark.parametrize("policy", sorted(BROKER_POLICIES))
    def test_exhausts_budget_when_headroom_allows(self, policy):
        children = _children(400.0, 400.0, floor_w=20.0, demand_w=350.0)
        allocs = apportion(policy, 600.0, children)
        assert sum(allocs) == pytest.approx(600.0)

    @pytest.mark.parametrize("policy", sorted(BROKER_POLICIES))
    def test_saturates_at_total_ceiling(self, policy):
        children = _children(100.0, 150.0, demand_w=500.0)
        allocs = apportion(policy, 1000.0, children)
        assert allocs == pytest.approx((100.0, 150.0))

    def test_floors_scale_when_budget_cannot_cover_them(self):
        children = _children(200.0, 200.0, floor_w=100.0)
        allocs = apportion("uniform", 50.0, children)
        assert allocs == pytest.approx((25.0, 25.0))
        assert sum(allocs) == pytest.approx(50.0)

    def test_uniform_splits_equally_within_headroom(self):
        allocs = apportion("uniform", 300.0, _children(400.0, 400.0))
        assert allocs == pytest.approx((150.0, 150.0))

    def test_uniform_spills_past_small_child(self):
        allocs = apportion("uniform", 300.0, _children(50.0, 400.0))
        assert allocs == pytest.approx((50.0, 250.0))

    def test_demand_weighting_follows_demand(self):
        children = [
            ChildSignal(name="quiet", capacity_w=1000.0, floor_w=10.0,
                        demand_w=50.0),
            ChildSignal(name="busy", capacity_w=1000.0, floor_w=10.0,
                        demand_w=450.0),
        ]
        quiet, busy = apportion("demand", 520.0, children)
        assert busy > 4 * quiet

    def test_demand_respects_weight_multiplier(self):
        children = [
            ChildSignal(name="a", capacity_w=1000.0, demand_w=100.0,
                        weight=1.0),
            ChildSignal(name="b", capacity_w=1000.0, demand_w=100.0,
                        weight=3.0),
        ]
        a, b = apportion("demand", 400.0, children)
        assert b == pytest.approx(3 * a)

    def test_priority_fills_high_priority_first(self):
        children = [
            ChildSignal(name="low", capacity_w=500.0, demand_w=400.0,
                        priority=0),
            ChildSignal(name="high", capacity_w=500.0, demand_w=400.0,
                        priority=5),
        ]
        low, high = apportion("priority", 400.0, children)
        assert high == pytest.approx(400.0)
        assert low == pytest.approx(0.0)

    def test_priority_leftover_flows_down(self):
        children = [
            ChildSignal(name="low", capacity_w=500.0, demand_w=100.0,
                        priority=0),
            ChildSignal(name="high", capacity_w=500.0, demand_w=100.0,
                        priority=5),
        ]
        low, high = apportion("priority", 800.0, children)
        # High fills to demand, then the leftover fills high to its
        # ceiling before low sees discretionary watts.
        assert high == pytest.approx(500.0)
        assert low == pytest.approx(300.0)

    def test_fault_cap_frees_watts_for_siblings(self):
        uncapped = apportion("uniform", 600.0, _children(400.0, 400.0))
        capped_children = [
            ChildSignal(name="c0", capacity_w=400.0, cap_w=100.0),
            ChildSignal(name="c1", capacity_w=400.0),
        ]
        capped = apportion("uniform", 600.0, capped_children)
        assert uncapped == pytest.approx((300.0, 300.0))
        assert capped == pytest.approx((100.0, 400.0))

    def test_broker_object_validates_policy(self):
        with pytest.raises(ValueError, match="unknown broker policy"):
            BudgetBroker("f", "facility", policy="bogus")


class TestClusterSpec:
    def test_rack_split_is_even_and_complete(self):
        spec = ClusterSpec(name="c", node_count=10, racks=4)
        counts = spec.rack_node_counts()
        assert sum(counts) == 10
        assert counts == (3, 3, 2, 2)

    def test_rejects_more_racks_than_nodes(self):
        with pytest.raises(ValueError, match="racks cannot exceed"):
            ClusterSpec(name="c", node_count=2, racks=4)

    def test_arrivals_are_fresh_and_deterministic(self):
        spec = ClusterSpec(name="c", node_count=8, jobs=3)
        a = cluster_arrivals(spec)
        b = cluster_arrivals(spec)
        assert [x.time_s for x in a] == [x.time_s for x in b]
        assert [x.request.name for x in a] == [x.request.name for x in b]
        # Equal (immutable) requests on every call.
        assert [x.request for x in a] == [y.request for y in b]


class TestFacilityConfig:
    def test_rejects_duplicate_cluster_names(self):
        spec = ClusterSpec(name="c", node_count=4)
        with pytest.raises(ValueError, match="unique"):
            FacilityConfig(clusters=(spec, spec))

    def test_rejects_both_budget_sources(self):
        from repro.workload.facility import FacilityTraceConfig

        with pytest.raises(ValueError, match="not both"):
            FacilityConfig(
                clusters=(ClusterSpec(name="c", node_count=4),),
                budget_w=1000.0, trace=FacilityTraceConfig(),
            )

    def test_epoch_grid_covers_horizon(self):
        config = FacilityConfig(
            clusters=(ClusterSpec(name="c", node_count=4),),
            budget_w=500.0, window_s=30.0, horizon_s=100.0,
        )
        assert config.epoch_times_s() == (0.0, 30.0, 60.0, 90.0)

    def test_constant_budget_series(self):
        config = FacilityConfig(
            clusters=(ClusterSpec(name="c", node_count=4),),
            budget_w=500.0, window_s=10.0, horizon_s=30.0,
        )
        assert facility_budget_series(config, 960.0) == (500.0,) * 3

    def test_trace_budget_series_rescales_to_capacity(self):
        from repro.workload.facility import (
            FacilityTraceConfig, generate_facility_trace,
        )

        trace_config = FacilityTraceConfig(days=2)
        config = FacilityConfig(
            clusters=(ClusterSpec(name="c", node_count=4),),
            trace=trace_config, window_s=300.0, horizon_s=900.0,
        )
        capacity_w = 1_000_000.0
        series = facility_budget_series(config, capacity_w)
        trace = generate_facility_trace(trace_config)
        assert len(series) == 3
        for i, value in enumerate(series):
            expected = trace.power_mw[i] / trace_config.rating_mw \
                * capacity_w
            assert value == pytest.approx(expected)
        assert all(0.0 < v < capacity_w for v in series)


class TestFacilityPlan:
    def _config(self, **overrides):
        specs = tuple(
            ClusterSpec(name=f"c{i}", node_count=8, nodes_per_job=2,
                        jobs=3, iterations=4, racks=2)
            for i in range(3)
        )
        defaults = dict(clusters=specs, budget_w=3 * 8 * 150.0,
                        window_s=10.0, horizon_s=40.0, seed=5)
        defaults.update(overrides)
        return FacilityConfig(**defaults)

    def test_rack_allocations_conserve_cluster_allocation(self):
        plan = _plan_facility(self._config())
        for i in range(3):
            for e in range(len(plan.epochs)):
                assert sum(plan.rack_allocations_w[i][e]) == pytest.approx(
                    plan.allocations_w[i][e]
                )

    def test_facility_allocations_conserve_budget(self):
        plan = _plan_facility(self._config())
        for e, budget in enumerate(plan.budgets_w):
            total = sum(plan.allocations_w[i][e] for i in range(3))
            assert total <= budget + 1e-6

    def test_constant_budget_composes_no_leaf_events(self):
        config = self._config()
        plan = _plan_facility(config)
        for i, spec in enumerate(config.clusters):
            assert _leaf_schedule(
                spec, plan.epochs, plan.allocations_w[i], config.name
            ) is None

    def test_cluster_budget_events_become_caps_not_leaf_events(self):
        specs = (
            ClusterSpec(
                name="capped", node_count=8,
                fault_schedule=FaultSchedule().budget_drop(15.0, 400.0),
            ),
            ClusterSpec(name="free", node_count=8),
        )
        # Budget below aggregate capacity so the sibling has headroom
        # to absorb the watts the feeder cap frees.
        config = FacilityConfig(clusters=specs, budget_w=3000.0,
                                window_s=10.0, horizon_s=40.0)
        plan = _plan_facility(config)
        capped = plan.allocations_w[0]
        free = plan.allocations_w[1]
        # Before the dip both split evenly; after it the capped cluster
        # holds at its feeder limit and the sibling absorbs the watts.
        assert capped[0] == pytest.approx(free[0])
        assert capped[2] == pytest.approx(400.0)
        assert free[2] > free[0]
        # The leaf replays the allocation steps, not the raw cap event.
        schedule = _leaf_schedule(specs[0], plan.epochs, capped,
                                  config.name)
        assert schedule is not None
        assert all(e.kind is FaultKind.BUDGET_CHANGE
                   for e in schedule.events)
        assert {e.budget_w for e in schedule.events} <= set(capped)

    def test_non_budget_faults_pass_through_to_leaf(self):
        spec = ClusterSpec(
            name="c", node_count=8,
            fault_schedule=FaultSchedule().node_failure(5.0, (1, 2)),
        )
        config = FacilityConfig(clusters=(spec,), budget_w=900.0,
                                window_s=10.0, horizon_s=20.0)
        plan = _plan_facility(config)
        schedule = _leaf_schedule(spec, plan.epochs,
                                  plan.allocations_w[0], config.name)
        assert schedule is not None
        kinds = [e.kind for e in schedule.events]
        assert kinds == [FaultKind.NODE_FAILURE]


class TestRunFacility:
    def test_end_to_end_aggregates(self):
        specs = tuple(
            ClusterSpec(name=f"c{i}", node_count=8, nodes_per_job=2,
                        jobs=3, iterations=4, racks=2)
            for i in range(2)
        )
        config = FacilityConfig(clusters=specs, budget_w=2 * 8 * 150.0,
                                window_s=10.0, horizon_s=30.0, seed=9)
        result = run_facility_simulation(config, workers=1)
        assert result.total_nodes == 16
        assert len(result.clusters) == 2
        assert len(result.epoch_s) == 3
        assert result.completed_jobs() == 6
        assert result.total_energy_j > 0.0
        assert result.mean_turnaround_s() > 0.0
        summary = result.summary()
        assert summary["nodes"] == 16.0
        assert summary["jobs_completed"] == 6.0
        assert summary["stranded_w"] >= 0.0

    def test_same_config_is_bit_identical(self):
        spec = ClusterSpec(name="c", node_count=8, nodes_per_job=2,
                           jobs=3, iterations=4, racks=2)
        config = FacilityConfig(clusters=(spec,), budget_w=900.0,
                                window_s=10.0, horizon_s=30.0, seed=2)
        assert run_facility_simulation(config, workers=1) == \
            run_facility_simulation(config, workers=1)
