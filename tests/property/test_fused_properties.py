"""Property-based identity contract of the fused facility engine.

The contract: **fused ≡ sharded ≡ serial, bit-identical**
(``SiteSimulationResult.__eq__`` over tuples / floats / dicts of floats
is bitwise).  *Fused* is the facility run, whose clusters advance in
lockstep through shared stacked passes; *sharded* is the same facility
split into round-robin worker groups; *serial* is each cluster replayed
alone through :func:`run_site_simulation` — one batch per engine pass,
its own planner — under the budget, leaf schedule and seed the facility
handed it.  Covered across broker policies × seeds × fault schedules ×
trace-driven budgets, including non-uniform (heterogeneous-efficiency)
clusters and budget-only feeder-dip schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.hierarchy import (
    ClusterSpec,
    FacilityConfig,
    build_cluster,
    cluster_arrivals,
    run_facility_simulation,
)
from repro.hierarchy.facility import _leaf_schedule
from repro.manager.site_simulation import run_site_simulation

from tests.property.test_hierarchy_properties import cluster_specs


def _assert_fused_equals_serial(config, fused):
    """Every cluster of the fused facility run equals that cluster run
    alone through :func:`run_site_simulation`."""
    for spec, outcome in zip(config.clusters, fused.clusters):
        serial = run_site_simulation(
            cluster_arrivals(spec),
            build_cluster(spec, config.seed),
            create_policy(config.policy),
            outcome.allocations_w[0],
            noise_std=config.noise_std,
            max_batches=config.max_batches,
            run_seed=outcome.seed,
            fault_schedule=_leaf_schedule(
                spec, fused.epoch_s, outcome.allocations_w, config.name),
        )
        assert outcome.result == serial


class TestFusedIdentity:
    @given(seed=st.integers(0, 2**16),
           broker_policy=st.sampled_from(["uniform", "demand", "priority"]),
           data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_fused_equals_sharded_equals_serial(self, seed, broker_policy,
                                                data):
        n_clusters = data.draw(st.integers(2, 3))
        specs = tuple(
            data.draw(cluster_specs(index=i, with_faults=True))
            for i in range(n_clusters)
        )
        config = FacilityConfig(
            clusters=specs,
            broker_policy=broker_policy,
            budget_w=0.7 * sum(s.node_count for s in specs) * 240.0,
            window_s=10.0, horizon_s=30.0, seed=seed,
        )
        fused = run_facility_simulation(config, workers=1)
        sharded = run_facility_simulation(config, workers=2)
        assert fused == sharded
        _assert_fused_equals_serial(config, fused)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_trace_driven_budgets_fuse_identically(self, seed):
        from repro.workload.facility import FacilityTraceConfig

        specs = tuple(
            ClusterSpec(name=f"c{i}", node_count=8, nodes_per_job=2,
                        jobs=3, iterations=4, racks=2,
                        uniform=bool(i % 2),
                        weight=float(1 + i), priority=i)
            for i in range(3)
        )
        config = FacilityConfig(
            clusters=specs, trace=FacilityTraceConfig(days=2),
            window_s=300.0, horizon_s=1200.0, seed=seed,
        )
        fused = run_facility_simulation(config, workers=1)
        _assert_fused_equals_serial(config, fused)
        # The trace varies across five-minute windows, so every leaf
        # replays real BUDGET_CHANGE events through the fused passes
        # (degradation ladder + compliance accounting), not the no-op
        # fault-free path.
        assert len(set(fused.budgets_w)) > 1
