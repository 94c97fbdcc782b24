"""Property-based determinism contracts of the facility hierarchy.

Two contracts, both asserted with ``==`` (every result field is a
tuple / float / dict of floats, so equality is bitwise):

* **Degenerate identity** — a one-cluster facility under a constant
  budget composes an empty leaf schedule and must be bit-identical to a
  plain :func:`run_site_simulation` of the same arrivals, cluster,
  policy, and seed.
* **Worker-count invariance** — the facility result is bit-identical
  whether the clusters run as one fused group in-process
  (``workers=1``) or split round-robin into fused groups over a process
  pool (``workers=2`` / ``workers=4``, including more workers than
  clusters), across broker policies, seeds, fault schedules, non-uniform
  (heterogeneous-efficiency) clusters and trace-driven budgets: the
  budget plan is open loop and each cluster consumes only its own seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.faults.schedule import FaultSchedule, random_schedule
from repro.hierarchy import (
    ClusterSpec,
    FacilityConfig,
    build_cluster,
    cluster_arrivals,
    run_facility_simulation,
)
from repro.manager.site_simulation import run_site_simulation
from repro.parallel.seeding import child_seed


@st.composite
def cluster_specs(draw, index: int = 0,
                  with_faults: bool = False) -> ClusterSpec:
    schedule = None
    if with_faults and draw(st.booleans()):
        if draw(st.booleans()):
            # Engine-applicable faults: a faulted batch runs as a
            # stacked pass of its own.
            schedule = random_schedule(
                duration_s=40.0,
                host_count=8,
                base_budget_w=8 * 200.0,
                events=draw(st.integers(1, 3)),
                seed=draw(st.integers(0, 2**16)),
            )
        else:
            # A budget-only feeder dip: the degradation ladder and
            # compliance accounting (the facility-leaf shape).
            dip_at = draw(st.sampled_from([5.0, 10.0, 20.0]))
            fraction = draw(st.sampled_from([0.5, 0.7, 0.9]))
            schedule = (
                FaultSchedule(name=f"dip-{index}")
                .budget_drop(dip_at, fraction * 8 * 200.0)
                .budget_restore(dip_at + 10.0, 8 * 240.0)
            )
    return ClusterSpec(
        name=f"cluster-{index}",
        node_count=8,
        racks=draw(st.sampled_from([1, 2, 4])),
        nodes_per_job=2,
        jobs=draw(st.integers(2, 4)),
        iterations=draw(st.integers(3, 5)),
        spacing_s=draw(st.sampled_from([0.5, 1.0, 2.0])),
        uniform=draw(st.booleans()),
        weight=float(draw(st.integers(1, 4))),
        priority=draw(st.integers(0, 2)),
        fault_schedule=schedule,
    )


class TestDegenerateIdentity:
    @given(seed=st.integers(0, 2**16),
           budget_fraction=st.sampled_from([0.5, 0.75, 0.95]),
           spec=cluster_specs())
    @settings(max_examples=10, deadline=None)
    def test_one_cluster_equals_plain_site_simulation(
        self, seed, budget_fraction, spec,
    ):
        budget_w = budget_fraction * spec.node_count * 240.0
        config = FacilityConfig(
            clusters=(spec,), budget_w=budget_w,
            window_s=10.0, horizon_s=40.0, seed=seed,
        )
        facility = run_facility_simulation(config, workers=1)
        plain = run_site_simulation(
            cluster_arrivals(spec),
            build_cluster(spec, config.seed),
            create_policy(config.policy),
            budget_w,
            noise_std=config.noise_std,
            max_batches=config.max_batches,
            run_seed=child_seed(config.seed, "facility-cluster", spec.name),
        )
        assert facility.clusters[0].result == plain
        # The identity holds because a constant budget composes *no*
        # leaf schedule — the guaranteed-no-op path.
        assert facility.clusters[0].allocations_w == \
            (budget_w,) * len(facility.epoch_s)

    @given(seed=st.integers(0, 2**16), spec=cluster_specs())
    @settings(max_examples=5, deadline=None)
    def test_empty_leaf_schedule_equals_attached_empty(self, seed, spec):
        budget_w = 0.8 * spec.node_count * 240.0
        config = FacilityConfig(
            clusters=(spec,), budget_w=budget_w,
            window_s=10.0, horizon_s=40.0, seed=seed,
        )
        facility = run_facility_simulation(config, workers=1)
        attached = run_site_simulation(
            cluster_arrivals(spec),
            build_cluster(spec, config.seed),
            create_policy(config.policy),
            budget_w,
            noise_std=config.noise_std,
            max_batches=config.max_batches,
            run_seed=child_seed(config.seed, "facility-cluster", spec.name),
            fault_schedule=FaultSchedule(),
        )
        assert facility.clusters[0].result == attached


def _assert_worker_invariant(config):
    """``workers=2`` and ``workers=4`` reproduce ``workers=1`` bitwise;
    returns the serial result."""
    serial = run_facility_simulation(config, workers=1)
    for workers in (2, 4):
        assert run_facility_simulation(config, workers=workers) == serial
    return serial


class TestShardInvariance:
    @given(seed=st.integers(0, 2**16),
           broker_policy=st.sampled_from(["uniform", "demand", "priority"]),
           data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_workers_do_not_change_the_result(self, seed, broker_policy,
                                              data):
        # Two or three clusters: workers=4 always exceeds the cluster
        # count, so no group may be empty.
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
        _assert_worker_invariant(config)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_trace_driven_budgets_shard_identically(self, seed):
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
        serial = _assert_worker_invariant(config)
        # The trace varies across five-minute windows, so every leaf
        # replays real BUDGET_CHANGE events (degradation ladder +
        # compliance accounting), not the no-op fault-free path.
        assert len(set(serial.budgets_w)) > 1
