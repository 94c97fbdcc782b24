"""Unit tests: the batch planner, the batch executor and their caches.

Every admission pass runs ``plan_admitted_batch`` →
``execute_planned_batches`` → ``finish_planned_batch``.  These tests pin
the stages' contracts at the function level — the scheduler-identical
shuffle, the planner's input checks, grouping and pass counting,
fault-slice isolation, a multi-row pass equal to its rows planned one
by one, memo-hit object reuse and the memo bound, trusted-constructor
semantics, and the stacked-layout identity cache — independently of the
site loops (whose outputs the golden-digest suite pins end to end).
"""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.faults.scenarios import build_scenario
from repro.hardware.cluster import Cluster
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobRequest
from repro.manager.scheduler import ScheduledMix, Scheduler
from repro.manager.site_simulation import (
    PLANNER_MEMO_LIMIT,
    BatchPlanner,
    Launch,
    batch_seeds,
    execute_planned_batches,
    plan_admitted_batch,
)
from repro.parallel.seeding import child_seed
from repro.sim import batch as sim_batch
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _request(name, nodes=3, intensity=8.0, iterations=5, hint=180.0):
    return JobRequest(
        name=name, config=KernelConfig(intensity=intensity),
        node_count=nodes, iterations=iterations, power_hint_w=hint,
    )


def _launch(index, admitted, cluster, budget_w):
    return Launch(index, (), admitted, cluster.efficiencies,
                  budget_w, budget_w)


def _staged(clock, index, admitted, cluster, policy,
            budget_w, manager, planner=None, uniform=False, **faults):
    """A one-row pass."""
    return plan_admitted_batch(
        clock=clock,
        launches=[_launch(index, admitted, cluster, budget_w)],
        policy=policy, manager=manager, planner=planner,
        uniform_hosts=uniform, **faults,
    )


class TestStagedPipelineIdentity:
    @pytest.mark.parametrize("index", [0, 3, 17])
    def test_schedules_like_the_scheduler(self, index):
        # The planner's draw is Scheduler.allocate's: shuffle the whole
        # partition under the batch index, take the first n hosts.
        cluster = Cluster(node_count=12, seed=5)
        admitted = [_request("a0", nodes=3), _request("a1", nodes=2)]
        planned = _staged(0.0, index, admitted,
                          cluster, create_policy("StaticCaps"), 2500.0,
                          PowerManager())
        expected = Scheduler(cluster, shuffle_seed=index).allocate(
            WorkloadMix(name="m", jobs=tuple(r.to_job() for r in admitted))
        )
        np.testing.assert_array_equal(planned.node_ids[0],
                                      expected.node_ids)
        np.testing.assert_array_equal(planned.efficiencies[0],
                                      expected.efficiencies)

    def test_rejects_a_batch_larger_than_the_partition(self):
        cluster = Cluster(node_count=4, variation=None, seed=0)
        admitted = [_request("big", nodes=5)]
        with pytest.raises(ValueError, match="needs 5 nodes"):
            _staged(0.0, 0, admitted, cluster,
                    create_policy("StaticCaps"), 2500.0, PowerManager())

    @pytest.mark.parametrize("uniform", [False, True])
    def test_rejects_empty_and_duplicate_job_lists(self, uniform):
        # The checks WorkloadMix would run, kept although a memo hit
        # builds no mix: plan the shape once, then feed bad launches.
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        good = [_request("a", nodes=2)]
        _staged(0.0, 0, good, cluster, policy, 2500.0,
                manager, planner=planner, uniform=uniform)
        with pytest.raises(ValueError, match="at least one job"):
            _staged(0.0, 1, [], cluster, policy, 2500.0,
                    manager, planner=planner, uniform=uniform)
        twice = [_request("a", nodes=2), _request("a", nodes=2)]
        with pytest.raises(ValueError, match="duplicate job names"):
            _staged(0.0, 2, twice, cluster, policy,
                    2500.0, manager, planner=planner, uniform=uniform)

    @pytest.mark.parametrize("variation", [None, "quartz"])
    def test_pass_equals_its_rows_planned_alone(self, variation):
        # One multi-row pass plans and executes each row exactly as a
        # one-row pass of that launch would, on uniform and varied hosts.
        kwargs = {} if variation else {"variation": None}
        cluster = Cluster(node_count=16, seed=4, **kwargs)
        uniform = variation is None
        policy = create_policy("JobAdaptive")
        manager = PowerManager()
        seeds = batch_seeds(11)
        specs = [(3, 8.0, 900.0), (3, 8.0, 900.0), (5, 0.25, 1400.0),
                 (3, 8.0, 700.0)]
        launches = []
        for index, (nodes, intensity, budget) in enumerate(specs):
            admitted = [_request(f"j{index}", nodes=nodes,
                                 intensity=intensity)]
            launches.append(_launch(index, admitted,
                                    cluster, budget))

        def plan(rows):
            return plan_admitted_batch(
                clock=2.0, launches=rows, policy=policy, manager=manager,
                planner=BatchPlanner(manager, policy), seeds=seeds,
                uniform_hosts=uniform,
            )

        together = plan(launches)
        alone = [plan([launch]) for launch in launches]
        assert together.seeds == [child_seed(11, "site-batch", i)
                                  for i in range(len(specs))]
        for row, single in enumerate(alone):
            np.testing.assert_array_equal(together.caps[row], single.caps[0])
            np.testing.assert_array_equal(together.efficiencies[row],
                                          single.efficiencies[0])
            assert together.seeds[row] == single.seeds[0]
        fused = execute_planned_batches([together], manager, 0.01)
        one_by_one = execute_planned_batches(alone, manager, 0.01)
        assert fused == list(one_by_one)
        assert fused.passes == 2 and one_by_one.passes == 2

    def test_pass_looks_up_each_plan_once(self):
        # Uniform hosts: rows sharing (shapes, budget) share one memo
        # lookup and one caps object; a new budget is a new lookup.
        cluster = Cluster(node_count=64, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        launches = []
        for index, budget in enumerate([900.0] * 5 + [700.0] * 3):
            admitted = [_request(f"j{index}", nodes=3)]
            launches.append(_launch(index, admitted,
                                    cluster, budget))
        planned = plan_admitted_batch(
            clock=0.0, launches=launches, policy=policy, manager=manager,
            planner=planner, uniform_hosts=True,
        )
        assert planner.char_hits + planner.char_misses == 2
        assert all(c is planned.caps[0] for c in planned.caps[:5])
        assert planned.caps[5] is not planned.caps[0]
        assert planned.seeds == list(range(8))

    def test_grouping_preserves_input_order(self):
        cluster = Cluster(node_count=16, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        # Two interleaved shapes: grouping must not reorder executions.
        shapes = [3, 5, 3, 5]
        planned = []
        for index, nodes in enumerate(shapes):
            admitted = [_request(f"j{index}", nodes=nodes)]
            planned.append(_staged(
                float(index), index, admitted,
                cluster, policy, 2500.0, manager, planner=planner,
                uniform=True,
            ))
        executed = execute_planned_batches(planned, manager, 0.0)
        assert [e.record.start_s for e in executed] == \
            [float(i) for i in range(len(shapes))]
        assert [e.record.admitted for e in executed] == \
            [(f"j{i}",) for i in range(len(shapes))]
        assert executed.passes == 2

    def test_row_energy_matches_serial_simulate_mix(self):
        # The executor reads each row's energy straight from the engine
        # tensors; it equals the serial simulate_mix run of that row.
        from repro.sim.execution import SimulationOptions, simulate_mix

        cluster = Cluster(node_count=16, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        launches = [_launch(index, [_request(f"j{index}", nodes=4)],
                            cluster, 900.0)
                    for index in range(3)]
        planned = plan_admitted_batch(
            clock=1.0, launches=launches, policy=policy, manager=manager,
            planner=BatchPlanner(manager, policy), seeds=batch_seeds(5),
            uniform_hosts=True,
        )
        executed = execute_planned_batches([planned], manager, 0.01)
        for row, execution in enumerate(executed):
            serial = simulate_mix(
                planned.mix(row), planned.caps[row],
                planned.efficiencies[row], manager.model,
                SimulationOptions(noise_std=0.01, seed=planned.seeds[row]),
                policy.name, 900.0,
            )
            assert serial.total_energy_j == execution.record.energy_j

    def test_engine_fault_rows_run_alone(self, monkeypatch):
        # Two same-structure batches share one pass fault-free; with an
        # engine-applicable fault slice each runs its own pass carrying
        # that slice in its options.
        cluster = Cluster(node_count=16, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        schedule = build_scenario("stuck-caps", 4000.0, 4, 10.0)
        options = []
        real = sim_batch.simulate_layout_rows

        def recording(layouts, n_iter, caps, eff, model, opts, *args):
            options.append((len(layouts), opts.fault_schedule))
            return real(layouts, n_iter, caps, eff, model, opts, *args)

        monkeypatch.setattr(sim_batch, "simulate_layout_rows", recording)

        def batches(**faults):
            return [
                _staged(5.0, index, [_request(f"j{index}", nodes=4)],
                        cluster, policy, 2500.0, manager, uniform=True,
                        **faults)
                for index in range(2)
            ]

        assert execute_planned_batches(batches(), manager, 0.0).passes == 1
        assert options == [(2, None)]
        options.clear()
        faulted = batches(fault_schedule=schedule)
        assert all(b.engine_faults[0] is not None for b in faulted)
        executed = execute_planned_batches(faulted, manager, 0.0)
        assert executed.passes == 2
        assert [rows for rows, _ in options] == [1, 1]
        assert all(opts is not None and opts.active for _, opts in options)


class TestBatchPlannerMemo:
    def test_same_shape_reuses_caps_object(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("JobAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        first = _staged(0.0, 0, admitted, cluster,
                        policy, 2500.0, manager, planner=planner,
                        uniform=True)
        again = [_request("y", nodes=4)]  # same shape, different name
        second = _staged(5.0, 1, again, cluster,
                         policy, 2500.0, manager, planner=planner,
                         uniform=True)
        assert second.caps[0] is first.caps[0]
        assert not first.caps[0].flags.writeable

    def test_budget_keys_caps_separately(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        low = _staged(0.0, 0, admitted, cluster,
                      policy, 1200.0, manager, planner=planner,
                      uniform=True)
        high = _staged(0.0, 1, admitted, cluster,
                       policy, 2500.0, manager, planner=planner,
                       uniform=True)
        assert low.caps[0] is not high.caps[0]

    def test_memo_stays_bounded(self):
        # More distinct efficiency vectors and budgets than the bound:
        # every memo level stays at or below it, and planning stays
        # correct after eviction.
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        for index in range(PLANNER_MEMO_LIMIT + 20):
            cluster = Cluster(node_count=8, seed=index)
            _staged(0.0, index, admitted, cluster,
                    policy, 1000.0 + index, manager, planner=planner)
            _, chars, caps = planner.memo_sizes()
            assert chars <= PLANNER_MEMO_LIMIT
            assert caps <= PLANNER_MEMO_LIMIT
        assert planner.char_misses == PLANNER_MEMO_LIMIT + 20
        uniform = Cluster(node_count=8, variation=None, seed=0)
        for index in range(PLANNER_MEMO_LIMIT + 20):
            _staged(0.0, 0, admitted, uniform,
                    policy, 1000.0 + index, manager, planner=planner,
                    uniform=True)
            assert planner.memo_sizes()[2] <= PLANNER_MEMO_LIMIT
        for iterations in range(1, PLANNER_MEMO_LIMIT + 6):
            shaped = [_request("x", nodes=2, iterations=iterations)]
            _staged(0.0, 0, shaped, uniform, policy,
                    1000.0, manager, planner=planner, uniform=True)
            assert planner.memo_sizes()[0] <= PLANNER_MEMO_LIMIT
        fresh =_staged(0.0, 0, admitted, uniform,
                        policy, 1000.0, manager, uniform=True)
        again = _staged(0.0, 0, admitted, uniform,
                        policy, 1000.0, manager, planner=planner,
                        uniform=True)
        np.testing.assert_array_equal(again.caps[0], fresh.caps[0])


class TestTrustedScheduledMix:
    def test_skips_validation(self):
        mix = WorkloadMix(name="m", jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=2, iterations=3),
        ))
        doubled = np.array([0, 0])
        with pytest.raises(ValueError):
            ScheduledMix(mix=mix, node_ids=doubled,
                         efficiencies=np.ones(2))
        trusted = ScheduledMix.trusted(mix, doubled, np.ones(2))
        assert trusted.node_ids is doubled

    def test_equivalent_to_validated_constructor(self):
        mix = WorkloadMix(name="m", jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=3, iterations=3),
        ))
        ids = np.array([2, 0, 1])
        eff = np.array([1.0, 0.9, 1.1])
        a = ScheduledMix(mix=mix, node_ids=ids, efficiencies=eff)
        b = ScheduledMix.trusted(mix, ids, eff)
        assert (a.node_ids == b.node_ids).all()
        assert (a.efficiencies == b.efficiencies).all()
        assert (b.job_node_ids(0) == ids).all()


class TestStackedLayoutCache:
    """The identity memo that serves mixed-layout engine passes."""

    def _layouts(self, name="m", nodes=3):
        return [
            WorkloadMix(name=f"{name}{i}", jobs=(
                Job(name="j", config=KernelConfig(intensity=8.0 * (i + 1)),
                    node_count=nodes, iterations=4),
            )).layout()
            for i in range(2)
        ]

    def test_identity_hit_returns_same_stack(self):
        a, b = self._layouts()
        first = sim_batch._stack_layouts_cached([a, b, a])
        second = sim_batch._stack_layouts_cached([a, b, a])
        assert second is first
        np.testing.assert_array_equal(
            first.kappa, sim_batch.stack_layouts([a, b, a]).kappa
        )

    def test_cache_bounded(self):
        sim_batch._STACK_CACHE.clear()
        for nodes in range(1, sim_batch._STACK_CACHE_LIMIT + 3):
            a, b = self._layouts(name=f"m{nodes}", nodes=nodes)
            sim_batch._stack_layouts_cached([a, b])
        assert len(sim_batch._STACK_CACHE) <= sim_batch._STACK_CACHE_LIMIT

    def test_stack_cache_info_counts_lookups(self):
        sim_batch._STACK_CACHE.clear()
        a, b = self._layouts()
        before = sim_batch.stack_cache_info()
        sim_batch._stack_layouts_cached([a, b])
        sim_batch._stack_layouts_cached([a, b])
        after = sim_batch.stack_cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
