"""Unit tests: the batch planner, the batch executor and their caches.

Every admitted batch runs ``plan_admitted_batch`` →
``execute_planned_batches`` → ``finish_planned_batch``.  These tests pin
the stages' contracts at the function level — the scheduler-identical
shuffle, grouping and pass counting, fault-slice isolation, memo-hit
object reuse and the memo bound, trusted-constructor semantics, and the
stacked-layout identity cache — independently of the site loops (whose
outputs the golden-digest suite pins end to end).
"""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.faults.scenarios import build_scenario
from repro.hardware.cluster import Cluster
from repro.manager.admission import AdmissionDecision
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobRequest
from repro.manager.scheduler import ScheduledMix, Scheduler
from repro.manager.site_simulation import (
    PLANNER_MEMO_LIMIT,
    BatchPlanner,
    execute_planned_batches,
    plan_admitted_batch,
)
from repro.sim import batch as sim_batch
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _request(name, nodes=3, intensity=8.0, iterations=5, hint=180.0):
    return JobRequest(
        name=name, config=KernelConfig(intensity=intensity),
        node_count=nodes, iterations=iterations, power_hint_w=hint,
    )


def _decision(admitted, budget_w=2500.0, nodes=12):
    return AdmissionDecision(
        tuple(r.name for r in admitted), (),
        {r.name: float(r.power_hint_w) for r in admitted},
        budget_w, nodes,
    )


def _staged(clock, index, admitted, decision, cluster, policy,
            budget_w, manager, planner=None, uniform=False, **faults):
    return plan_admitted_batch(
        clock=clock, batch_index=index, admitted=admitted,
        decision=decision, host_efficiencies=cluster.efficiencies,
        policy=policy, budget_w=budget_w, batch_budget_w=budget_w,
        quarantined=(), manager=manager, run_seed=None,
        planner=planner, uniform_hosts=uniform, **faults,
    )


class TestStagedPipelineIdentity:
    @pytest.mark.parametrize("index", [0, 3, 17])
    def test_schedules_like_the_scheduler(self, index):
        # The planner's draw is Scheduler.allocate's: shuffle the whole
        # partition under the batch index, take the first n hosts.
        cluster = Cluster(node_count=12, seed=5)
        admitted = [_request("a0", nodes=3), _request("a1", nodes=2)]
        planned = _staged(0.0, index, admitted, _decision(admitted),
                          cluster, create_policy("StaticCaps"), 2500.0,
                          PowerManager())
        expected = Scheduler(cluster, shuffle_seed=index).allocate(
            WorkloadMix(name="m", jobs=tuple(r.to_job() for r in admitted))
        )
        np.testing.assert_array_equal(planned.scheduled.node_ids,
                                      expected.node_ids)
        np.testing.assert_array_equal(planned.scheduled.efficiencies,
                                      expected.efficiencies)

    def test_rejects_a_batch_larger_than_the_partition(self):
        cluster = Cluster(node_count=4, variation=None, seed=0)
        admitted = [_request("big", nodes=5)]
        with pytest.raises(ValueError, match="needs 5 nodes"):
            _staged(0.0, 0, admitted, _decision(admitted), cluster,
                    create_policy("StaticCaps"), 2500.0, PowerManager())

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
                float(index), index, admitted, _decision(admitted),
                cluster, policy, 2500.0, manager, planner=planner,
                uniform=True,
            ))
        executed = execute_planned_batches(planned, manager, 0.0)
        assert [e.record.start_s for e in executed] == \
            [float(i) for i in range(len(shapes))]
        assert [e.job_names for e in executed] == \
            [(f"j{i}",) for i in range(len(shapes))]
        assert executed.passes == 2

    def test_engine_fault_rows_run_alone(self, monkeypatch):
        # Two same-structure batches share one pass fault-free; with an
        # engine-applicable fault slice each runs its own pass carrying
        # that slice in its options.
        cluster = Cluster(node_count=16, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        schedule = build_scenario("stuck-caps", 4000.0, 4, 10.0)
        options = []
        real = sim_batch.simulate_layout_batch

        def recording(mixes, caps, eff, model, opts, **kwargs):
            options.append((len(mixes), opts.fault_schedule))
            return real(mixes, caps, eff, model, opts, **kwargs)

        monkeypatch.setattr(sim_batch, "simulate_layout_batch", recording)

        def batches(**faults):
            return [
                _staged(5.0, index, [_request(f"j{index}", nodes=4)],
                        _decision([_request(f"j{index}", nodes=4)]),
                        cluster, policy, 2500.0, manager, uniform=True,
                        **faults)
                for index in range(2)
            ]

        assert execute_planned_batches(batches(), manager, 0.0).passes == 1
        assert options == [(2, None)]
        options.clear()
        faulted = batches(fault_schedule=schedule)
        assert all(b.engine_faults is not None for b in faulted)
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
        first = _staged(0.0, 0, admitted, _decision(admitted), cluster,
                        policy, 2500.0, manager, planner=planner,
                        uniform=True)
        again = [_request("y", nodes=4)]  # same shape, different name
        second = _staged(5.0, 1, again, _decision(again), cluster,
                         policy, 2500.0, manager, planner=planner,
                         uniform=True)
        assert second.effective_caps is first.effective_caps
        assert not first.effective_caps.flags.writeable

    def test_budget_keys_caps_separately(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        low = _staged(0.0, 0, admitted, _decision(admitted), cluster,
                      policy, 1200.0, manager, planner=planner,
                      uniform=True)
        high = _staged(0.0, 1, admitted, _decision(admitted), cluster,
                       policy, 2500.0, manager, planner=planner,
                       uniform=True)
        assert low.effective_caps is not high.effective_caps

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
            _staged(0.0, index, admitted, _decision(admitted), cluster,
                    policy, 1000.0 + index, manager, planner=planner)
            _, chars, caps = planner.memo_sizes()
            assert chars <= PLANNER_MEMO_LIMIT
            assert caps <= PLANNER_MEMO_LIMIT
        assert planner.char_misses == PLANNER_MEMO_LIMIT + 20
        uniform = Cluster(node_count=8, variation=None, seed=0)
        for index in range(PLANNER_MEMO_LIMIT + 20):
            _staged(0.0, 0, admitted, _decision(admitted), uniform,
                    policy, 1000.0 + index, manager, planner=planner,
                    uniform=True)
            assert planner.memo_sizes()[2] <= PLANNER_MEMO_LIMIT
        for iterations in range(1, PLANNER_MEMO_LIMIT + 6):
            shaped = [_request("x", nodes=2, iterations=iterations)]
            _staged(0.0, 0, shaped, _decision(shaped), uniform, policy,
                    1000.0, manager, planner=planner, uniform=True)
            assert planner.memo_sizes()[0] <= PLANNER_MEMO_LIMIT
        fresh =_staged(0.0, 0, admitted, _decision(admitted), uniform,
                        policy, 1000.0, manager, uniform=True)
        again = _staged(0.0, 0, admitted, _decision(admitted), uniform,
                        policy, 1000.0, manager, planner=planner,
                        uniform=True)
        np.testing.assert_array_equal(again.effective_caps,
                                      fresh.effective_caps)


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
    def _mix(self, name="m", nodes=3):
        return WorkloadMix(name=name, jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=nodes, iterations=4),
        ))

    def test_identity_hit_returns_same_stack(self):
        layout = self._mix().layout()
        first = sim_batch._stack_layouts_cached([layout, layout])
        second = sim_batch._stack_layouts_cached([layout, layout])
        assert second is first

    def test_repeat_fast_path_matches_general_stack(self):
        layout = self._mix().layout()
        fast = sim_batch._stack_layouts_cached([layout] * 3)
        general = sim_batch.stack_layouts([layout] * 3)
        np.testing.assert_array_equal(fast.critical, general.critical)
        np.testing.assert_array_equal(
            fast.job_boundaries, general.job_boundaries
        )

    def test_cache_bounded(self):
        sim_batch._STACK_CACHE.clear()
        for nodes in range(1, sim_batch._STACK_CACHE_LIMIT + 3):
            layout = self._mix(name=f"m{nodes}", nodes=nodes).layout()
            sim_batch._stack_layouts_cached([layout, layout])
        assert len(sim_batch._STACK_CACHE) <= sim_batch._STACK_CACHE_LIMIT
