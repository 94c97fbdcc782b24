"""Unit tests for power-aware admission control."""

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.admission import PowerAwareAdmission
from repro.manager.queue import JobQueue, JobRequest
from repro.manager.site_simulation import Arrival
from repro.stream.engine import SiteStreamEngine
from repro.workload.kernel import KernelConfig


def _request(name, nodes=4, intensity=8.0, hint=None, waiting=0.0, imbalance=1):
    return JobRequest(
        name=name,
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=nodes,
        power_hint_w=hint,
    )


class TestEstimates:
    def test_hint_takes_precedence(self, execution_model):
        admission = PowerAwareAdmission(execution_model)
        request = _request("a", nodes=4, hint=200.0)
        assert admission.estimate_job_power_w(request) == pytest.approx(800.0)

    def test_characterized_estimate_for_balanced_job(self, execution_model):
        admission = PowerAwareAdmission(execution_model)
        request = _request("a", nodes=4, intensity=8.0)
        estimate = admission.estimate_job_power_w(request)
        # Balanced I=8 draws ~232 W/node.
        assert estimate == pytest.approx(4 * 232.0, rel=0.01)

    def test_waiting_jobs_estimate_below_balanced(self, execution_model):
        admission = PowerAwareAdmission(execution_model)
        balanced = admission.estimate_job_power_w(_request("a", intensity=8.0))
        waster = admission.estimate_job_power_w(
            _request("b", intensity=8.0, waiting=0.75, imbalance=3)
        )
        assert waster < balanced


class TestDecide:
    def test_admits_within_budget(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=200.0))
        queue.submit(_request("b", nodes=2, hint=200.0))
        decision = PowerAwareAdmission(execution_model).decide(
            queue, budget_w=1000.0, nodes_available=10
        )
        assert decision.admitted == ("a", "b")
        assert decision.feasible()

    def test_defers_over_budget(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=200.0))
        queue.submit(_request("b", nodes=2, hint=200.0))
        decision = PowerAwareAdmission(execution_model).decide(
            queue, budget_w=500.0, nodes_available=10
        )
        assert decision.admitted == ("a",)
        assert decision.deferred == ("b",)

    def test_node_capacity_limits(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=8, hint=100.0))
        queue.submit(_request("b", nodes=8, hint=100.0))
        decision = PowerAwareAdmission(execution_model).decide(
            queue, budget_w=10000.0, nodes_available=10
        )
        assert decision.admitted == ("a",)
        assert decision.admitted_nodes == 8

    def test_backfill_jumps_blocked_head(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("big", nodes=2, hint=400.0))    # 800 W
        queue.submit(_request("small", nodes=2, hint=100.0))  # 200 W
        decision = PowerAwareAdmission(execution_model, backfill=True).decide(
            queue, budget_w=500.0, nodes_available=10
        )
        assert decision.admitted == ("small",)
        assert decision.deferred == ("big",)

    def test_strict_fifo_blocks_behind_head(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("big", nodes=2, hint=400.0))
        queue.submit(_request("small", nodes=2, hint=100.0))
        decision = PowerAwareAdmission(execution_model, backfill=False).decide(
            queue, budget_w=500.0, nodes_available=10
        )
        assert decision.admitted == ()
        assert decision.deferred == ("big", "small")

    def test_safety_margin_holds_headroom(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=245.0))  # 490 W
        decision = PowerAwareAdmission(
            execution_model, safety_margin=0.05
        ).decide(queue, budget_w=500.0, nodes_available=10)
        # 490 > 0.95 x 500 = 475 -> deferred.
        assert decision.admitted == ()

    def test_marks_queue_states(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=100.0))
        queue.submit(_request("b", nodes=2, hint=900.0))
        PowerAwareAdmission(execution_model).decide(
            queue, budget_w=500.0, nodes_available=10
        )
        assert queue.admitted_count() == 1
        assert [r.name for r in queue.pending()] == ["b"]
        with pytest.raises(ValueError, match="not pending"):
            queue.admit("a")

    def test_dry_run_leaves_queue_untouched(self, execution_model):
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=100.0))
        PowerAwareAdmission(execution_model).decide(
            queue, budget_w=500.0, nodes_available=10, mark=False
        )
        assert [r.name for r in queue.pending()] == ["a"]
        assert queue.admitted_count() == 0

    def test_arrival_admitted_past_a_blocked_head(self):
        # A running job holds 8 of 12 hosts, so an 8-host head waits; a
        # 2-host tail arriving at that unchanged capacity backfills past
        # it through the rolling engine's full admission pass.
        def request(name, nodes, iterations):
            return JobRequest(name=name, config=KernelConfig(intensity=8.0),
                              node_count=nodes, iterations=iterations,
                              power_hint_w=100.0)

        engine = SiteStreamEngine(
            Cluster(node_count=12, variation=None, seed=0),
            create_policy("StaticCaps"), 2500.0,
        )
        engine.attach_source(iter([
            Arrival(0.0, request("running", 8, 200)),
            Arrival(0.1, request("head", 8, 10)),
            Arrival(0.2, request("tail", 2, 10)),
        ]))
        engine.run()
        batches = {b.admitted: b for b in engine.batches}
        tail = batches[("tail",)]
        assert tail.start_s == 0.2
        assert tail.deferred == ("head",)
        assert batches[("head",)].start_s >= batches[("running",)].end_s
        assert engine.queue.completed == 3

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            PowerAwareAdmission(safety_margin=1.0)

    def test_rejects_negative_nodes(self, execution_model):
        queue = JobQueue()
        with pytest.raises(ValueError):
            PowerAwareAdmission(execution_model).decide(
                queue, budget_w=100.0, nodes_available=-1
            )


class TestFeasibleJudgesUsableBudget:
    def test_feasible_uses_margined_budget_not_raw(self, execution_model):
        """Regression: feasible() once compared against the raw budget, so
        a decision that consumed its safety head-room passed silently."""
        queue = JobQueue()
        queue.submit(_request("a", nodes=2, hint=200.0))
        decision = PowerAwareAdmission(
            execution_model, safety_margin=0.5
        ).decide(queue, budget_w=1000.0, nodes_available=10)
        # 400 W fits under usable 500 W; judged against usable, not 1000.
        assert decision.usable_budget_w == pytest.approx(500.0)
        assert decision.safety_margin == 0.5
        assert decision.feasible()

    def test_overfull_decision_reported_infeasible(self, execution_model):
        """A decision whose admitted power exceeds the margined budget must
        say so, even while under the raw budget."""
        from repro.manager.admission import AdmissionDecision

        decision = AdmissionDecision(
            admitted=("a",), deferred=(), estimates_w={"a": 950.0},
            budget_w=1000.0, nodes_available=10, admitted_nodes=1,
            safety_margin=0.1,
        )
        assert decision.admitted_power_w <= decision.budget_w
        assert not decision.feasible()


class TestStarvationBound:
    def test_blocked_head_gains_reservation(self, execution_model):
        """EASY backfill stops jumping a head that has been bypassed
        max_bypass_rounds times: the starved job eventually runs."""
        admission = PowerAwareAdmission(
            execution_model, max_bypass_rounds=3, safety_margin=0.0
        )
        # The head needs 6 nodes; only 4 are ever available, so small
        # jobs backfill past it every round.
        rounds_until_reserved = None
        for round_index in range(6):
            queue = JobQueue()
            queue.submit(_request("head", nodes=6, hint=200.0))
            queue.submit(_request(f"small-{round_index}", nodes=2,
                                  hint=200.0))
            decision = admission.decide(
                queue, budget_w=5000.0, nodes_available=4
            )
            if decision.reserved_head:
                rounds_until_reserved = round_index
                break
            assert decision.admitted == (f"small-{round_index}",)
        # Bypassed on rounds 0-2; round 3 holds the reservation.
        assert rounds_until_reserved == 3
        assert decision.admitted == ()
        assert decision.deferred[0] == "head"

    def test_reservation_clears_once_head_runs(self, execution_model):
        admission = PowerAwareAdmission(
            execution_model, max_bypass_rounds=1, safety_margin=0.0
        )
        queue = JobQueue()
        queue.submit(_request("head", nodes=6, hint=200.0))
        queue.submit(_request("small", nodes=2, hint=200.0))
        first = admission.decide(queue, budget_w=5000.0, nodes_available=4)
        assert first.admitted == ("small",)
        # Head now fits: reservation held, then cleared by admission.
        second = admission.decide(queue, budget_w=5000.0, nodes_available=6)
        assert second.admitted == ("head",)
        assert second.reserved_head
        queue2 = JobQueue()
        queue2.submit(_request("next-head", nodes=2, hint=200.0))
        third = admission.decide(queue2, budget_w=5000.0, nodes_available=6)
        assert not third.reserved_head

    def test_dry_runs_do_not_age_the_bound(self, execution_model):
        admission = PowerAwareAdmission(
            execution_model, max_bypass_rounds=1, safety_margin=0.0
        )
        queue = JobQueue()
        queue.submit(_request("head", nodes=6, hint=200.0))
        queue.submit(_request("small", nodes=2, hint=200.0))
        for _ in range(5):
            probe = admission.decide(
                queue, budget_w=5000.0, nodes_available=4, mark=False
            )
            assert not probe.reserved_head
        # The head's allowance is untouched by dry runs.
        marked = admission.decide(queue, budget_w=5000.0, nodes_available=4)
        assert marked.admitted == ("small",)
        assert not marked.reserved_head

    def test_unbounded_bypass_when_disabled(self, execution_model):
        admission = PowerAwareAdmission(
            execution_model, max_bypass_rounds=None, safety_margin=0.0
        )
        for round_index in range(10):
            queue = JobQueue()
            queue.submit(_request("head", nodes=6, hint=200.0))
            queue.submit(_request(f"s-{round_index}", nodes=2, hint=200.0))
            decision = admission.decide(
                queue, budget_w=5000.0, nodes_available=4
            )
            assert decision.admitted == (f"s-{round_index}",)
            assert not decision.reserved_head

    def test_rejects_bad_bypass_bound(self, execution_model):
        with pytest.raises(ValueError, match="max_bypass_rounds"):
            PowerAwareAdmission(execution_model, max_bypass_rounds=0)


class TestEstimateCache:
    def test_shared_shapes_characterized_once(self, execution_model):
        """A million-arrival stream of a few job classes must not
        characterize per job: the cache keys on (config, nodes)."""
        admission = PowerAwareAdmission(execution_model)
        first = admission.estimate_job_power_w(_request("a", nodes=4))
        assert len(admission._estimate_cache) == 1
        second = admission.estimate_job_power_w(_request("b", nodes=4))
        assert second == first
        assert len(admission._estimate_cache) == 1
        admission.estimate_job_power_w(_request("c", nodes=6))
        assert len(admission._estimate_cache) == 2

    def test_hints_bypass_the_cache(self, execution_model):
        admission = PowerAwareAdmission(execution_model)
        admission.estimate_job_power_w(_request("a", nodes=4, hint=150.0))
        assert admission._estimate_cache == {}


class TestRaplFloorBound:
    def test_estimates_never_below_the_rapl_floor(self, execution_model):
        """Regression: a low user hint (e.g. 120 W/node, below the 136 W
        RAPL floor) let admission admit a set the allocator could not
        legally cap down to, and the launch blew up mid-simulation."""
        admission = PowerAwareAdmission(execution_model)
        floor_w = execution_model.power_model.min_cap_w
        estimate = admission.estimate_job_power_w(
            _request("low", nodes=7, hint=120.0)
        )
        assert estimate == 7 * floor_w

    def test_below_floor_budget_defers_instead_of_admitting(
            self, execution_model):
        admission = PowerAwareAdmission(execution_model)
        queue = JobQueue()
        queue.submit(_request("low", nodes=7, hint=120.0))
        decision = admission.decide(
            queue, budget_w=900.0, nodes_available=12
        )
        assert decision.admitted == ()
        assert decision.deferred == ("low",)
