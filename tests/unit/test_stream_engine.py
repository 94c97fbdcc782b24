"""Unit tests: the discrete-event core and the rolling stream engine."""

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.stream.arrivals import (
    burst_stream,
    poisson_stream,
    replay_stream,
    synthetic_job_factory,
)
from repro.stream.engine import SiteStreamEngine, stream_site_simulation
from repro.stream.events import EventKind, EventLoop
from repro.workload.kernel import KernelConfig


@pytest.fixture()
def cluster():
    return Cluster(node_count=12, variation=None, seed=0)


def _engine(cluster, **kwargs):
    kwargs.setdefault("rolling", True)
    return SiteStreamEngine(
        cluster, create_policy("StaticCaps"), 2500.0, **kwargs
    )


def _request(name, nodes=4, hint=180.0, iterations=10):
    return JobRequest(
        name=name, config=KernelConfig(intensity=8.0),
        node_count=nodes, iterations=iterations, power_hint_w=hint,
    )


class TestEventLoop:
    def test_orders_by_time(self):
        loop = EventLoop()
        loop.push(5.0, EventKind.ARRIVAL, tag="late")
        loop.push(1.0, EventKind.ARRIVAL, tag="early")
        loop.push(3.0, EventKind.ARRIVAL, tag="middle")
        tags = [loop.pop().payload["tag"] for _ in range(3)]
        assert tags == ["early", "middle", "late"]

    def test_kind_priority_breaks_time_ties(self):
        """At one instant: budget applies, completions free capacity,
        arrivals land, telemetry observes — in that order."""
        loop = EventLoop()
        loop.push(2.0, EventKind.TELEMETRY_TICK)
        loop.push(2.0, EventKind.ARRIVAL)
        loop.push(2.0, EventKind.BATCH_COMPLETE)
        loop.push(2.0, EventKind.BUDGET_CHANGE)
        kinds = [loop.pop().kind for _ in range(4)]
        assert kinds == [
            EventKind.BUDGET_CHANGE, EventKind.BATCH_COMPLETE,
            EventKind.ARRIVAL, EventKind.TELEMETRY_TICK,
        ]

    def test_sequence_preserves_submission_order(self):
        loop = EventLoop()
        for i in range(5):
            loop.push(1.0, EventKind.ARRIVAL, index=i)
        order = [loop.pop().payload["index"] for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_pop_empty_raises(self):
        loop = EventLoop()
        assert loop.peek() is None
        assert loop.peek_time() is None
        with pytest.raises(IndexError):
            loop.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().push(-1.0, EventKind.ARRIVAL)


class TestArrivalStreams:
    def test_replay_stream_sorts(self):
        arrivals = [
            Arrival(time_s=3.0, request=_request("b")),
            Arrival(time_s=1.0, request=_request("a")),
        ]
        assert [a.request.name for a in replay_stream(arrivals)] == ["a", "b"]

    def test_poisson_stream_rate_and_window(self):
        arrivals = list(poisson_stream(
            2.0, 500.0, synthetic_job_factory(), seed=1
        ))
        assert all(0.0 < a.time_s < 500.0 for a in arrivals)
        assert [a.request.name for a in arrivals[:2]] == \
            ["stream-0", "stream-1"]
        # Law of large numbers, loosely: ~1000 arrivals expected.
        assert 800 < len(arrivals) < 1200

    def test_poisson_stream_deterministic_per_seed(self):
        factory = synthetic_job_factory()
        a = [x.time_s for x in poisson_stream(1.0, 50.0, factory, seed=9)]
        b = [x.time_s for x in poisson_stream(1.0, 50.0, factory, seed=9)]
        assert a == b

    def test_burst_stream_shape(self):
        arrivals = list(burst_stream(3, 10.0, 2, synthetic_job_factory()))
        assert len(arrivals) == 6
        assert [a.time_s for a in arrivals] == [0.0] * 3 + [10.0] * 3


class TestRollingEngine:
    def test_sustained_stream_completes_everything(self, cluster):
        engine = _engine(cluster)
        engine.attach_source(poisson_stream(
            0.5, 60.0, synthetic_job_factory(), seed=2
        ))
        stats = engine.run()
        assert stats.arrivals > 0
        assert stats.jobs_completed == stats.arrivals
        assert stats.rejected == 0
        assert not engine.queue.pending()

    def test_backpressure_rejects_past_max_pending(self, cluster):
        engine = _engine(cluster, max_pending=4)
        engine.attach_source(burst_stream(
            20, 1.0, 1, synthetic_job_factory(node_count=4)
        ))
        stats = engine.run()
        assert stats.rejected > 0
        assert stats.arrivals == 20
        assert stats.peak_pending <= 4
        # Rejected jobs are rejected, not lost track of: accepted ones
        # all complete.
        assert stats.jobs_completed == 20 - stats.rejected

    def test_mid_stream_budget_change_applies(self, cluster):
        """A budget drop mid-stream shrinks concurrent admission."""
        lo = _engine(cluster, record_batches=True)
        lo.attach_source(burst_stream(
            6, 1.0, 1, synthetic_job_factory(node_count=4, power_hint_w=200.0)
        ))
        lo.set_budget(850.0, time_s=0.0)
        lo.run()
        # 850 W usable admits one 800 W job at a time (4 nodes x 200 W).
        assert lo.stats.peak_in_flight == 1
        hi = _engine(cluster, record_batches=True)
        hi.attach_source(burst_stream(
            6, 1.0, 1, synthetic_job_factory(node_count=4, power_hint_w=200.0)
        ))
        hi.run()
        assert hi.stats.peak_in_flight > 1
        # Every batch was launched within the budget in force.
        assert all(b.budget_w <= 850.0 + 1e-6 for b in lo.batches)

    def test_budget_raise_mid_stream_unblocks(self, cluster):
        engine = _engine(cluster)
        engine.attach_source(burst_stream(
            4, 1.0, 1, synthetic_job_factory(node_count=4, power_hint_w=200.0)
        ))
        engine.set_budget(850.0, time_s=0.0)
        engine.set_budget(3000.0, time_s=5.0)
        stats = engine.run()
        assert stats.jobs_completed == 4
        assert engine.budget_w == 3000.0

    def test_bounded_memory_forgets_terminal_jobs(self, cluster):
        engine = _engine(cluster, record_jobs=False, record_batches=False)
        engine.attach_source(poisson_stream(
            1.0, 120.0, synthetic_job_factory(), seed=3
        ))
        stats = engine.run()
        assert stats.jobs_completed > 0
        # Terminal jobs were forgotten, aggregates kept.
        assert len(engine.queue) == 0
        assert engine.batches == []
        assert engine.turnaround_s == {}
        assert stats.peak_tracked_jobs < stats.arrivals
        assert stats.mean_turnaround_s() > 0.0

    def test_unschedulable_head_fails_not_livelocks(self, cluster):
        engine = _engine(cluster)
        engine.submit(_request("whale", nodes=24))
        engine.submit(_request("ok", nodes=4))
        stats = engine.run()
        assert stats.jobs_failed == 1
        assert "whale" in engine.failed
        assert stats.jobs_completed == 1

    def test_submit_clamps_into_the_present(self, cluster):
        engine = _engine(cluster)
        engine.submit(_request("early"))
        engine.run()
        assert engine.clock > 0.0
        t = engine.submit(_request("past"), time_s=0.0)
        assert t == engine.clock

    def test_telemetry_ticks_fire_and_stop(self, cluster):
        from repro import telemetry

        engine = _engine(cluster, tick_interval_s=5.0)
        engine.attach_source(burst_stream(
            3, 1.0, 1, synthetic_job_factory(node_count=4)
        ))
        ticks = []
        token = telemetry.get_bus().subscribe(
            ticks.append, kinds=["tick"], sources=["stream.engine"]
        )
        try:
            engine.run()
        finally:
            telemetry.get_bus().unsubscribe(token)
        assert ticks, "no telemetry ticks observed"
        assert not engine.loop, "ticks must not keep the timeline alive"

    def test_run_requires_rolling_and_replay_requires_drain(self, cluster):
        with pytest.raises(ValueError):
            _engine(cluster, rolling=False).run()
        with pytest.raises(ValueError):
            _engine(cluster, rolling=True).replay()

    def test_reservations_respect_budget(self, cluster):
        """Sum of concurrent batch budgets never exceeds the facility
        budget in force at their launches."""
        engine = _engine(cluster, record_batches=True)
        engine.attach_source(burst_stream(
            8, 1.0, 1, synthetic_job_factory(node_count=2, power_hint_w=220.0)
        ))
        engine.run()
        assert engine.stats.peak_in_flight >= 2
        assert all(b.budget_w <= 2500.0 + 1e-6 for b in engine.batches)


class TestReplayEdgeCases:
    def test_empty_arrivals_rejected(self, cluster):
        with pytest.raises(ValueError, match="at least one arrival"):
            stream_site_simulation(
                [], cluster, create_policy("StaticCaps"), 2500.0
            )

    def test_replay_hands_every_arrival_to_the_shift_loop(self, cluster):
        # Submitted and sourced arrivals alike reach run_site_simulation,
        # run with the engine's settings.
        engine = _engine(cluster, rolling=False, run_seed=5)
        engine.submit(_request("early"), time_s=0.0)
        engine.attach_source(iter([Arrival(1.0, _request("late"))]))
        result = engine.replay(max_rounds=10)
        expected = run_site_simulation(
            [Arrival(0.0, _request("early")), Arrival(1.0, _request("late"))],
            cluster, create_policy("StaticCaps"), 2500.0, max_batches=10,
            run_seed=5,
        )
        assert result == expected
        assert set(result.completed) == {"early", "late"}

    def test_attach_source_twice_rejected(self, cluster):
        engine = _engine(cluster)
        engine.attach_source(burst_stream(
            1, 1.0, 1, synthetic_job_factory()
        ))
        with pytest.raises(ValueError, match="already attached"):
            engine.attach_source(burst_stream(
                1, 1.0, 1, synthetic_job_factory()
            ))


class TestEventRepush:
    def test_repush_rearms_a_delivered_event(self):
        loop = EventLoop()
        event = loop.push(1.0, EventKind.ARRIVAL, name="a")
        popped = loop.pop()
        assert popped is event
        loop.repush(popped, 4.0)
        again = loop.pop()
        assert again is event
        assert again.time_s == 4.0
        assert again.payload == {"name": "a"}

    def test_repush_keeps_kind_priority(self):
        loop = EventLoop()
        arrival = loop.push(1.0, EventKind.ARRIVAL)
        loop.pop()
        loop.repush(arrival, 2.0)
        loop.push(2.0, EventKind.BATCH_COMPLETE)
        assert loop.pop().kind is EventKind.BATCH_COMPLETE
        assert loop.pop() is arrival


class TestBatchedPhysicsKnobs:
    def test_knobs_require_rolling(self, cluster):
        for kwargs in (
            {"per_job_batches": True},
            {"admission_interval_s": 2.0},
        ):
            with pytest.raises(ValueError, match="rolling"):
                _engine(cluster, rolling=False, **kwargs)

    def test_admission_interval_must_be_positive(self, cluster):
        with pytest.raises(ValueError):
            _engine(cluster, admission_interval_s=0.0)
        with pytest.raises(ValueError):
            _engine(cluster, admission_interval_s=-1.0)

    def test_quantised_admission_piles_up_concurrency(self, cluster):
        engine = _engine(
            cluster, admission_interval_s=2.0, per_job_batches=True,
        )
        engine.attach_source(burst_stream(
            5, 0.5, 2, synthetic_job_factory(node_count=2, power_hint_w=120.0)
        ))
        stats = engine.run()
        assert stats.jobs_completed == 10
        assert stats.peak_in_flight >= 2
