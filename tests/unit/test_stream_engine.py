"""Unit tests: the discrete-event core and the stream engine."""

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import (
    Arrival,
    execute_planned_batches,
    run_site_simulation,
)
from repro.stream.arrivals import (
    poisson_stream,
    replay_stream,
    synthetic_job_factory,
)
from repro.stream.engine import SerialSiteEngine, SiteStreamEngine, StreamStats
from repro.stream.events import EventKind, EventLoop
from repro.workload.kernel import KernelConfig
from tests.property.generators import burst_stream


@pytest.fixture()
def cluster():
    return Cluster(node_count=12, variation=None, seed=0)


def _engine(cluster, **kwargs):
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
        with pytest.raises(IndexError):
            EventLoop().pop()

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

    @pytest.mark.parametrize("name", ["ok", "whale"])
    def test_ended_name_cannot_be_resubmitted(self, cluster, name):
        # With record_jobs on, the engine keeps the record of every
        # completed ("ok") and failed ("whale") job, so neither name can
        # arrive again.
        engine = _engine(cluster)
        engine.submit(_request("whale", nodes=24))
        engine.submit(_request("ok", nodes=4))
        engine.run()
        assert list(engine.turnaround_s) == ["ok"]
        assert list(engine.failed) == ["whale"]
        engine.submit(_request(name))
        with pytest.raises(ValueError, match=f"job '{name}' already ended"):
            engine.run()

    @pytest.mark.parametrize("interval", [None, 1.0])
    @pytest.mark.parametrize("record_jobs", [True, False])
    def test_whole_horizon_outage_fails_stranded_jobs(self, interval,
                                                      record_jobs):
        # Every host fails at t=0 and never recovers: no job can ever be
        # admitted, so when the timeline drains the pending jobs fail as
        # unschedulable, as the batch shift loop reports them.
        from repro import telemetry
        from repro.faults.schedule import FaultSchedule

        outage = FaultSchedule(name="outage").node_failure(0.0, range(16))
        cluster = Cluster(node_count=16, variation=None, seed=0)
        arrivals = [Arrival(float(i), _request(f"j{i}")) for i in range(6)]
        engine = _engine(cluster, fault_schedule=outage,
                         admission_interval_s=interval,
                         record_jobs=record_jobs, tick_interval_s=2.0)
        engine.attach_source(iter(arrivals))
        failed = []
        token = telemetry.get_bus().subscribe(
            failed.append, kinds=["job_failed"], sources=["stream.engine"]
        )
        try:
            stats = engine.run()
        finally:
            telemetry.get_bus().unsubscribe(token)
        assert stats.arrivals == 6
        assert stats.jobs_failed == 6 and stats.jobs_completed == 0
        assert engine.queue.pending_count() == 0
        assert len(failed) == 6
        assert not engine.loop
        if record_jobs:
            shift = run_site_simulation(
                arrivals, cluster, create_policy("StaticCaps"), 2500.0,
                fault_schedule=outage,
            )
            assert sorted(engine.failed) == sorted(shift.never_admitted)
        else:
            assert len(engine.queue) == 0

    def test_engines_sharing_arrivals_both_conserve_jobs(self, cluster):
        # Each engine's queue owns the lifecycle of the caller's
        # immutable requests: a second rolling engine fed the same
        # arrival list sees every job again.
        arrivals = [Arrival(float(i), _request(f"j{i}")) for i in range(3)]
        for _ in range(2):
            engine = _engine(cluster)
            engine.attach_source(iter(arrivals))
            stats = engine.run()
            assert stats.arrivals == 3
            assert stats.jobs_completed == 3
            assert stats.jobs_failed == 0 and stats.rejected == 0
            assert engine.queue.submitted == engine.queue.completed == 3
        assert [a.request for a in arrivals] == \
            [_request(f"j{i}") for i in range(3)]

    @pytest.mark.parametrize("record_jobs", [True, False])
    def test_queue_counters_match_stats(self, cluster, record_jobs):
        # Completions, an unschedulable job and backpressure rejections:
        # the queue's counters agree with the stats, and nothing is left
        # pending or admitted once the timeline drains.
        arrivals = [Arrival(0.01 * i, _request(f"j{i}")) for i in range(12)]
        arrivals.insert(3, Arrival(0.025, _request("huge", nodes=20)))
        engine = _engine(cluster, max_pending=4, record_jobs=record_jobs)
        engine.attach_source(iter(arrivals))
        stats = engine.run()
        queue = engine.queue
        assert stats.jobs_completed > 0 and stats.rejected > 0
        assert queue.failed == stats.jobs_failed >= 1
        assert queue.completed == stats.jobs_completed
        assert queue.submitted == stats.arrivals - stats.rejected
        assert queue.pending_count() == queue.admitted_count() == 0

    def test_budget_below_summed_floor_admits_nothing(self, cluster):
        # One watt under four nodes' RAPL floor: no 4-node job can ever
        # be funded.  The shift loop reports every job never-admitted
        # without running a batch; the rolling engine fails every job
        # when its timeline drains.  Both conserve jobs.
        budget_w = 4 * 136.0 - 1.0
        arrivals = [Arrival(float(i), _request(f"j{i}")) for i in range(5)]
        shift = run_site_simulation(
            arrivals, cluster, create_policy("StaticCaps"), budget_w,
        )
        assert shift.batches == ()
        assert sorted(shift.never_admitted) == [f"j{i}" for i in range(5)]
        assert shift.truncated == ()
        engine = SiteStreamEngine(
            cluster, create_policy("StaticCaps"), budget_w,
        )
        engine.attach_source(iter(arrivals))
        stats = engine.run()
        assert stats.arrivals == 5
        assert stats.jobs_failed == 5
        assert stats.jobs_completed == 0 and stats.rejected == 0
        assert stats.batches == 0

    def test_max_events_keeps_pending_jobs_queued(self, cluster):
        from repro.faults.schedule import FaultSchedule

        outage = FaultSchedule(name="outage").node_failure(0.0, range(12))
        engine = _engine(cluster, fault_schedule=outage)
        engine.attach_source(iter(
            [Arrival(float(i), _request(f"j{i}")) for i in range(6)]
        ))
        stats = engine.run(max_events=3)
        assert stats.jobs_failed == 0
        assert engine.queue.pending_count() > 0
        stats = engine.run()
        assert stats.jobs_failed == 6
        assert engine.queue.pending_count() == 0

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
        # Each tick carries the queue levels; StreamStats (which the
        # stream digest hashes) does not.
        for tick in ticks:
            assert 0 <= tick.payload["pending"] <= tick.payload["peak_pending"]
            assert 0 <= tick.payload["in_flight"] \
                <= tick.payload["peak_in_flight"]
        assert not {"pending", "in_flight"} & set(engine.stats.snapshot())

    def test_rolling_false_is_rejected(self, cluster):
        with pytest.raises(ValueError, match="rolling only"):
            _engine(cluster, rolling=False)
        assert _engine(cluster, rolling=True).run() == StreamStats()

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
    def test_empty_arrivals_give_an_empty_shift(self, cluster):
        """An empty stream is an empty shift, as an idle rolling engine
        returns empty stats — not an error."""
        result = run_site_simulation(
            [], cluster, create_policy("StaticCaps"), 2500.0
        )
        assert result.batches == ()
        assert result.completed == ()
        assert result.never_admitted == ()
        assert result.truncated == ()
        assert result.makespan_s == 0.0
        assert result.peak_power_w() == 0.0
        assert _engine(cluster).run() == StreamStats()

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


class TestSerialEngine:
    def test_rolling_knobs_rejected(self, cluster):
        for kwargs in (
            {"per_job_batches": True},
            {"admission_interval_s": 2.0},
        ):
            with pytest.raises(ValueError, match="serial"):
                SerialSiteEngine(cluster, create_policy("StaticCaps"),
                                 2500.0, **kwargs)

    def test_result_matches_run_site_simulation(self, cluster):
        arrivals = [Arrival(float(i), _request(f"j{i}")) for i in range(4)]
        engine = SerialSiteEngine(cluster, create_policy("StaticCaps"),
                                  2500.0, run_seed=3)
        engine.attach_source(iter(arrivals))
        stats = engine.run()
        assert stats.jobs_completed == 4
        assert engine.result == run_site_simulation(
            arrivals, cluster, create_policy("StaticCaps"), 2500.0,
            run_seed=3,
        )

    def test_no_admission_flush_after_max_batches(self, cluster):
        # Spaced arrivals each land on an idle cluster.  Once max_batches
        # batches have launched, arrivals arm no more ADMISSION flushes,
        # and every job not launched ends truncated.
        arrivals = [Arrival(100.0 * i, _request(f"j{i}")) for i in range(60)]
        engine = SerialSiteEngine(cluster, create_policy("StaticCaps"),
                                  2500.0, max_batches=2)
        engine.attach_source(iter(arrivals))
        passes = engine.passes()
        try:
            planned = next(passes)
            while True:
                planned = passes.send(execute_planned_batches(
                    [planned], engine.manager, engine.noise_std))
        except StopIteration as stop:
            kind_counts = stop.value
        assert kind_counts[EventKind.ARRIVAL] == 60
        assert kind_counts[EventKind.ADMISSION] == 2
        assert engine.stats.batches == 2
        assert engine.result.completed == ("j0", "j1")
        assert engine.result.truncated == tuple(f"j{i}" for i in range(2, 60))

