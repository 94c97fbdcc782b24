"""The default telemetry path: exact aggregates, no history.

Outside ``telemetry.recording()`` the pipeline keeps counters, per-source
event counts and per-name span totals, and delivers events to live
subscribers, but builds no ``Event`` for an unread publish and no
``Span`` for a span.  These tests pin that the default path is cheap in
that sense, that it changes no result, and that its aggregates are the
ones a recorded run reports.
"""

import dataclasses
import types
from contextlib import nullcontext

import pytest

from repro import telemetry
from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.stream.arrivals import poisson_stream, synthetic_job_factory
from repro.stream.engine import SiteStreamEngine
from repro.telemetry import events as events_module
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def _fresh_global_state():
    telemetry.reset()
    yield
    telemetry.reset()


def _stream_stats():
    """A small per-job-batch rolling stream run (the ``stream`` shape)."""
    engine = SiteStreamEngine(
        Cluster(node_count=40, variation=None, seed=3),
        create_policy("StaticCaps"), 8750.0,
        run_seed=11, max_pending=16, record_jobs=False,
        record_batches=False, admission_interval_s=4.0,
        per_job_batches=True,
    )
    engine.attach_source(poisson_stream(
        3.6, 60.0, synthetic_job_factory(iterations=40), seed=5))
    return dataclasses.asdict(engine.run())


def _aggregates():
    return (telemetry.get_bus().counts_by_source(),
            telemetry.get_registry().snapshot(),
            {name: row["count"]
             for name, row in telemetry.get_tracer().totals().items()})


def _forbidden(*args, **kwargs):
    raise AssertionError("the default path built a history record")


class TestUnrecordedRun:
    def test_builds_no_event_and_no_span(self, monkeypatch):
        with telemetry.recording():
            recorded = _stream_stats()
        assert telemetry.get_bus().events()
        assert telemetry.get_tracer().finished()
        telemetry.reset()

        monkeypatch.setattr(events_module, "Event", _forbidden)
        monkeypatch.setattr(tracing, "Span", _forbidden)
        unrecorded = _stream_stats()
        assert unrecorded == recorded
        counts, _, span_counts = _aggregates()
        assert counts["manager.site"] > 0
        assert span_counts["stream.engine.admit"] > 0
        assert telemetry.get_bus().events() == []
        assert telemetry.get_tracer().finished() == []

    def test_aggregates_match_a_recorded_run(self):
        _stream_stats()
        unrecorded = _aggregates()
        telemetry.reset()
        with telemetry.recording():
            _stream_stats()
        recorded = _aggregates()
        assert unrecorded == recorded
        assert all(unrecorded)

    def test_subscriber_sees_every_event_and_the_ring_stays_empty(self):
        seen = []
        bus = telemetry.get_bus()
        token = bus.subscribe(seen.append)
        try:
            _stream_stats()
        finally:
            bus.unsubscribe(token)
        assert len(seen) == sum(bus.counts_by_source().values()) > 0
        assert {e.source for e in seen} == set(bus.counts_by_source())
        assert len(bus) == 0 and bus.events() == []


class TestUnreadBatchEvents:
    """``finish_planned_batch`` counts a pass's unread ``batch_complete``
    events in one step; a reader still gets each one, whole."""

    PAYLOAD = {"batch", "policy", "admitted", "deferred", "duration_s",
               "mean_power_w", "utilization"}

    def test_counts_match_a_subscribed_run(self):
        _stream_stats()
        unread = telemetry.get_bus().counts_by_source()
        telemetry.reset()
        seen = []
        bus = telemetry.get_bus()
        token = bus.subscribe(seen.append, kinds=["batch_complete"])
        try:
            _stream_stats()
        finally:
            bus.unsubscribe(token)
        assert bus.counts_by_source() == unread
        assert len(seen) == unread["manager.site"] > 0
        assert all(set(e.payload) == self.PAYLOAD for e in seen)
        assert [e.payload["batch"] for e in seen] == sorted(
            e.payload["batch"] for e in seen)

    def test_disabled_counts_nothing(self):
        with telemetry.disabled():
            _stream_stats()
        assert "manager.site" not in telemetry.get_bus().counts_by_source()


class TestTotalsOnlySpans:
    #: perf_counter readings in call order: outer enters at 0, inner
    #: spans run [1, 3] and [4, 8], outer exits at 10.
    TICKS = (0.0, 1.0, 3.0, 4.0, 8.0, 10.0)

    def _nested(self, monkeypatch, record):
        ticks = iter(self.TICKS)
        monkeypatch.setattr(tracing, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks), process_time=lambda: 0.0,
            time=lambda: 0.0))
        tracer = tracing.Tracer()
        monkeypatch.setattr(tracing, "_tracer", tracer)
        with telemetry.recording() if record else nullcontext():
            with tracing.span("outer") as outer:
                for _ in range(2):
                    with tracing.span("inner"):
                        pass
        assert (outer is None) is (not record)
        return tracer.totals()

    def test_children_charge_the_parent_exactly_as_recorded(self,
                                                            monkeypatch):
        totals = self._nested(monkeypatch, record=False)
        assert totals == self._nested(monkeypatch, record=True)
        assert totals["outer"] == {"count": 1, "wall_s": 10.0,
                                   "self_s": 4.0, "cpu_s": 0.0}
        assert totals["inner"] == {"count": 2, "wall_s": 6.0,
                                   "self_s": 6.0, "cpu_s": 0.0}
