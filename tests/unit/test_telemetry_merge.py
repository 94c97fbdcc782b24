"""Unit tests for cross-process telemetry state merging.

Workers capture their registry/bus deltas with ``state()`` /
``events()``; the parent folds them back with ``merge_state()`` /
``replay()``.  These tests pin the exactness guarantees that makes a
pooled run as observable as a serial one.  Events ship only from a
recording worker, so the event tests publish inside ``recording()``.
"""

from repro.telemetry.context import isolate
from repro.telemetry.events import Event, EventBus, recording
from repro.telemetry.metrics import MetricsRegistry


class TestRegistryMerge:
    def test_counters_fold_in_by_addition(self):
        worker = MetricsRegistry()
        worker.counter("cells").inc(5)
        parent = MetricsRegistry()
        parent.counter("cells").inc(2)
        parent.merge_state(worker.state())
        assert worker.state() == {"counters": {"cells": 5.0}}
        assert parent.counter("cells").value == 7

    def test_merge_creates_missing_metrics(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("only.in.worker").inc()
        parent.merge_state(worker.state())
        assert parent.counter("only.in.worker").value == 1

    def test_labelled_metrics_keep_labels(self):
        worker = MetricsRegistry()
        worker.counter("cells", mix="LowPower").inc(3)
        parent = MetricsRegistry()
        parent.merge_state(worker.state())
        assert parent.counter("cells", mix="LowPower").value == 3
        assert parent.counter("cells", mix="HighPower").value == 0


class TestEventReplay:
    def test_replay_preserves_order_and_timestamps(self):
        worker = EventBus()
        parent = EventBus()
        with recording():
            worker.publish("sim", "start", cell=1)
            worker.publish("sim", "done", cell=1)
            parent.replay(worker.events())
        replayed = parent.events()
        assert [e.kind for e in replayed] == ["start", "done"]
        assert [e.ts for e in replayed] == [
            e.ts for e in worker.events()
        ]

    def test_replay_fires_subscribers_with_filters(self):
        parent = EventBus()
        seen = []
        parent.subscribe(lambda e: seen.append(e.kind), kinds=["done"])
        worker = EventBus()
        with recording():
            worker.publish("sim", "start")
            worker.publish("sim", "done")
        # The parent is not recording: subscribers fire, the ring stays
        # empty.
        parent.replay(worker.events())
        assert seen == ["done"]
        assert parent.events() == []

    def test_replay_accepts_reconstructed_events(self):
        parent = EventBus()
        with recording():
            parent.replay([Event(ts=12.5, source="w", kind="k",
                                 payload={"a": 1})])
        assert parent.events()[0].ts == 12.5


class TestIsolate:
    def test_isolate_installs_fresh_context(self):
        from repro.telemetry import get_bus, get_registry

        registry = get_registry()
        bus = get_bus()
        isolate()
        try:
            assert get_registry() is not registry
            assert get_bus() is not bus
            assert get_bus().subscriber_count == 0
        finally:
            isolate()  # leave a clean context either way
