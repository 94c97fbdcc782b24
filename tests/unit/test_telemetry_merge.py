"""Unit tests for cross-process telemetry state merging.

Workers capture their registry/bus deltas with ``state()`` /
``events()``; the parent folds them back with ``merge_state()`` /
``replay()``.  These tests pin the exactness guarantees that makes a
pooled run as observable as a serial one.
"""

import numpy as np
import pytest

from repro.telemetry.context import isolate
from repro.telemetry.events import Event, EventBus
from repro.telemetry.metrics import Histogram, MetricsRegistry


class TestHistogramState:
    def test_roundtrip_exact_stats(self):
        source = Histogram()
        for value in [1.0, 2.0, 3.5, 0.25]:
            source.observe(value)
        target = Histogram()
        target.merge_state(source.state())
        assert target.count == source.count
        assert target.mean == source.mean
        assert target.snapshot().min == 0.25
        assert target.snapshot().max == 3.5

    def test_merge_accumulates_two_workers(self):
        worker_a, worker_b = Histogram(), Histogram()
        for v in range(10):
            worker_a.observe(float(v))
        for v in range(10, 30):
            worker_b.observe(float(v))
        parent = Histogram()
        parent.merge_state(worker_a.state())
        parent.merge_state(worker_b.state())
        assert parent.count == 30
        assert parent.mean == pytest.approx(np.mean(np.arange(30.0)))
        assert parent.snapshot().min == 0.0
        assert parent.snapshot().max == 29.0

    def test_merge_beyond_reservoir_keeps_exact_count(self):
        big_state = Histogram(reservoir_size=8)
        for v in range(100):
            big_state.observe(float(v))
        # A one-slot reservoir used to divide by zero when downsampling.
        for reservoir_size in (8, 1):
            small = Histogram(reservoir_size=reservoir_size)
            small.observe(0.0)
            small.merge_state(big_state.state())
            small.merge_state(big_state.state())
            assert small.count == 201
            # quantiles stay within the observed range after downsampling
            assert 0.0 <= small.quantile(0.5) <= 99.0

    def test_merge_empty_state_is_noop(self):
        histogram = Histogram()
        histogram.observe(2.0)
        empty = Histogram()
        histogram.merge_state(empty.state())
        assert histogram.count == 1


class TestRegistryMerge:
    def test_counters_gauges_histograms_fold_in(self):
        worker = MetricsRegistry()
        worker.counter("cells").inc(5)
        worker.gauge("workers").set(4)
        worker.histogram("cell_s").observe(0.25)
        parent = MetricsRegistry()
        parent.counter("cells").inc(2)
        parent.merge_state(worker.state())
        assert parent.counter("cells").value == 7
        assert parent.gauge("workers").value == 4
        assert parent.histogram("cell_s").count == 1

    def test_merge_creates_missing_metrics(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("only.in.worker").inc()
        parent.merge_state(worker.state())
        assert parent.counter("only.in.worker").value == 1

    def test_gauges_merge_as_peak_not_last_writer(self):
        # Regression: per-worker occupancy gauges used to be overwritten
        # by whichever worker's state merged last, so a low-water final
        # value silently replaced the true peak.
        parent = MetricsRegistry()
        parent.gauge("active_runs").set(3)
        busy, idle = MetricsRegistry(), MetricsRegistry()
        busy.gauge("active_runs").set(7)
        idle.gauge("active_runs").set(1)
        parent.merge_state(busy.state())
        parent.merge_state(idle.state())  # later, lower value
        assert parent.gauge("active_runs").value == 7

    def test_gauge_merge_creates_missing_gauge_at_shipped_value(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.gauge("depth").set(2)
        parent.merge_state(worker.state())
        assert parent.gauge("depth").value == 2

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
        worker.publish("sim", "start", cell=1)
        worker.publish("sim", "done", cell=1)
        parent = EventBus()
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
        worker.publish("sim", "start")
        worker.publish("sim", "done")
        parent.replay(worker.events())
        assert seen == ["done"]

    def test_replay_accepts_reconstructed_events(self):
        parent = EventBus()
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
