"""Unit tests for the telemetry subsystem (events, metrics, summary).

A bus keeps its event ring only inside ``recording()``; tests that read
the ring back publish inside one.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry import (
    Event,
    EventBus,
    MetricsRegistry,
    TelemetrySummary,
    metric_key,
    recording,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def bus():
    ticks = iter(range(10_000))
    return EventBus(capacity=16, clock=lambda: float(next(ticks)))


@pytest.fixture(autouse=True)
def _fresh_global_state():
    """Each test starts and ends with pristine global telemetry."""
    telemetry.reset()
    yield
    telemetry.reset()


class TestMetricKey:
    def test_no_labels_is_bare_name(self):
        assert metric_key("a.b.c", {}) == "a.b.c"

    def test_labels_sorted(self):
        key = metric_key("m", {"z": "1", "a": "2"})
        assert key == "m{a=2,z=1}"


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("x").inc(-1.0)

    def test_get_or_create_is_idempotent(self, registry):
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", a="1") is not registry.counter("x")


class TestRegistry:
    def test_len_and_reset(self, registry):
        registry.counter("a")
        registry.counter("b", mix="LowPower")
        assert len(registry) == 2
        registry.reset()
        assert len(registry) == 0

    def test_snapshot_shape(self, registry):
        registry.counter("runs").inc()
        registry.counter("a.first").inc(0.5)
        snap = registry.snapshot()
        assert snap == {"counters": {"a.first": 0.5, "runs": 1.0}}
        assert list(snap["counters"]) == ["a.first", "runs"]


class TestEventBus:
    def test_publish_and_read_back(self, bus):
        with recording():
            bus.publish("layer.comp", "thing_happened", n=3)
        events = bus.events()
        assert len(events) == 1
        assert events[0].source == "layer.comp"
        assert events[0].payload == {"n": 3}

    def test_ring_buffer_drops_oldest(self, bus):
        with recording():
            for i in range(20):
                bus.publish("s", "k", i=i)
        assert len(bus) == 16
        assert bus.events()[0].payload == {"i": 4}

    def test_evictions_counted(self):
        small = EventBus(capacity=2)
        with recording():
            for i in range(5):
                small.publish("s", "k", i=i)
            # Per-source counts cover evicted events too.
            assert small.counts_by_source() == {"s": 5}
            small.replay(small.events())
        assert [e.payload["i"] for e in small.events()] == [3, 4]
        assert small.dropped == 5
        assert small.counts_by_source() == {"s": 7}
        small.clear()
        assert small.dropped == 0
        assert small.counts_by_source() == {}

    def test_subscribers_fire_in_subscription_order(self, bus):
        calls = []
        bus.subscribe(lambda e: calls.append("first"))
        bus.subscribe(lambda e: calls.append("second"))
        bus.publish("s", "k")
        assert calls == ["first", "second"]

    def test_unsubscribe_stops_delivery(self, bus):
        calls = []
        token = bus.subscribe(calls.append)
        bus.publish("s", "k")
        bus.unsubscribe(token)
        bus.publish("s", "k")
        assert len(calls) == 1
        assert bus.subscriber_count == 0

    def test_unsubscribe_unknown_token_raises(self, bus):
        with pytest.raises(KeyError):
            bus.unsubscribe(99)

    def test_kind_and_source_filters(self, bus):
        seen = []
        bus.subscribe(seen.append, kinds=["hit"], sources=["a.b"])
        bus.publish("a.b", "hit")
        bus.publish("a.b", "miss")
        bus.publish("c.d", "hit")
        assert len(seen) == 1

    def test_counts_by_source(self, bus):
        # Counts cover every publish; the ring only the recorded ones.
        bus.publish("a.b", "k")
        bus.publish("e.f", "k")
        with recording():
            bus.publish("a.b", "k")
            bus.publish("c.d", "k")
        assert bus.counts_by_source() == {"a.b": 2, "c.d": 1, "e.f": 1}
        assert bus.sources() == ["a.b", "c.d"]

    def test_jsonl_export(self, bus, tmp_path):
        with recording():
            bus.publish("a.b", "k", x=1.5)
        path = bus.to_jsonl(tmp_path / "events.jsonl")
        row = json.loads(path.read_text().strip())
        assert row == {"ts": 0.0, "source": "a.b", "kind": "k", "x": 1.5}

    def test_csv_export_unions_payload_keys(self, bus, tmp_path):
        with recording():
            bus.publish("a", "k", x=1)
            bus.publish("a", "k", y=2)
        path = bus.to_csv(tmp_path / "events.csv")
        header, first, second = path.read_text().strip().splitlines()
        assert header == "ts,source,kind,x,y"
        assert first.endswith("1,")
        assert second.endswith(",2")

    def test_event_to_json_handles_non_serialisable(self):
        event = Event(ts=0.0, source="s", kind="k",
                      payload={"path": object()})
        assert "path" in json.loads(event.to_json())


class TestContext:
    def test_emit_respects_disable(self):
        with recording():
            telemetry.emit("a.b", "k")
            with telemetry.disabled():
                assert telemetry.emit("a.b", "k") is None
        assert len(telemetry.get_bus().events()) == 1
        assert telemetry.get_bus().counts_by_source() == {"a.b": 1}

    def test_set_enabled_returns_previous(self):
        assert telemetry.set_enabled(False) is True
        assert telemetry.set_enabled(True) is False

    def test_reset_clears_registry_and_bus(self):
        telemetry.get_registry().counter("x").inc()
        with recording():
            telemetry.emit("a.b", "k")
        telemetry.reset()
        assert len(telemetry.get_registry()) == 0
        assert len(telemetry.get_bus().events()) == 0
        assert telemetry.get_bus().counts_by_source() == {}


class TestSummary:
    def test_empty_summary_renders_placeholder(self):
        summary = TelemetrySummary.capture()
        assert summary.empty
        assert "no telemetry" in summary.render()

    def test_capture_rolls_up_registry_and_bus(self):
        telemetry.get_registry().counter("runtime.x.runs").inc(2)
        telemetry.get_registry().counter("runtime.x.epochs").inc(7)
        telemetry.emit("runtime.x", "run_complete")
        summary = TelemetrySummary.capture()
        assert not summary.empty
        assert summary.rows() == [["runtime.x.epochs", "7"],
                                  ["runtime.x.runs", "2"]]
        text = summary.render()
        assert "Metrics snapshot" in text
        assert "runtime.x.runs" in text
        assert "Events by source" in text
        assert summary.event_counts == {"runtime.x": 1}
        assert "Evicted" not in text

    def test_render_reports_ring_drops(self):
        bus = EventBus(capacity=2)
        tracer = telemetry.Tracer(capacity=2)
        with recording():
            for i in range(5):
                bus.publish("s", "k")
                tracer.finish(tracer.start(f"s{i}"))
        summary = TelemetrySummary.capture(bus=bus, tracer=tracer)
        assert (summary.events_dropped, summary.spans_dropped) == (3, 3)
        text = summary.render()
        assert "Evicted by full rings" in text
        assert "events" in text and "spans" in text
