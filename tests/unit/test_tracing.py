"""Unit tests for the hierarchical tracing layer.

Span identity and nesting, the on/off switches, counter-delta
attribution, the cross-process merge, and the well-formedness validator
that the property suite and the provenance ledger both lean on.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry.tracing import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracing,
    span,
    span_forest,
    tracing_enabled,
    validate_span_tree,
)


@pytest.fixture(autouse=True)
def _fresh_tracer():
    get_tracer().clear()
    telemetry.reset()
    yield
    get_tracer().clear()
    telemetry.reset()


class TestSpanBasics:
    def test_nested_spans_link_parent_and_trace(self):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id == outer.span_id
        finished = get_tracer().finished()
        assert [s.name for s in finished] == ["inner", "outer"]
        assert validate_span_tree(finished) == []

    def test_current_span_tracks_the_stack(self):
        assert current_span() is None
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_attributes_at_entry_and_exit(self):
        with span("work", mix="LowPower") as sp:
            sp.set_attribute("cells", 3)
        record, = get_tracer().finished("work")
        assert record.attributes == {"mix": "LowPower", "cells": 3}

    def test_timing_fields_populated(self):
        with span("work"):
            pass
        record, = get_tracer().finished()
        assert record.end_unix >= record.start_unix
        assert record.wall_s >= 0.0
        assert record.cpu_s >= 0.0

    def test_error_status_on_raise(self):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        record, = get_tracer().finished("doomed")
        assert record.status == "error"
        assert current_span() is None

    def test_counter_deltas_attributed_to_span(self):
        telemetry.get_registry().counter("sim.runs").inc(2)
        with span("work"):
            telemetry.get_registry().counter("sim.runs").inc(3)
            telemetry.get_registry().counter("sim.cache_hits").inc()
        record, = get_tracer().finished("work")
        assert record.counters == {"sim.runs": 3.0, "sim.cache_hits": 1.0}

    def test_to_dict_from_dict_roundtrip(self):
        with span("work", k=1):
            pass
        record, = get_tracer().finished()
        clone = Span.from_dict(record.to_dict())
        assert clone == record


class TestSwitches:
    def test_set_tracing_off_yields_none_and_records_nothing(self):
        previous = set_tracing(False)
        try:
            assert not tracing_enabled()
            with span("invisible") as sp:
                assert sp is None
            assert get_tracer().finished() == []
        finally:
            set_tracing(previous)

    def test_global_telemetry_switch_also_gates(self):
        with telemetry.disabled():
            assert not tracing_enabled()
            with span("invisible") as sp:
                assert sp is None
        assert get_tracer().finished() == []

    def test_isolate_installs_fresh_tracer(self):
        with span("before"):
            pass
        tracer = get_tracer()
        telemetry.isolate()
        try:
            assert get_tracer() is not tracer
            assert get_tracer().finished() == []
        finally:
            telemetry.isolate()


class TestTracer:
    def test_capacity_bounds_finished_ring(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            record = tracer.start(f"s{i}")
            tracer.finish(record)
        assert len(tracer) == 4
        assert [s.name for s in tracer.finished()] == [
            "s6", "s7", "s8", "s9"
        ]

    def test_evictions_counted(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.finish(tracer.start(f"s{i}"))
        assert tracer.dropped == 3
        tracer.merge_state(tracer.state())
        assert len(tracer) == 2
        assert tracer.dropped == 5
        tracer.clear()
        assert tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_finish_closes_abandoned_children(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("abandoned")
        tracer.finish(outer)
        assert tracer.current() is None

    def test_span_ids_are_pid_prefixed_and_unique(self):
        import os

        tracer = Tracer()
        ids = {tracer.start(f"s{i}").span_id for i in range(50)}
        assert len(ids) == 50
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)

    def test_to_json_writes_schema_and_spans(self, tmp_path):
        with span("outer"):
            pass
        path = get_tracer().to_json(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.trace.v1"
        assert [s["name"] for s in payload["spans"]] == ["outer"]


class TestMergeState:
    _fake_pids = iter(f"fake{i:x}" for i in range(100))

    def _worker_state(self):
        """A detached tracer's state, as a worker would ship it.

        Span ids are pid-prefixed, so a genuine worker (different pid)
        never collides with the parent; an in-process stand-in tracer
        would, so its ids are rewritten under a fake pid.
        """
        import os

        worker = Tracer()
        root = worker.start("parallel.task")
        child = worker.start("sim.simulate_mix")
        worker.finish(child)
        worker.finish(root)
        state = worker.state()
        real, fake = f"{os.getpid():x}-", f"{next(self._fake_pids)}-"
        for record in state:
            for key in ("span_id", "trace_id", "parent_id"):
                if record[key]:
                    record[key] = record[key].replace(real, fake)
        return state

    def test_merge_reparents_roots_under_current_span(self):
        state = self._worker_state()
        with span("parallel.map") as map_sp:
            merged = get_tracer().merge_state(state, parent=map_sp)
        spans = get_tracer().finished()
        assert validate_span_tree(spans) == []
        roots = [s for s in merged if s.name == "parallel.task"]
        assert roots[0].parent_id == map_sp.span_id
        assert all(s.trace_id == map_sp.trace_id for s in merged)

    def test_merge_without_parent_keeps_worker_roots(self):
        state = self._worker_state()
        merged = get_tracer().merge_state(state, parent=None)
        assert validate_span_tree(merged) == []
        root, = [s for s in merged if s.parent_id is None]
        assert root.name == "parallel.task"

    def test_merge_two_workers_stays_well_formed(self):
        state_a, state_b = self._worker_state(), self._worker_state()
        with span("parallel.map") as map_sp:
            get_tracer().merge_state(state_a, parent=map_sp)
            get_tracer().merge_state(state_b, parent=map_sp)
        spans = get_tracer().finished()
        assert validate_span_tree(spans) == []
        assert len([s for s in spans if s.name == "parallel.task"]) == 2


class TestValidateSpanTree:
    def _span(self, name, span_id, trace_id, parent_id=None,
              start=0.0, end=1.0):
        return Span(name=name, span_id=span_id, trace_id=trace_id,
                    parent_id=parent_id, start_unix=start, end_unix=end)

    def test_accepts_well_formed_tree(self):
        spans = [
            self._span("root", "a", "a", None, 0.0, 10.0),
            self._span("child", "b", "a", "a", 1.0, 5.0),
        ]
        assert validate_span_tree(spans) == []

    def test_flags_duplicate_ids(self):
        spans = [
            self._span("root", "a", "a"),
            self._span("twin", "a", "a"),
        ]
        assert any("duplicate" in p for p in validate_span_tree(spans))

    def test_flags_orphans(self):
        spans = [self._span("lost", "b", "a", parent_id="missing")]
        assert any("orphaned" in p for p in validate_span_tree(spans))

    def test_flags_multiple_roots_per_trace(self):
        spans = [
            self._span("r1", "a", "t"),
            self._span("r2", "b", "t"),
        ]
        assert any("roots" in p for p in validate_span_tree(spans))

    def test_flags_cross_trace_parent(self):
        spans = [
            self._span("root", "a", "t1", None),
            self._span("child", "b", "t2", "a"),
        ]
        problems = validate_span_tree(spans)
        assert any("crosses traces" in p for p in problems)

    def test_flags_non_nested_interval(self):
        spans = [
            self._span("root", "a", "a", None, 0.0, 1.0),
            self._span("late", "b", "a", "a", 0.5, 9.0),
        ]
        assert any("not" in p and "nested" in p
                   for p in validate_span_tree(spans))

    def test_nesting_slack_tolerates_clock_skew(self):
        spans = [
            self._span("root", "a", "a", None, 0.0, 1.0),
            self._span("child", "b", "a", "a", -0.01, 1.01),
        ]
        assert validate_span_tree(spans, nesting_slack_s=0.05) == []

    def test_flags_parent_cycle(self):
        spans = [
            self._span("x", "a", "t", "b"),
            self._span("y", "b", "t", "a"),
        ]
        assert any("cycle" in p for p in validate_span_tree(spans))

    def test_span_forest_groups_by_trace(self):
        spans = [
            self._span("r1", "a", "a"),
            self._span("c1", "b", "a", "a"),
            self._span("r2", "c", "c"),
        ]
        forest = span_forest(spans)
        assert set(forest) == {"a", "c"}
        assert [s.span_id for s in forest["a"]["roots"]] == ["a"]
        assert len(forest["a"]["spans"]) == 2
