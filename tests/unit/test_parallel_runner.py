"""Unit tests for the ParallelRunner fan-out engine."""

import pytest

from repro.parallel.runner import WORKERS_ENV, ParallelRunner, resolve_workers
from repro.telemetry import (
    emit,
    get_bus,
    get_registry,
    get_tracer,
    recording,
    reset,
    set_enabled,
)


def _square(x):
    return x * x


def _record_and_square(x):
    get_registry().counter("test.runner.calls").inc()
    return x * x


def _flood(n):
    for _ in range(n):
        emit("test.flood", "tick")
    return n


_FLAG = {"installed": False}


def _install_flag():
    _FLAG["installed"] = True


def _read_flag(_):
    return _FLAG["installed"]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers(None)


class TestSerialPath:
    def test_workers_one_maps_in_order(self):
        runner = ParallelRunner(workers=1)
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not runner.parallel

    def test_empty_payloads(self):
        assert ParallelRunner(workers=4).map(_square, []) == []

    def test_single_payload_stays_serial(self):
        # One payload never pays pool start-up cost.
        runner = ParallelRunner(workers=4)
        assert runner.map(_square, [5]) == [25]
        assert runner.pool_failures == 0

    def test_serial_runs_initializer(self):
        _FLAG["installed"] = False
        runner = ParallelRunner(workers=1, initializer=_install_flag)
        assert runner.map(_read_flag, [0, 0]) == [True, True]


class TestPoolPath:
    def test_results_in_payload_order(self):
        runner = ParallelRunner(workers=2)
        assert runner.map(_square, list(range(6))) == [x * x for x in range(6)]
        assert runner.parallel

    def test_pool_initializer_runs_in_workers(self):
        _FLAG["installed"] = False
        runner = ParallelRunner(workers=2, initializer=_install_flag)
        assert runner.map(_read_flag, [0, 0, 0, 0]) == [True] * 4
        assert _FLAG["installed"] is False  # parent untouched

    def test_worker_telemetry_merges_into_parent(self):
        previous = set_enabled(True)
        reset()
        try:
            runner = ParallelRunner(workers=2)
            runner.map(_record_and_square, [1, 2, 3, 4])
            merged = get_registry().counter("test.runner.calls").value
            assert merged == 4
        finally:
            reset()
            set_enabled(previous)

    def test_worker_span_totals_count_every_task(self):
        reset()
        try:
            ParallelRunner(workers=2).map(_square, list(range(5)))
            totals = get_tracer().totals()
            task, fan_out = totals["parallel.task"], totals["parallel.map"]
            assert task["count"] == 5
            assert fan_out["count"] == 1
            # Unrecorded, no worker tree ships, but the tasks' wall is
            # still the map span's child time, as when it is recorded.
            assert fan_out["self_s"] == pytest.approx(
                max(0.0, fan_out["wall_s"] - task["wall_s"]))
        finally:
            reset()

    def test_worker_ring_drops_and_event_counts_merge(self):
        # Recording, one worker overflows its 8,192-event ring by 8; the
        # other ships nothing, so the parent's own ring never overflows.
        reset()
        try:
            with recording():
                ParallelRunner(workers=2).map(_flood, [8200, 0])
            assert get_bus().dropped >= 8
            assert get_bus().counts_by_source()["test.flood"] == 8200
        finally:
            reset()

    def test_unpicklable_task_falls_back_to_serial(self):
        runner = ParallelRunner(workers=2)

        def local_square(x):  # locals cannot pickle by reference
            return x * x

        assert runner.map(local_square, [1, 2, 3]) == [1, 4, 9]
        assert runner.pool_failures == 1
