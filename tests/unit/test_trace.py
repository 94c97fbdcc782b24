"""Unit tests for GEOPM-style trace collection."""

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.agent import PlatformSample
from repro.runtime.controller import Controller
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.trace import JobTrace, TraceWriter, attach_tracer
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _sample(epoch, n=3):
    return PlatformSample(
        epoch=epoch,
        host_time_s=np.full(n, 0.5),
        epoch_time_s=0.5,
        host_power_w=np.full(n, 200.0),
        power_limit_w=np.full(n, 220.0),
        host_energy_j=np.full(n, 100.0),
        mean_freq_ghz=np.full(n, 2.0),
    )


class TestTraceWriter:
    def test_records_per_host(self):
        writer = TraceWriter("job")
        writer.record(_sample(0, n=4))
        assert len(writer.trace) == 4
        assert writer.trace.hosts == 4
        assert writer.trace.epochs == 1

    def test_multiple_epochs(self):
        writer = TraceWriter("job")
        for e in range(3):
            writer.record(_sample(e))
        assert writer.trace.epochs == 3
        assert len(writer.trace) == 9


class TestJobTrace:
    @pytest.fixture()
    def trace(self):
        writer = TraceWriter("job")
        for e in range(4):
            writer.record(_sample(e))
        return writer.trace

    def test_column(self, trace):
        col = trace.column("power_w")
        assert col.shape == (12,)
        np.testing.assert_allclose(col, 200.0)

    def test_column_single_host(self, trace):
        col = trace.column("epoch_time_s", host=1)
        assert col.shape == (4,)

    def test_unknown_column_raises(self, trace):
        with pytest.raises(KeyError, match="unknown trace column"):
            trace.column("teraflops")

    def test_to_csv(self, trace, tmp_path):
        path = trace.to_csv(tmp_path / "trace.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("epoch,host,")

    def test_to_csv_empty_trace_writes_header_only(self, tmp_path):
        """Regression: an empty trace used to export an empty file."""
        path = JobTrace(job_name="idle").to_csv(tmp_path / "empty.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("epoch,host,")


class TestAttachTracer:
    def test_captures_controller_run(self, execution_model):
        job = Job(
            name="t",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=4,
        )
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        controller = Controller(job, np.ones(4), agent, model=execution_model)
        writer = attach_tracer(controller)
        report = controller.run(max_epochs=50)
        assert writer.trace.epochs == report.hosts[0].epochs
        assert writer.trace.hosts == 4

    def test_trace_shows_balancer_convergence(self, execution_model):
        """The limit history converges: last-epoch step is tiny compared
        to the first cut."""
        job = Job(
            name="t",
            config=KernelConfig(intensity=16.0, waiting_fraction=0.5, imbalance=3),
            node_count=6,
        )
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        controller = Controller(job, np.ones(6), agent, model=execution_model)
        writer = attach_tracer(controller)
        controller.run(max_epochs=200)
        trace = writer.trace
        # Rows are ordered by (epoch, host): one row of limits per epoch.
        history = trace.column("power_limit_w").reshape(trace.epochs, trace.hosts)
        steps = np.max(np.abs(np.diff(history, axis=0)), axis=1)
        biggest = float(np.max(steps))
        last_step = float(steps[-1])
        assert biggest > 1.0  # the balancer did move limits
        assert last_step < biggest / 10

    def test_each_run_starts_a_fresh_trace(self, execution_model):
        """Regression: a second run under one tracer used to append to the
        first run's trace (24 rows reading as 3 epochs)."""
        job = Job(
            name="t",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=4,
        )
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        controller = Controller(job, np.ones(4), agent, model=execution_model)
        writer = attach_tracer(controller)
        controller.run(max_epochs=3)
        first = writer.trace
        controller.run(max_epochs=3)
        writer.close()
        assert len(first) == 12
        assert len(writer.trace) == 12
        assert writer.trace.epochs == 3
        np.testing.assert_array_equal(
            writer.trace.column("power_limit_w")[-4:],
            controller.steady_state_sample().power_limit_w,
        )

    def test_close_stops_publishing(self, execution_model):
        """Regression: after ``close()`` the wrapped controller kept
        publishing one trace event per epoch onto the bus."""
        job = Job(name="t", config=KernelConfig(intensity=8.0), node_count=4)
        controller = Controller(job, np.ones(4), MonitorAgent(),
                                model=execution_model)
        bus = telemetry.get_bus()

        def published():
            return bus.counts_by_source().get("runtime.trace", 0)

        before = published()
        with telemetry.disabled():
            writer = attach_tracer(controller)
            controller.run(max_epochs=5, min_epochs=5)
            writer.close()
            after_close = published()
            controller.run(max_epochs=5, min_epochs=5)
        assert after_close - before == 5
        assert published() == after_close
        assert len(writer.trace) == 5 * 4
