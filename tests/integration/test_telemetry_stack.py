"""Integration tests: telemetry emitted by real stack runs.

These tests exercise whole subsystems — the site simulation, the runtime
controller — and assert on what shows up in the global telemetry
pipeline, i.e. exactly what an operator tailing the event log or reading
the metrics snapshot would see.  Runs whose events the tests read back
run inside ``telemetry.recording()``, as ``--telemetry-out`` runs do.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


@pytest.fixture(autouse=True)
def _fresh_global_state():
    """Each test reads a telemetry pipeline it alone populated."""
    telemetry.reset()
    yield
    telemetry.reset()


def _arrival(name, t, nodes=4):
    return Arrival(
        time_s=t,
        request=JobRequest(
            name=name,
            config=KernelConfig(intensity=8.0),
            node_count=nodes,
            iterations=5,
        ),
    )


class TestSiteSimulationTelemetry:
    @pytest.fixture()
    def result(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        with telemetry.recording():
            return run_site_simulation(
                [_arrival(f"j{i}", 0.0) for i in range(3)],
                cluster,
                create_policy("MixedAdaptive"),
                budget_w=8 * 220.0,
            )

    def test_emits_admission_and_batch_events(self, result):
        bus = telemetry.get_bus()
        admissions = bus.events(kind="admission_decision",
                                source="manager.admission")
        batches = bus.events(kind="batch_complete", source="manager.site")
        assert len(admissions) >= 1
        assert len(batches) == len(result.batches)
        assert bus.events(kind="simulation_complete",
                          source="manager.site")

    def test_utilization_gauge_nonzero(self, result):
        # Each batch's utilization and duration ride, exactly, on its
        # batch_complete event.
        events = telemetry.get_bus().events(kind="batch_complete",
                                            source="manager.site")
        assert [e.payload["utilization"] for e in events] == [
            b.mean_power_w / b.budget_w for b in result.batches
        ]
        assert all(e.payload["utilization"] > 0.0 for e in events)
        assert [e.payload["duration_s"] for e in events] == pytest.approx(
            [b.duration_s for b in result.batches]
        )
        assert result.stats.jobs_completed == len(result.completed)


class TestControllerTelemetry:
    def test_run_records_timer_and_events(self, execution_model):
        job = Job(
            name="probe",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                imbalance=2),
            node_count=4,
        )
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        controller = Controller(job, np.ones(4), agent, model=execution_model)
        with telemetry.recording():
            report = controller.run(max_epochs=80)

        run = telemetry.get_tracer().totals()["runtime.controller.run"]
        assert run["count"] == 1
        assert run["wall_s"] > 0.0
        events = telemetry.get_bus().events(kind="run_complete",
                                            source="runtime.controller")
        assert len(events) == 1
        epochs = controller.steady_state_sample().epoch + 1
        assert report.hosts[0].epochs == epochs
        assert events[0].payload["epochs"] == epochs
        assert report.telemetry["epochs"] == epochs

    def test_disabled_run_leaves_no_trace_and_plain_report(
        self, execution_model
    ):
        job = Job(name="quiet", config=KernelConfig(intensity=8.0),
                  node_count=4)
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        controller = Controller(job, np.ones(4), agent, model=execution_model)
        with telemetry.disabled(), telemetry.recording():
            report = controller.run(max_epochs=40)
        assert len(telemetry.get_registry()) == 0
        assert len(telemetry.get_bus().events()) == 0
        assert telemetry.get_bus().counts_by_source() == {}
        assert report.telemetry == {}
