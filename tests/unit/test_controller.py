"""Unit tests for the runtime controller."""

import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.controller import Controller
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.runtime.trace import attach_tracer
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _job(nodes=5, intensity=8.0, waiting=0.0, imbalance=1):
    return Job(
        name="ctl",
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=nodes,
    )


class TestValidation:
    def test_efficiency_shape_checked(self):
        with pytest.raises(ValueError, match="efficiencies"):
            Controller(_job(nodes=5), np.ones(3), MonitorAgent())

    def test_initial_limit_shape_checked(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        with pytest.raises(ValueError, match="initial limits"):
            ctl.run(initial_limits_w=np.ones(2))

    def test_bad_epoch_budget(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        with pytest.raises(ValueError):
            ctl.run(max_epochs=0)

    @pytest.mark.parametrize("make", [
        lambda job, eff, **kw: Controller(job, eff, MonitorAgent(), **kw),
        lambda job, eff, **kw: ControllerRunSpec(
            job=job, efficiencies=eff, agent=MonitorAgent(), **kw),
    ], ids=["serial", "batch"])
    @pytest.mark.parametrize("eff, kwargs, match", [
        ([1.0, 0.0, 1.0], {}, "efficiencies"),
        ([1.0, np.nan, 1.0], {}, "efficiencies"),
        ([1.0, -1.0, 1.0], {}, "efficiencies"),
        ([1.0, np.inf, 1.0], {}, "efficiencies"),
        ([1.0, 1.0, 1.0], {"barrier_overhead_s": -1e-4}, "barrier_overhead_s"),
        ([1.0, 1.0, 1.0], {"barrier_overhead_s": np.inf}, "barrier_overhead_s"),
        ([1.0, 1.0, 1.0], {"barrier_overhead_s": np.nan}, "barrier_overhead_s"),
        ([1.0, 1.0, 1.0], {"noise_std": -0.01}, "noise_std"),
        ([1.0, 1.0, 1.0], {"noise_std": np.nan}, "noise_std"),
        ([1.0, 1.0, 1.0], {"noise_std": np.inf}, "noise_std"),
    ])
    def test_degenerate_inputs_rejected_at_construction(
        self, make, eff, kwargs, match
    ):
        """Both runtimes share one validator: a degenerate run raises
        before any epoch instead of reporting NaN power or failing inside
        the report."""
        with pytest.raises(ValueError, match=match):
            make(_job(nodes=3), np.array(eff), **kwargs)

    @pytest.mark.parametrize("run", [
        lambda job, init: Controller(job, np.ones(3), MonitorAgent()).run(
            initial_limits_w=init, max_epochs=3),
        lambda job, init: run_controller_batch(
            [ControllerRunSpec(job=job, efficiencies=np.ones(3),
                               agent=MonitorAgent())],
            initial_limits_w=init, max_epochs=3).reports[0],
    ], ids=["serial", "batch"])
    def test_nan_initial_limits_rejected(self, run):
        """One NaN host time would set the epoch's critical path and turn
        every host's energy NaN; both run() methods refuse it.  Infinite
        and negative limits stay accepted and are clamped to the RAPL
        range."""
        with pytest.raises(ValueError, match="NaN"):
            run(_job(nodes=3), [np.nan, 200.0, 200.0])
        report = run(_job(nodes=3), [np.inf, -50.0, 200.0])
        assert all(np.isfinite(h.energy_j) for h in report.hosts)
        np.testing.assert_array_equal(
            report.power_limits_w(), [240.0, 136.0, 200.0]
        )

    def test_zero_noise_and_barrier_accepted(self):
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent(),
                         noise_std=0.0, barrier_overhead_s=0.0)
        report = ctl.run(max_epochs=3)
        assert all(np.isfinite(h.mean_power_w) for h in report.hosts)

    def test_steady_state_before_run_raises(self):
        ctl = Controller(_job(), np.ones(5), MonitorAgent())
        with pytest.raises(RuntimeError):
            ctl.steady_state_sample()
        with pytest.raises(RuntimeError):
            ctl.final_limits_w()


class TestMonitorRun:
    def test_report_covers_all_hosts(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        report = ctl.run(max_epochs=4, min_epochs=4)
        assert report.host_count == 5
        assert report.agent == "monitor"
        assert all(h.epochs == 4 for h in report.hosts)

    def test_monitor_keeps_tdp_limits(self):
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent())
        ctl.run(max_epochs=3, min_epochs=3)
        np.testing.assert_allclose(ctl.final_limits_w(), 240.0)

    def test_monitor_power_matches_uncapped_draw(self, execution_model):
        """The report's mean power equals the analytic uncapped draw for a
        balanced job (the Fig. 4 measurement)."""
        job = _job(nodes=3, intensity=8.0)
        ctl = Controller(job, np.ones(3), MonitorAgent(), model=execution_model)
        report = ctl.run(max_epochs=3, min_epochs=3)
        expected = execution_model.power_model.uncapped_power(job.config.kappa)
        # The per-iteration barrier overhead is spent polling at slightly
        # lower activity, shaving a fraction of a watt off the mean.
        np.testing.assert_allclose(report.mean_power_w(), expected, rtol=3e-3)

    def test_noise_seed_reproducible(self):
        a = Controller(_job(), np.ones(5), MonitorAgent(), noise_std=0.01, seed=3)
        b = Controller(_job(), np.ones(5), MonitorAgent(), noise_std=0.01, seed=3)
        ra = a.run(max_epochs=3, min_epochs=3)
        rb = b.run(max_epochs=3, min_epochs=3)
        np.testing.assert_array_equal(ra.runtime_s(), rb.runtime_s())


class TestGovernorRun:
    def test_limits_follow_budget(self):
        agent = PowerGovernorAgent(job_budget_w=5 * 180.0)
        ctl = Controller(_job(nodes=5), np.ones(5), agent)
        ctl.run(max_epochs=3, min_epochs=3)
        np.testing.assert_allclose(ctl.final_limits_w(), 180.0)


class TestBalancerRun:
    def test_converges_within_budget(self):
        job = _job(nodes=6, intensity=16.0, waiting=0.5, imbalance=3)
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        ctl = Controller(job, np.ones(6), agent)
        ctl.run(max_epochs=200)
        assert agent.converged()

    def test_waiting_hosts_end_lower(self):
        job = _job(nodes=6, intensity=16.0, waiting=0.5, imbalance=3)
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        ctl = Controller(job, np.ones(6), agent)
        ctl.run(max_epochs=200)
        limits = ctl.final_limits_w()
        n_crit = job.critical_node_count()
        assert limits[n_crit:].max() < limits[:n_crit].min()

    def test_epoch_history_recorded(self):
        """The per-epoch record is an attached trace; the controller keeps
        only the final epoch."""
        job = _job(nodes=4)
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        ctl = Controller(job, np.ones(4), agent)
        writer = attach_tracer(ctl)
        report = ctl.run(max_epochs=50)
        writer.close()
        epochs = report.hosts[0].epochs
        assert epochs >= 3
        assert writer.trace.epochs == epochs
        assert writer.trace.records[0].epoch == 0
        assert ctl.steady_state_sample().epoch == epochs - 1

    def test_figure_of_merit_is_mean_epoch_time(self):
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent())
        writer = attach_tracer(ctl)
        report = ctl.run(max_epochs=4, min_epochs=4)
        writer.close()
        times = writer.trace.column("epoch_time_s", host=0)
        assert times.shape == (4,)
        assert report.figure_of_merit == pytest.approx(float(np.mean(times)))


class TestRunMemory:
    """A run keeps sums, not histories: its peak memory must not grow
    with the epoch count (eight 32-host monitor runs, forced through
    every epoch)."""

    HOSTS, RUNS = 32, 8

    def _specs(self):
        rng = np.random.default_rng(7)
        return [
            ControllerRunSpec(
                job=_job(nodes=self.HOSTS), agent=MonitorAgent(),
                efficiencies=1.0 + 0.05 * rng.standard_normal(self.HOSTS),
                noise_std=0.01, seed=c,
            )
            for c in range(self.RUNS)
        ]

    @staticmethod
    def _peak_bytes(run, epochs):
        tracemalloc.start()
        try:
            run(epochs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _assert_flat(self, run):
        with telemetry.disabled():
            run(5)  # warm-up: imports, caches and lazy allocations
            short = self._peak_bytes(run, 40)
            long = self._peak_bytes(run, 400)
        assert long <= 2 * short, (short, long)

    def test_batch_peak_flat_in_epochs(self):
        def run(epochs):
            return run_controller_batch(self._specs(), max_epochs=epochs,
                                        min_epochs=epochs)

        self._assert_flat(run)

    def test_serial_peak_flat_in_epochs(self):
        def run(epochs):
            return [
                Controller(spec.job, spec.efficiencies, spec.agent,
                           noise_std=spec.noise_std, seed=spec.seed).run(
                    max_epochs=epochs, min_epochs=epochs)
                for spec in self._specs()
            ]

        self._assert_flat(run)
