"""The runtime controller: drives an agent over a job's control epochs.

GEOPM's Controller sits inside the job, samples platform telemetry each
epoch (one bulk-synchronous iteration of the synthetic kernel), hands the
sample to the agent, and programs the limits the agent returns.  This
module does exactly that against the simulated platform, producing the
:class:`~repro.runtime.reports.JobReport` that the characterization layer
and the resource-manager policies consume.

The controller runs a *single job* — the multi-job grid runs go through
the vectorised :func:`repro.sim.execution.simulate_mix` path instead; the
controller exists for characterization runs and for validating that the
balancer's feedback loop converges to the analytic steady state.

Each epoch's physics comes from the job's hosts bound once per run
(:meth:`repro.sim.engine.ExecutionModel.bind`), the same kernel the
batched runtime (:mod:`repro.runtime.batch`) binds to its stacked rows;
:func:`epoch_energy` splits each host's energy between compute and
barrier polling for both, and :func:`check_run_inputs` rejects degenerate
runs for both at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.agent import Agent, PlatformSample
from repro.runtime.reports import JobReport, report_from_arrays
from repro.sim.engine import ExecutionModel
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.workload.job import Job, WorkloadMix

__all__ = ["EpochResult", "Controller", "check_run_inputs", "epoch_energy"]


def check_run_inputs(job: Job, efficiencies, noise_std: float,
                     barrier_overhead_s: float) -> np.ndarray:
    """Validate one controller run's inputs; returns the efficiencies.

    Shared by :class:`Controller` and
    :class:`~repro.runtime.batch.ControllerRunSpec` so both runtimes
    reject the same degenerate runs at construction, before any epoch:
    efficiencies must be ``(job.node_count,)``, finite and positive (a
    zero or NaN multiplier makes every power and frequency NaN), the
    barrier overhead finite and non-negative, and the noise sigma finite
    and non-negative.
    """
    eff = np.asarray(efficiencies, dtype=float)
    if eff.shape != (job.node_count,):
        raise ValueError(
            f"efficiencies must have shape ({job.node_count},), got {eff.shape}"
        )
    if not np.all(np.isfinite(eff) & (eff > 0)):
        raise ValueError("efficiencies must be finite and positive")
    if not (np.isfinite(barrier_overhead_s) and barrier_overhead_s >= 0):
        raise ValueError(
            f"barrier_overhead_s must be finite and >= 0, got {barrier_overhead_s}"
        )
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    return eff


def epoch_energy(host_time_s, epoch_time_s, compute_power_w, poll_power_w):
    """Per-host energy and mean power of one bulk-synchronous epoch.

    Each host computes for ``host_time_s`` and busy-polls at the barrier
    for the rest of ``epoch_time_s``.  Broadcasts: the batched runtime
    passes ``(A, 1)`` epoch times against ``(A, hosts)`` host arrays.
    """
    slack = np.maximum(epoch_time_s - host_time_s, 0.0)
    energy = compute_power_w * host_time_s + poll_power_w * slack
    return energy, energy / epoch_time_s


@dataclass(frozen=True)
class EpochResult:
    """Telemetry of one simulated control epoch."""

    epoch: int
    sample: PlatformSample
    limits_applied_w: np.ndarray


class Controller:
    """Run one job under an agent until convergence or an epoch budget.

    Parameters
    ----------
    job:
        The job to execute.
    efficiencies:
        Per-host variation multipliers (length ``job.node_count``).
    agent:
        The runtime agent making power decisions.
    model:
        Physics bundle (defaults to the Quartz node model).
    noise_std:
        Relative lognormal noise on per-epoch compute times.  The
        characterization pipeline uses 0 for deterministic steady states;
        convergence tests use small positive values.
    seed:
        RNG seed for epoch noise.
    fault_injector:
        Optional :class:`~repro.faults.injection.RuntimeFaultInjector`
        (duck-typed so this module never imports :mod:`repro.faults`).
        When set and active, each epoch the injector filters the limits
        the agent requested (actuator faults), raises the compute-noise
        sigma during bursts, and corrupts the sample the *agent* sees —
        ``history`` and the job report keep the truthful physics.  A
        ``None`` or inactive injector leaves the fault-free code path
        bit-identical.
    """

    def __init__(
        self,
        job: Job,
        efficiencies: np.ndarray,
        agent: Agent,
        model: Optional[ExecutionModel] = None,
        noise_std: float = 0.0,
        seed: int = 0,
        barrier_overhead_s: float = 5.0e-4,
        fault_injector=None,
    ) -> None:
        self.job = job
        self.efficiencies = check_run_inputs(
            job, efficiencies, noise_std, barrier_overhead_s
        )
        self.agent = agent
        self.model = model if model is not None else ExecutionModel()
        self.noise_std = float(noise_std)
        self.barrier_overhead_s = float(barrier_overhead_s)
        self._rng = np.random.default_rng(seed)
        self.fault_injector = fault_injector
        self._clock_s = 0.0
        # A single-job mix gives the controller the same flattened layout
        # the vectorised engine uses.
        self._physics = self.model.bind(
            WorkloadMix(name=job.name, jobs=(job,)).layout(), self.efficiencies
        )
        self.history: List[EpochResult] = []

    @property
    def _injecting(self) -> bool:
        return self.fault_injector is not None and self.fault_injector.active

    # ------------------------------------------------------------------
    def _run_epoch(self, epoch: int, limits_w: np.ndarray) -> PlatformSample:
        """Simulate one bulk-synchronous iteration under ``limits_w``."""
        sigma = self.noise_std
        if self._injecting:
            limits_w = self.fault_injector.filter_limits(limits_w, self._clock_s)
            sigma = self.fault_injector.noise_sigma(sigma, self._clock_s)
        caps, freq, t, p_compute, p_poll = self._physics(limits_w)
        if sigma > 0:
            t = t * self._rng.lognormal(0.0, sigma, size=t.shape)
        epoch_time = float(t.max()) + self.barrier_overhead_s
        energy, mean_power = epoch_energy(t, epoch_time, p_compute, p_poll)
        return PlatformSample(
            epoch=epoch,
            host_time_s=t,
            epoch_time_s=epoch_time,
            host_power_w=mean_power,
            power_limit_w=caps,
            host_energy_j=energy,
            mean_freq_ghz=freq,
        )

    def run(
        self,
        initial_limits_w: Optional[np.ndarray] = None,
        max_epochs: int = 200,
        min_epochs: int = 3,
    ) -> JobReport:
        """Execute epochs until the agent converges (or the budget runs out).

        Returns the GEOPM-style job report aggregated over all epochs run.
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        n = self.job.node_count
        if initial_limits_w is None:
            limits = np.full(n, self.model.power_model.tdp_w)
        else:
            limits = np.asarray(initial_limits_w, dtype=float)
            if limits.shape != (n,):
                raise ValueError(f"initial limits must have shape ({n},)")

        self.history.clear()
        self._clock_s = 0.0
        with span("runtime.controller.run", job=self.job.name,
                  agent=self.agent.name, hosts=n,
                  injecting=self._injecting) as trace_sp, \
                ScopedTimer("runtime.controller.run_s") as timer:
            for epoch in range(max_epochs):
                epoch_start_s = self._clock_s
                sample = self._run_epoch(epoch, limits)
                self._clock_s += sample.epoch_time_s
                observed = sample
                if self._injecting:
                    # The agent steers on the corrupted view; history and
                    # the report keep the truthful physics sample.
                    observed = self.fault_injector.corrupt_sample(
                        sample, epoch_start_s
                    )
                limits = self.agent.adjust(observed)
                self.history.append(EpochResult(epoch, sample, limits.copy()))
                if epoch + 1 >= min_epochs and self.agent.converged():
                    break
            if trace_sp is not None:
                trace_sp.set_attribute("epochs", len(self.history))
                trace_sp.set_attribute("converged", self.agent.converged())
        converged = self.agent.converged()
        report = self._build_report()
        if enabled():
            registry = get_registry()
            registry.counter("runtime.controller.runs").inc()
            registry.histogram("runtime.controller.epochs").observe(
                len(self.history)
            )
            if converged:
                registry.counter("runtime.controller.converged").inc()
            emit(
                "runtime.controller", "run_complete",
                job=self.job.name, agent=self.agent.name,
                epochs=len(self.history), converged=converged,
                wall_s=timer.elapsed_s,
            )
            report.telemetry.update({
                "run_wall_s": timer.elapsed_s,
                "epochs": float(len(self.history)),
                "epoch_wall_s_mean": timer.elapsed_s / len(self.history),
                "converged": 1.0 if converged else 0.0,
            })
        return report

    # ------------------------------------------------------------------
    def steady_state_sample(self) -> PlatformSample:
        """Telemetry of the final epoch (the converged operating point)."""
        if not self.history:
            raise RuntimeError("controller has not run")
        return self.history[-1].sample

    def final_limits_w(self) -> np.ndarray:
        """Limits in force after the final epoch."""
        if not self.history:
            raise RuntimeError("controller has not run")
        return self.history[-1].limits_applied_w.copy()

    def _build_report(self) -> JobReport:
        # One pass over the history stacking the per-epoch arrays; the
        # reductions (and the total-time sum the figure of merit reuses)
        # happen once in :func:`report_from_arrays` instead of the former
        # per-record accumulation loop plus a per-host ``float()`` loop.
        samples = [record.sample for record in self.history]
        return report_from_arrays(
            job_name=self.job.name,
            agent=self.agent.name,
            epoch_times_s=np.array([s.epoch_time_s for s in samples]),
            host_energy_j=np.stack([s.host_energy_j for s in samples]),
            mean_freq_ghz=np.stack([s.mean_freq_ghz for s in samples]),
            final_limits_w=self.history[-1].limits_applied_w,
            metadata=dict(self.agent.describe()),
        )
