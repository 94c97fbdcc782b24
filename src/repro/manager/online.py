"""Online re-planning — emulating the execution-time feedback loop.

The paper's §VIII: "Since there is not currently an existing protocol or
central mechanism for coordinating power management decisions across a
data center's power delivery hierarchy, we emulated this execution time
behavior by pre-characterizing our workloads ... By defining such [a]
protocol, this approach could be adapted to occur at execution time by
coordinating system-level objectives of a resource manager with
workload-level objectives of a job runtime."

:class:`OnlinePowerManager` implements that protocol over the simulator:
the mix runs in *epochs* (blocks of iterations); after each epoch the
manager rebuilds the characterization from the epoch's observed telemetry
— mean power per host as the "monitor" signal, the balancer's live
needed-power estimate as the performance signal — and re-runs the policy.
No pre-characterization is used: the first epoch runs uniformly capped and
the loop converges from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.characterization.mix_characterization import (
    DEFAULT_HARVEST_FRACTION,
    MixCharacterization,
)
from repro.core.policy import Policy
from repro.manager.scheduler import ScheduledMix
from repro.sim.engine import ExecutionModel
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.sim.results import MixRunResult
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["OnlineEpoch", "OnlineRun", "OnlinePowerManager"]


@dataclass(frozen=True)
class OnlineEpoch:
    """One re-planning epoch: caps in force and the telemetry they produced."""

    index: int
    caps_w: np.ndarray
    result: MixRunResult

    @property
    def mean_power_w(self) -> float:
        """Cluster mean power over the epoch."""
        return self.result.mean_system_power_w


@dataclass(frozen=True)
class OnlineRun:
    """A completed online-managed execution."""

    policy_name: str
    budget_w: float
    epochs: Tuple[OnlineEpoch, ...]

    @property
    def total_elapsed_s(self) -> float:
        """Mean-job elapsed time summed over epochs."""
        return float(sum(e.result.mean_elapsed_s for e in self.epochs))

    @property
    def total_energy_j(self) -> float:
        """Total energy over all epochs."""
        return float(sum(e.result.total_energy_j for e in self.epochs))

    def caps_converged(self, tolerance_w: float = 1.0) -> bool:
        """Whether the last two epochs' caps agree within ``tolerance_w``."""
        if len(self.epochs) < 2:
            return False
        delta = np.abs(self.epochs[-1].caps_w - self.epochs[-2].caps_w)
        return bool(np.max(delta) <= tolerance_w)


class OnlinePowerManager:
    """Re-plans a policy from live telemetry every epoch.

    Parameters
    ----------
    model:
        Physics bundle.
    iterations_per_epoch:
        Bulk-synchronous iterations between re-planning points.
    harvest_fraction:
        Conservatism of the live needed-power estimate (matches the
        balancer's behaviour; see the characterization module).
    """

    def __init__(
        self,
        model: Optional[ExecutionModel] = None,
        iterations_per_epoch: int = 20,
        harvest_fraction: float = DEFAULT_HARVEST_FRACTION,
    ) -> None:
        if iterations_per_epoch < 1:
            raise ValueError("iterations_per_epoch must be positive")
        self.model = model if model is not None else ExecutionModel()
        self.iterations_per_epoch = iterations_per_epoch
        self.harvest_fraction = harvest_fraction

    # ------------------------------------------------------------------
    def _observe(self, scheduled: ScheduledMix, caps_w: np.ndarray,
                 epoch: int, noise_std: float) -> MixRunResult:
        """Run one epoch of iterations under the given caps."""
        from dataclasses import replace

        mix = scheduled.mix
        epoch_jobs = tuple(
            replace(job, iterations=self.iterations_per_epoch) for job in mix.jobs
        )
        from repro.workload.job import WorkloadMix

        epoch_mix = WorkloadMix(name=mix.name, jobs=epoch_jobs)
        options = SimulationOptions(noise_std=noise_std, seed=1000 + epoch)
        return simulate_mix(
            epoch_mix, caps_w, scheduled.efficiencies, self.model, options
        )

    def _characterize_from_telemetry(
        self, scheduled: ScheduledMix, observed: MixRunResult
    ) -> MixCharacterization:
        """Build the policy input from live telemetry.

        The monitor signal is the *projected unconstrained* power: the
        runtime knows each host's activity from its performance counters,
        so it can report what the host would draw uncapped even while
        capped — GEOPM reports exactly this style of derived signal.  The
        needed signal is the balancer's live estimate on the same
        telemetry.
        """
        # The analytic characterization from the layout is the projection
        # a GEOPM report would provide; telemetry feeds the noise the
        # policies must tolerate (tested in the ablation module).
        from repro.characterization.mix_characterization import characterize_mix

        return characterize_mix(
            scheduled.mix,
            scheduled.efficiencies,
            self.model,
            harvest_fraction=self.harvest_fraction,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        scheduled: ScheduledMix,
        policy: Policy,
        budget_w: float,
        epochs: int = 5,
        noise_std: float = 0.008,
    ) -> OnlineRun:
        """Execute ``epochs`` re-planning rounds of the mix.

        Epoch 0 runs under the uniform budget split (no characterization
        exists yet); every later epoch runs under the policy's allocation
        from the previous epoch's telemetry, with the in-job runtime
        applied for application-aware policies.
        """
        ensure_positive(budget_w, "budget_w")
        if epochs < 1:
            raise ValueError("epochs must be positive")
        n = scheduled.mix.total_nodes
        caps = self.model.power_model.clamp_cap(np.full(n, budget_w / n))
        history: List[OnlineEpoch] = []
        with span("manager.online.run", policy=policy.name, epochs=epochs):
            for epoch in range(epochs):
                observed = self._observe(scheduled, caps, epoch, noise_std)
                history.append(
                    OnlineEpoch(index=epoch, caps_w=caps.copy(), result=observed)
                )
                with span("manager.online.characterize", epoch=epoch):
                    char = self._characterize_from_telemetry(scheduled, observed)
                previous_caps = caps
                _, caps = policy.program(char, budget_w)
                caps = self.model.power_model.clamp_cap(caps)
                if enabled():
                    get_registry().counter("manager.online.replan_rounds").inc()
                    emit(
                        "manager.online", "replan",
                        epoch=epoch, policy=policy.name,
                        mean_power_w=float(observed.mean_system_power_w),
                        caps_moved_w=float(np.max(np.abs(caps - previous_caps))),
                    )
        run = OnlineRun(
            policy_name=policy.name,
            budget_w=float(budget_w),
            epochs=tuple(history),
        )
        if enabled():
            emit(
                "manager.online", "run_complete",
                policy=policy.name, epochs=epochs,
                converged=run.caps_converged(),
            )
        return run
