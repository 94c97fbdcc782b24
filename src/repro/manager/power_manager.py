"""The power manager: where policy meets platform.

This is the integration seam the paper argues for: the resource manager
holds the system-wide budget, consumes job-runtime characterization
reports, asks a policy for per-host caps, validates them against the
budget, and programs them before launch.  The paper's warning — "if power
limits are controlled through the same hardware interface by both a
resource manager and a job runtime environment, one layer may
unintentionally overwrite limits set by the other layer" — is enforced
here as an ownership rule: once the power manager programs caps for a run,
it is the only writer (the runtime's wishes arrive via characterization
data, not via competing RAPL writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.mix_characterization import (
    MixCharacterization,
    characterize_mix,
)
from repro.core.allocation import PowerAllocation
from repro.core.policy import Policy
from repro.manager.scheduler import ScheduledMix
from repro.sim.engine import ExecutionModel
from repro.sim.execution import SimulationOptions
from repro.sim.results import MixRunResult
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["ManagedRun", "PowerManager"]


@dataclass(frozen=True)
class ManagedRun:
    """Everything produced by one managed execution."""

    scheduled: ScheduledMix
    characterization: MixCharacterization
    allocation: PowerAllocation
    result: MixRunResult


class PowerManager:
    """Budget-holding orchestrator for policy-managed executions.

    ``model`` is the physics bundle shared by characterization and
    execution.  Allocations exceeding the budget are rejected with
    ``RuntimeError`` — except for policies that are not
    system-power-aware (``Precharacterized``), whose over-subscription is
    the phenomenon under study (Fig. 7's >100 % bars); their overshoot is
    recorded rather than rejected.
    """

    def __init__(self, model: Optional[ExecutionModel] = None) -> None:
        self.model = model if model is not None else ExecutionModel()

    # ------------------------------------------------------------------
    def characterize(self, scheduled: ScheduledMix) -> MixCharacterization:
        """Run the pre-characterization pipeline on the allocated nodes."""
        return characterize_mix(scheduled.mix, scheduled.efficiencies, self.model)

    def plan(
        self,
        scheduled: ScheduledMix,
        policy: Policy,
        budget_w: float,
        characterization: Optional[MixCharacterization] = None,
    ) -> Tuple[PowerAllocation, np.ndarray]:
        """The policy's allocation, validated against the budget, and the
        caps to program (:meth:`~repro.core.policy.Policy.program`)."""
        ensure_positive(budget_w, "budget_w")
        char = characterization if characterization is not None \
            else self.characterize(scheduled)
        allocation, caps = policy.program(char, budget_w)
        if policy.system_power_aware and not allocation.within_budget():
            raise RuntimeError(
                f"policy {policy.name} allocated "
                f"{allocation.total_allocated_w:.1f} W against a budget of "
                f"{budget_w:.1f} W"
            )
        return allocation, caps

    def launch(
        self,
        scheduled: ScheduledMix,
        policy: Policy,
        budget_w: float,
        characterization: Optional[MixCharacterization] = None,
        options: Optional[SimulationOptions] = None,
    ) -> ManagedRun:
        """Characterize, plan, program caps, and execute the mix: the
        one-spec :meth:`launch_batch`."""
        return self.launch_batch(scheduled, [(policy, budget_w)],
                                 characterization, options)[0]

    def launch_batch(
        self,
        scheduled: ScheduledMix,
        specs: Sequence[Tuple[Policy, float]],
        characterization: Optional[MixCharacterization] = None,
        options: Optional[SimulationOptions] = None,
    ) -> List[ManagedRun]:
        """Plan and execute many ``(policy, budget)`` scenarios in one pass.

        Every spec is planned by :meth:`plan` (budget validation and the
        job-runtime redistribution included), then all programmed cap
        vectors run through one :func:`~repro.sim.batch.simulate_cap_batch`
        engine call, whose row ``i`` is bit-identical to a serial
        :func:`~repro.sim.execution.simulate_mix` of spec ``i``.  Each run
        emits one ``launch_complete`` event.  This is the sweep primitive
        behind :func:`~repro.experiments.sensitivity.budget_sweep` and the
        policy tournament.
        """
        from repro.sim.batch import simulate_cap_batch

        if not specs:
            raise ValueError("launch_batch needs at least one (policy, budget)")
        with span("manager.launch_batch", mix=scheduled.mix.name,
                  scenarios=len(specs)):
            char = characterization if characterization is not None \
                else self.characterize(scheduled)
            plans = [self.plan(scheduled, policy, budget_w, char)
                     for policy, budget_w in specs]
            results = simulate_cap_batch(
                scheduled.mix,
                np.stack([caps for _, caps in plans]),
                scheduled.efficiencies,
                self.model,
                options,
                policy_names=[policy.name for policy, _ in specs],
                budgets_w=[float(budget_w) for _, budget_w in specs],
            )
        if enabled():
            get_registry().counter("manager.power_manager.launches").inc(len(specs))
            for (policy, budget_w), (allocation, _), result in zip(
                    specs, plans, results):
                emit(
                    "manager.power_manager", "launch_complete",
                    mix=scheduled.mix.name, policy=policy.name,
                    budget_w=float(budget_w),
                    allocated_w=float(allocation.total_allocated_w),
                    unallocated_w=float(allocation.unallocated_w),
                    mean_power_w=float(result.mean_system_power_w),
                )
        return [
            ManagedRun(
                scheduled=scheduled,
                characterization=char,
                allocation=allocation,
                result=result,
            )
            for (allocation, _), result in zip(plans, results)
        ]
