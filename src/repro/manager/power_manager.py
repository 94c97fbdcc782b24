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
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.sim.results import MixRunResult
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["ManagedRun", "PowerManager", "apply_job_runtime"]


def apply_job_runtime(
    char: MixCharacterization, caps_w: np.ndarray
) -> np.ndarray:
    """Effective caps after the in-job GEOPM balancer redistributes.

    A job launched under the power balancer does not sit at the caps the
    resource manager programmed: the runtime treats the *sum* of its
    allocation as the job budget and re-distributes it internally toward
    the balancer steady state — each host at its needed power, with
    proportional scale-down when the job budget cannot cover the needs
    (and any surplus left unused, since caps above needed power are inert).
    This execution-time behaviour is why the paper's JobAdaptive and
    MixedAdaptive "tend to perform similarly in the min ... power levels":
    whatever the cross-job split, each job's interior is balancer-shaped.
    """
    from repro.core.allocation import fit_to_budget

    caps = np.asarray(caps_w, dtype=float)
    effective = np.empty_like(caps)
    floor = char.min_cap_w
    for j in range(char.job_count):
        block = char.job_slice(j)
        job_budget = float(np.sum(caps[block]))
        targets = np.maximum(char.needed_cap_w[block], floor)
        if float(np.sum(targets)) > job_budget:
            effective[block] = fit_to_budget(targets, job_budget, floor)
        else:
            effective[block] = targets
    return effective


@dataclass(frozen=True)
class ManagedRun:
    """Everything produced by one managed execution."""

    scheduled: ScheduledMix
    characterization: MixCharacterization
    allocation: PowerAllocation
    result: MixRunResult


class PowerManager:
    """Budget-holding orchestrator for policy-managed executions.

    Parameters
    ----------
    model:
        Physics bundle shared by characterization and execution.
    enforce_budget:
        When True (default), allocations exceeding the budget are rejected
        with ``RuntimeError`` — except for policies that are not
        system-power-aware (``Precharacterized``), whose over-subscription
        is the phenomenon under study (Fig. 7's >100 % bars); their
        overshoot is recorded rather than rejected.
    """

    def __init__(self, model: Optional[ExecutionModel] = None,
                 enforce_budget: bool = True) -> None:
        self.model = model if model is not None else ExecutionModel()
        self.enforce_budget = enforce_budget

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
    ) -> PowerAllocation:
        """Ask the policy for caps and validate them against the budget."""
        ensure_positive(budget_w, "budget_w")
        char = characterization if characterization is not None \
            else self.characterize(scheduled)
        allocation = policy.allocate(char, budget_w)
        if (
            self.enforce_budget
            and policy.system_power_aware
            and not allocation.within_budget()
        ):
            raise RuntimeError(
                f"policy {policy.name} allocated "
                f"{allocation.total_allocated_w:.1f} W against a budget of "
                f"{budget_w:.1f} W"
            )
        return allocation

    def launch(
        self,
        scheduled: ScheduledMix,
        policy: Policy,
        budget_w: float,
        characterization: Optional[MixCharacterization] = None,
        options: Optional[SimulationOptions] = None,
    ) -> ManagedRun:
        """Characterize, plan, program caps, and execute the mix."""
        if options is None:
            options = SimulationOptions()
        with span("manager.launch", mix=scheduled.mix.name,
                  policy=policy.name, budget_w=float(budget_w)) as trace_sp:
            char = characterization if characterization is not None \
                else self.characterize(scheduled)
            allocation = self.plan(scheduled, policy, budget_w, char)
            # Application-aware policies launch their jobs under the GEOPM
            # power balancer, which redistributes each job's total allocation
            # internally toward the balancer steady state during execution.
            # Application-agnostic policies launch under the monitor/governor
            # agents, so hosts draw up to their programmed caps.
            effective_caps = allocation.caps_w
            if policy.application_aware:
                effective_caps = apply_job_runtime(char, effective_caps)
            result = simulate_mix(
                scheduled.mix,
                effective_caps,
                scheduled.efficiencies,
                self.model,
                options,
                policy_name=policy.name,
                budget_w=budget_w,
            )
            if trace_sp is not None:
                trace_sp.set_attribute(
                    "allocated_w", float(allocation.total_allocated_w)
                )
        if enabled():
            get_registry().counter("manager.power_manager.launches").inc()
            emit(
                "manager.power_manager", "launch_complete",
                mix=scheduled.mix.name, policy=policy.name,
                budget_w=float(budget_w),
                allocated_w=float(allocation.total_allocated_w),
                unallocated_w=float(allocation.unallocated_w),
                mean_power_w=float(result.mean_system_power_w),
            )
        return ManagedRun(
            scheduled=scheduled,
            characterization=char,
            allocation=allocation,
            result=result,
        )

    def launch_batch(
        self,
        scheduled: ScheduledMix,
        specs: Sequence[Tuple[Policy, float]],
        characterization: Optional[MixCharacterization] = None,
        options: Optional[SimulationOptions] = None,
    ) -> List[ManagedRun]:
        """Plan and execute many ``(policy, budget)`` scenarios in one pass.

        Every spec is planned exactly as :meth:`launch` would (budget
        validation and the job-runtime redistribution included), then all
        effective cap vectors run through one
        :func:`~repro.sim.batch.simulate_cap_batch` engine call.  Result
        ``i`` is bit-identical to ``launch(scheduled, *specs[i], ...)``
        with the same options — this is the sweep primitive behind
        :func:`~repro.experiments.sensitivity.budget_sweep` and the
        policy tournament.
        """
        from repro.sim.batch import simulate_cap_batch

        if not specs:
            raise ValueError("launch_batch needs at least one (policy, budget)")
        with span("manager.launch_batch", mix=scheduled.mix.name,
                  scenarios=len(specs)):
            char = characterization if characterization is not None \
                else self.characterize(scheduled)
            allocations: List[PowerAllocation] = []
            caps_rows: List[np.ndarray] = []
            for policy, budget_w in specs:
                allocation = self.plan(scheduled, policy, budget_w, char)
                effective_caps = allocation.caps_w
                if policy.application_aware:
                    effective_caps = apply_job_runtime(char, effective_caps)
                allocations.append(allocation)
                caps_rows.append(effective_caps)
            results = simulate_cap_batch(
                scheduled.mix,
                np.stack(caps_rows),
                scheduled.efficiencies,
                self.model,
                options,
                policy_names=[policy.name for policy, _ in specs],
                budgets_w=[float(budget_w) for _, budget_w in specs],
            )
        if enabled():
            get_registry().counter("manager.power_manager.launches").inc(len(specs))
            emit(
                "manager.power_manager", "launch_batch_complete",
                mix=scheduled.mix.name, scenarios=len(specs),
                policies=sorted({policy.name for policy, _ in specs}),
            )
        return [
            ManagedRun(
                scheduled=scheduled,
                characterization=char,
                allocation=allocation,
                result=result,
            )
            for allocation, result in zip(allocations, results)
        ]
