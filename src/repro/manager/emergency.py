"""Emergency power capping: responding to a sudden budget change.

The paper's opening problem statement: "Power limiting is needed in order
to respond to greater-than-expected power demand", and its conclusion
asks for a policy that "minimizes the loss of quality of service in
exceptional cases."  This module implements the two-stage emergency
response a production resource manager performs when the facility sheds
load (a feeder trips, a cooling unit fails, a demand-response event):

1. **Clamp** — immediately scale every running host's cap so the cluster
   is guaranteed under the new budget within one RAPL window.  The clamp
   is proportional above the floor (every job hurts, none dies) — the
   fastest safe actuation, needing no characterization at all.  It is
   the degradation ladder's clamp,
   :func:`~repro.faults.degradation.proportional_clamp_caps`.
2. **Re-plan** — re-run the site's allocation policy against the new
   budget using the existing characterization, recovering whatever
   performance the clamp left on the table.

:func:`respond_to_budget_change` programs the pre-change and re-planned
caps through :meth:`~repro.core.policy.Policy.program` and simulates the
baseline, clamp and re-plan as one three-row engine pass, for *any*
budget change — drops clamp-then-re-plan; restores and ramp-ups (the
fault schedule's recovery events) skip the clamp and re-plan straight at
the new budget.  :func:`respond_to_budget_drop` keeps the historical
drop-only entry point.

Honesty contracts (each was a real bug):

* an infeasible budget (below ``hosts x floor``) is *reported* —
  :class:`EmergencyResponse` carries ``clamp_feasible`` /
  ``floor_power_w``, and the strict clamp raises
  :class:`~repro.faults.degradation.InfeasibleBudgetError` — instead of
  silently returning an all-floor state that still exceeds the budget;
* budget compliance is judged on the *power trace peak* (plus recorded
  overshoot watt-seconds), not the run mean, so transient overshoot
  within a run can no longer pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.characterization.mix_characterization import MixCharacterization
from repro.core.policy import Policy
from repro.faults.degradation import proportional_clamp_caps
from repro.manager.scheduler import ScheduledMix
from repro.sim.batch import simulate_cap_batch
from repro.sim.engine import ExecutionModel
from repro.sim.execution import SimulationOptions
from repro.sim.results import MixRunResult
from repro.telemetry import emit, enabled, get_registry
from repro.units import ensure_positive

__all__ = [
    "EmergencyResponse",
    "respond_to_budget_change",
    "respond_to_budget_drop",
]


@dataclass(frozen=True)
class EmergencyResponse:
    """Outcome of the two-stage response to a budget change."""

    old_budget_w: float
    new_budget_w: float
    baseline: MixRunResult
    clamped: MixRunResult
    replanned: MixRunResult
    #: Whether the stage-1 clamp could meet the new budget at all
    #: (``False`` exactly when the budget sits below ``hosts x floor``).
    clamp_feasible: bool = True
    #: The all-floor cluster power — the clamp's hard lower limit.
    floor_power_w: float = 0.0

    def qos_impact(self) -> Dict[str, float]:
        """Slowdowns relative to the pre-emergency execution.

        ``clamp_slowdown`` is what the blunt stage-1 response costs;
        ``replanned_slowdown`` what remains after stage 2; ``recovered``
        the fraction of the clamp's penalty that re-planning recovers.
        On a budget restore (no clamp stage) both slowdowns are typically
        negative — the re-plan *speeds the mix up*.
        """
        base = self.baseline.mean_elapsed_s
        clamp = self.clamped.mean_elapsed_s / base - 1.0
        replan = self.replanned.mean_elapsed_s / base - 1.0
        recovered = 0.0 if clamp <= 0 else max(0.0, (clamp - replan) / clamp)
        return {
            "clamp_slowdown": clamp,
            "replanned_slowdown": replan,
            "recovered": recovered,
        }

    def overshoot_watt_seconds(self) -> Dict[str, float]:
        """Watt-seconds each stage spends above the new budget.

        Judged on the per-iteration power trace, so transient excursions
        count even when the run mean sits under the budget.
        """
        return {
            "clamp": self.clamped.budget_overshoot_watt_seconds(
                self.new_budget_w
            ),
            "replanned": self.replanned.budget_overshoot_watt_seconds(
                self.new_budget_w
            ),
        }

    def within_new_budget(self) -> bool:
        """Both response stages hold the cluster under the new budget.

        Checks the *peak* of the per-iteration power trace (the old mean
        check let transient overshoot pass) and reports ``False`` outright
        when the clamp was infeasible — an all-floor state above the
        budget is not a response that "meets" anything.
        """
        if not self.clamp_feasible:
            return False
        tolerance = self.new_budget_w * 1.001
        return (
            self.clamped.peak_system_power_w <= tolerance
            and self.replanned.peak_system_power_w <= tolerance
        )


def respond_to_budget_change(
    scheduled: ScheduledMix,
    char: MixCharacterization,
    policy: Policy,
    old_budget_w: float,
    new_budget_w: float,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
) -> EmergencyResponse:
    """Simulate the response to any budget change: baseline, clamp, re-plan.

    ``policy`` allocates both the pre-change caps (at ``old_budget_w``)
    and the stage-2 re-plan (at ``new_budget_w``).  On a *drop*, stage 1
    clamps the pre-change caps proportionally (the interrupt-handler
    response).  On a *restore or increase* — the fault schedule's
    recovery events — there is nothing to clamp: stage 1 simply keeps the
    old caps in force (already under the larger budget) and stage 2
    re-plans to reclaim the headroom.  Equal budgets degenerate to a
    re-plan-only no-op, so callers replaying fault timelines need no
    special-casing at the boundary.
    """
    ensure_positive(old_budget_w, "old_budget_w")
    ensure_positive(new_budget_w, "new_budget_w")
    is_drop = new_budget_w < old_budget_w
    floor_power_w = char.host_count * char.min_cap_w
    clamp_feasible = float(new_budget_w) >= floor_power_w

    _, before = policy.program(char, old_budget_w)
    if is_drop:
        clamped_caps = proportional_clamp_caps(before, new_budget_w,
                                               char.min_cap_w)
    else:
        # Rising (or flat) budget: the old caps already comply; the only
        # "immediate" action is to keep them while stage 2 re-plans.
        clamped_caps = before
    _, replan_caps = policy.program(char, new_budget_w)
    baseline, clamped, replanned = simulate_cap_batch(
        scheduled.mix, np.stack([before, clamped_caps, replan_caps]),
        scheduled.efficiencies, model, options, policy_names=policy.name,
        budgets_w=[old_budget_w, new_budget_w, new_budget_w],
    )

    response = EmergencyResponse(
        old_budget_w=float(old_budget_w),
        new_budget_w=float(new_budget_w),
        baseline=baseline,
        clamped=clamped,
        replanned=replanned,
        clamp_feasible=clamp_feasible,
        floor_power_w=floor_power_w,
    )
    if enabled():
        registry = get_registry()
        registry.counter("manager.emergency.responses").inc()
        if not clamp_feasible:
            registry.counter("manager.emergency.infeasible").inc()
        overshoot = response.overshoot_watt_seconds()
        emit(
            "manager.emergency", "budget_change_response",
            policy=policy.name, direction="drop" if is_drop else "rise",
            old_budget_w=float(old_budget_w),
            new_budget_w=float(new_budget_w),
            clamp_feasible=clamp_feasible,
            clamp_overshoot_ws=overshoot["clamp"],
            replanned_overshoot_ws=overshoot["replanned"],
        )
    return response


def respond_to_budget_drop(
    scheduled: ScheduledMix,
    char: MixCharacterization,
    policy: Policy,
    old_budget_w: float,
    new_budget_w: float,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
) -> EmergencyResponse:
    """The drop-only entry point (see :func:`respond_to_budget_change`).

    Kept for callers modelling a strict emergency: passing a flat or
    rising budget here is a programming error and raises ``ValueError``.
    """
    ensure_positive(old_budget_w, "old_budget_w")
    ensure_positive(new_budget_w, "new_budget_w")
    if new_budget_w >= old_budget_w:
        raise ValueError("an emergency is a budget *drop*")
    return respond_to_budget_change(
        scheduled, char, policy, old_budget_w, new_budget_w, model, options
    )
