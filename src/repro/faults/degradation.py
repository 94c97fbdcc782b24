"""Graceful degradation: planning power when the world is misbehaving.

The manager's fault-time decision ladder, from best to worst information:

1. **Re-plan** — characterization is available, so run the site policy
   against the new conditions through
   :meth:`~repro.core.policy.Policy.program`, with *bounded retry*: a
   policy whose allocation comes back over budget (stale
   characterization, float drift on a ramping budget) is retried against
   a slightly shaved budget (``retry_margin`` per attempt,
   ``max_retries`` times), each retry charging simulated ``backoff_s`` of
   decision latency.  The tier returns the caps to program: for an
   application-aware policy, the allocation reshaped per job by the
   in-job balancer.
2. **Proportional clamp** — characterization is unavailable (sensor
   dropout, first batch after a cold start): fall back to
   :func:`proportional_clamp_caps`, which needs no job knowledge at all —
   scale every running cap's above-floor share onto the budget.  The
   emergency response's stage 1 is the same clamp.
3. **All-floor** — the budget cannot cover even ``hosts x floor``: pin
   every host at the RAPL floor and *say so* (``feasible=False``); the
   operator must shed load.  The strict clamp reports the same case as
   :class:`InfeasibleBudgetError`.

Every decision is recorded as a :class:`DegradationDecision` and emitted
through the telemetry bus (``faults.degradation.*``), so a resilience run
can audit *which* tier produced every batch's caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.allocation import fit_to_budget
from repro.core.policy import Policy
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive

__all__ = [
    "DegradationConfig",
    "DegradationDecision",
    "InfeasibleBudgetError",
    "proportional_clamp_caps",
    "plan_with_degradation",
]


class InfeasibleBudgetError(ValueError):
    """A budget below the cluster's RAPL floor: no cap vector can meet it.

    Carries the numbers the operator needs to decide what to kill:
    ``budget_w`` (what was asked) and ``floor_power_w`` (the best RAPL
    can do — every host pinned at the floor).
    """

    def __init__(self, budget_w: float, floor_power_w: float,
                 host_count: int) -> None:
        self.budget_w = float(budget_w)
        self.floor_power_w = float(floor_power_w)
        self.host_count = int(host_count)
        super().__init__(
            f"budget {self.budget_w:.1f} W is infeasible: {host_count} "
            f"hosts at the RAPL floor still draw {self.floor_power_w:.1f} W"
        )


@dataclass(frozen=True)
class DegradationConfig:
    """Retry/backoff knobs of the degradation ladder."""

    #: Extra planning attempts after the first failed one.
    max_retries: int = 2
    #: Budget shaved per retry (fraction of the requested budget).
    retry_margin: float = 0.005
    #: Simulated decision latency charged per retry (seconds).
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 <= self.retry_margin < 1.0:
            raise ValueError("retry_margin must be in [0, 1)")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")


@dataclass(frozen=True)
class DegradationDecision:
    """Which tier produced the caps, and at what cost.

    Attributes
    ----------
    tier:
        ``"replan"`` (policy allocation succeeded), ``"clamp"`` (the
        characterization-free proportional fallback), or ``"floor"``
        (infeasible budget; all hosts pinned at the RAPL floor).
    attempts:
        Planning attempts consumed (1 on a first-try success; 0 when the
        ladder skipped straight to a fallback).
    backoff_s:
        Simulated decision latency accumulated by retries.
    caps_w:
        The per-host caps to program (balancer-shaped on the
        ``"replan"`` tier of an application-aware policy).
    planned_budget_w:
        The budget the successful attempt actually planned against
        (shaved below the request by retries).
    feasible:
        ``False`` only on the ``"floor"`` tier — the caps *exceed* the
        budget and the caller must surface that, not hide it.
    notes:
        Free-form diagnostics (requested budget, floor power, ...).
    """

    tier: str
    attempts: int
    backoff_s: float
    caps_w: np.ndarray
    planned_budget_w: float
    feasible: bool
    notes: Dict[str, float] = field(default_factory=dict)


def proportional_clamp_caps(
    current_caps_w: np.ndarray,
    budget_w: float,
    min_cap_w: float,
    strict: bool = False,
) -> np.ndarray:
    """The characterization-free clamp of running caps onto a budget.

    Scales the above-floor portion of every cap by a common factor so the
    sum meets ``budget_w`` — no characterization, no job knowledge, safe
    to fire from an interrupt handler.  It is the ladder's clamp tier and
    stage 1 of :func:`~repro.manager.emergency.respond_to_budget_change`.

    If even the all-floor state exceeds the budget the clamp *cannot*
    succeed: with ``strict=True`` it raises :class:`InfeasibleBudgetError`
    (carrying the floor power); with the default ``strict=False`` it
    returns the all-floor state — RAPL can do no more, the operator must
    kill jobs — and callers are expected to check feasibility rather than
    trust the sum.
    """
    ensure_positive(budget_w, "budget_w")
    caps = np.asarray(current_caps_w, dtype=float)
    floor_power = caps.size * float(min_cap_w)
    if strict and floor_power > float(budget_w):
        raise InfeasibleBudgetError(budget_w, floor_power, caps.size)
    return fit_to_budget(np.maximum(caps, min_cap_w), float(budget_w),
                         float(min_cap_w))


def plan_with_degradation(
    policy: Policy,
    budget_w: float,
    characterization=None,
    current_caps_w: Optional[np.ndarray] = None,
    host_count: Optional[int] = None,
    min_cap_w: float = 136.0,
    tdp_w: float = 240.0,
    config: Optional[DegradationConfig] = None,
) -> DegradationDecision:
    """Walk the degradation ladder and return the caps to program.

    ``characterization`` being ``None`` models the sensor-dropout /
    cold-start case; ``current_caps_w`` seeds the clamp fallback (uniform
    TDP when absent — the power-on state).  ``host_count`` is only needed
    when neither is given.
    """
    config = config if config is not None else DegradationConfig()
    budget = float(budget_w)
    if characterization is not None:
        hosts = characterization.host_count
        min_cap_w = characterization.min_cap_w
        tdp_w = characterization.tdp_w
    elif current_caps_w is not None:
        hosts = int(np.asarray(current_caps_w).size)
    elif host_count is not None:
        hosts = int(host_count)
    else:
        raise ValueError(
            "need a characterization, current caps, or a host count"
        )
    floor_power = hosts * float(min_cap_w)

    def _emit(decision: DegradationDecision) -> DegradationDecision:
        if enabled():
            registry = get_registry()
            registry.counter(f"faults.degradation.{decision.tier}").inc()
            if decision.attempts > 1:
                registry.counter("faults.degradation.retries").inc(
                    decision.attempts - 1
                )
            emit("faults.degradation", "plan_degraded",
                 tier=decision.tier, attempts=decision.attempts,
                 feasible=decision.feasible,
                 requested_budget_w=budget,
                 planned_budget_w=decision.planned_budget_w,
                 backoff_s=decision.backoff_s)
        return decision

    def _ladder() -> DegradationDecision:
        # Tier 3 short-circuit: nothing can fit.
        if budget < floor_power:
            return _emit(DegradationDecision(
                tier="floor", attempts=0, backoff_s=0.0,
                caps_w=np.full(hosts, float(min_cap_w)),
                planned_budget_w=budget, feasible=False,
                notes={"floor_power_w": floor_power,
                       "requested_budget_w": budget},
            ))

        # Tier 1: policy re-plan with bounded retry/backoff.
        if characterization is not None:
            for attempt in range(config.max_retries + 1):
                planned = budget * (1.0 - config.retry_margin * attempt)
                if planned < floor_power:
                    break
                try:
                    allocation, caps = policy.program(characterization,
                                                      planned)
                except (ValueError, ArithmeticError):
                    continue
                if policy.system_power_aware and not allocation.within_budget():
                    continue
                return _emit(DegradationDecision(
                    tier="replan", attempts=attempt + 1,
                    backoff_s=attempt * config.backoff_s,
                    caps_w=caps, planned_budget_w=planned,
                    feasible=True,
                    notes={"requested_budget_w": budget},
                ))

        # Tier 2: characterization-free proportional clamp.
        if current_caps_w is not None:
            seed_caps = np.asarray(current_caps_w, dtype=float)
        else:
            seed_caps = np.full(hosts, float(tdp_w))
        attempts_spent = (config.max_retries + 1) \
            if characterization is not None else 0
        return _emit(DegradationDecision(
            tier="clamp", attempts=attempts_spent,
            backoff_s=attempts_spent * config.backoff_s
            if characterization is not None else 0.0,
            caps_w=proportional_clamp_caps(seed_caps, budget, min_cap_w),
            planned_budget_w=budget, feasible=True,
            notes={"requested_budget_w": budget,
                   "floor_power_w": floor_power},
        ))

    with span("faults.degradation.plan", policy=policy.name,
              budget_w=budget, hosts=hosts,
              blinded=characterization is None) as trace_sp:
        decision = _ladder()
        if trace_sp is not None:
            trace_sp.set_attribute("tier", decision.tier)
            trace_sp.set_attribute("attempts", decision.attempts)
            trace_sp.set_attribute("feasible", decision.feasible)
    return decision
