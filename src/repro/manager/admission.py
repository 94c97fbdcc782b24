"""Power-aware admission control: which queued jobs may start now.

The paper's §II frames the site operator's problem: "Power delivery
infrastructure must ensure that a site's total power consumption does not
exceed the deliverable power capacity."  Before any of the §III policies
can divide a budget among *running* jobs, the resource manager must decide
which jobs to admit at all — the admission step SLURM performs with its
power plugin.

:class:`PowerAwareAdmission` implements the standard greedy scheme over
characterization estimates:

* each pending job's power demand is estimated from its characterization
  (needed power when available, a user hint, or a worst-case TDP bound —
  in that order of preference);
* jobs are admitted in queue order while both node and power capacity
  remain (optionally with backfill: a later job that fits may jump a
  blocked head-of-queue job, the classic EASY-backfill compromise);
* the admitted set's total estimate never exceeds the budget, so the
  downstream allocation policy always starts from a feasible state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.characterization.mix_characterization import characterize_mix
from repro.manager.queue import JobQueue, JobRequest
from repro.sim.engine import ExecutionModel
from repro.telemetry import emit, enabled, get_registry
from repro.units import ensure_positive
from repro.workload.job import WorkloadMix

__all__ = ["AdmissionDecision", "PowerAwareAdmission"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission pass."""

    admitted: Tuple[str, ...]
    deferred: Tuple[str, ...]
    estimates_w: Dict[str, float]
    budget_w: float
    nodes_available: int
    #: Total nodes the admitted set occupies.
    admitted_nodes: int
    #: Fractional head-room the admitter held back; the effective limit
    #: the admitted set was judged against is :attr:`usable_budget_w`.
    safety_margin: float = 0.0
    #: Whether this pass held the head-of-queue reservation (no backfill
    #: past a blocked head that exhausted its bypass allowance).
    reserved_head: bool = False

    @property
    def admitted_power_w(self) -> float:
        """Total estimated draw of the admitted set."""
        return sum(self.estimates_w[name] for name in self.admitted)

    @property
    def usable_budget_w(self) -> float:
        """The budget the admitter actually admitted against."""
        return (1.0 - self.safety_margin) * self.budget_w

    def feasible(self) -> bool:
        """Whether the admitted set respects the admission limit.

        Judged against :attr:`usable_budget_w` — the same
        ``(1 - safety_margin) x budget`` the admitter admitted against —
        not the raw budget, so a decision that consumed its head-room is
        reported as infeasible rather than silently passing.
        """
        return self.admitted_power_w <= self.usable_budget_w + 1e-6


class PowerAwareAdmission:
    """Greedy (optionally backfilling) power-aware admission.

    Parameters
    ----------
    model:
        Physics bundle used to estimate per-job demand when no user hint
        is given.
    backfill:
        When True, a job behind a blocked one may be admitted if it fits
        in the remaining capacity (EASY-style).  When False, admission
        stops at the first job that does not fit (strict FIFO).
    safety_margin:
        Fractional head-room kept against estimate error: a job is
        admitted only if the admitted-set estimate stays below
        ``(1 - margin) x budget``.
    max_bypass_rounds:
        Starvation bound on EASY backfill: once the *same* blocked
        head-of-queue job has been jumped on this many consecutive
        admission passes, the head gains a reservation — no later job is
        admitted past it until it starts (capacity drains toward the
        starved job instead of being re-filled forever).  ``None``
        disables the bound (the classic unbounded-bypass behaviour).
    """

    def __init__(
        self,
        model: Optional[ExecutionModel] = None,
        backfill: bool = True,
        safety_margin: float = 0.02,
        max_bypass_rounds: Optional[int] = 8,
    ) -> None:
        if not 0.0 <= safety_margin < 1.0:
            raise ValueError("safety_margin must be in [0, 1)")
        if max_bypass_rounds is not None and max_bypass_rounds < 1:
            raise ValueError("max_bypass_rounds must be positive or None")
        self.model = model if model is not None else ExecutionModel()
        self.backfill = backfill
        self.safety_margin = safety_margin
        self.max_bypass_rounds = max_bypass_rounds
        # Aging state for the starvation bound: the current blocked head
        # and how many marked passes have admitted work past it.  O(1)
        # memory regardless of stream length.
        self._blocked_head: Optional[str] = None
        self._blocked_rounds: int = 0
        # Characterization estimates keyed by (config, nodes): bounded by
        # the distinct job *shapes* seen, not the jobs submitted, so a
        # million-arrival stream of a few job classes estimates each
        # class once.  User hints never enter the cache (they are O(1)).
        self._estimate_cache: Dict[Tuple[object, int], float] = {}

    # ------------------------------------------------------------------
    def estimate_job_power_w(self, request: JobRequest) -> float:
        """Estimated steady-state draw of one job (whole job, W).

        Preference order: the balancer-characterized needed power (what an
        application-aware site knows), then the user's hint scaled by the
        node count, then the TDP worst case.  Whatever the source, the
        estimate is floored at ``node_count x min_cap_w``: RAPL cannot
        cap below the floor, so no job can draw less — admitting against
        a smaller number would hand the allocator an infeasible budget.
        """
        floor_w = request.node_count * self.model.power_model.min_cap_w
        if request.power_hint_w is not None:
            return max(request.power_hint_w * request.node_count, floor_w)
        key = (request.config, request.node_count)
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached
        job = request.to_job()
        mix = WorkloadMix(name=job.name, jobs=(job,))
        char = characterize_mix(
            mix, np.ones(job.node_count), self.model
        )
        estimate = max(float(np.sum(char.needed_power_w)), floor_w)
        self._estimate_cache[key] = estimate
        return estimate

    def decide(
        self,
        queue: JobQueue,
        budget_w: float,
        nodes_available: int,
        mark: bool = True,
    ) -> AdmissionDecision:
        """Admit pending jobs against the budget and node pool.

        With ``mark`` (default) admitted jobs are admitted in the queue
        (PENDING -> ADMITTED); pass False for a dry run.
        """
        ensure_positive(budget_w, "budget_w")
        if nodes_available < 0:
            raise ValueError("nodes_available must be non-negative")

        pending = queue.pending()
        queue_depth = len(pending)
        head_name = pending[0].name if pending else None
        # Head-of-queue reservation: a head that has been backfilled past
        # on max_bypass_rounds consecutive marked passes blocks further
        # bypass, so freed capacity accumulates until it fits.
        reserve_head = (
            self.backfill
            and self.max_bypass_rounds is not None
            and head_name is not None
            and head_name == self._blocked_head
            and self._blocked_rounds >= self.max_bypass_rounds
        )
        allow_backfill = self.backfill and not reserve_head

        usable_w = (1.0 - self.safety_margin) * budget_w
        admitted: List[str] = []
        deferred: List[str] = []
        estimates: Dict[str, float] = {}
        power_used = 0.0
        nodes_used = 0
        blocked = False

        for idx, request in enumerate(pending):
            # Exact early exits (no estimate is computed for the skipped
            # tail, so ``estimates_w`` only covers jobs actually judged):
            # once a blocked head stops a no-backfill pass, or the node
            # pool is exhausted (every job needs >= 1 node), no later job
            # can be admitted — the remaining prefix scan is pure deferral.
            if (blocked and not allow_backfill) \
                    or nodes_used >= nodes_available:
                deferred.extend(r.name for r in pending[idx:])
                blocked = True
                break
            estimate = self.estimate_job_power_w(request)
            estimates[request.name] = estimate
            fits = (
                power_used + estimate <= usable_w
                and nodes_used + request.node_count <= nodes_available
            )
            if fits and (not blocked or allow_backfill):
                admitted.append(request.name)
                power_used += estimate
                nodes_used += request.node_count
            else:
                deferred.append(request.name)
                blocked = True

        if mark:
            for name in admitted:
                queue.admit(name)
            # Age the starvation bound only on marked passes (dry runs
            # must not consume the head's bypass allowance).
            if head_name is None or head_name in admitted:
                self._blocked_head, self._blocked_rounds = None, 0
            elif admitted:
                if head_name != self._blocked_head:
                    self._blocked_head, self._blocked_rounds = head_name, 0
                self._blocked_rounds += 1

        decision = AdmissionDecision(
            admitted=tuple(admitted),
            deferred=tuple(deferred),
            estimates_w=estimates,
            budget_w=budget_w,
            nodes_available=nodes_available,
            admitted_nodes=nodes_used,
            safety_margin=self.safety_margin,
            reserved_head=reserve_head,
        )
        if enabled():
            registry = get_registry()
            registry.counter("manager.admission.passes").inc()
            registry.counter("manager.admission.admitted").inc(len(admitted))
            registry.counter("manager.admission.deferred").inc(len(deferred))
            emit(
                "manager.admission", "admission_decision",
                admitted=len(admitted), deferred=len(deferred),
                queue_depth=queue_depth, budget_w=float(budget_w),
                admitted_power_w=power_used, nodes_used=nodes_used,
                nodes_available=nodes_available, dry_run=not mark,
                reserved_head=reserve_head,
            )
        return decision
