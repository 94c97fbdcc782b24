"""JobAdaptive: performance-aware sharing *within* jobs only.

Paper §III-B: "For the JobAdaptive policy, system power is dynamically
shared within jobs to maximize performance, but power cannot be shared
across different jobs.  In other words, the policy is not full-system-
aware.  The system power cap is initially distributed uniformly across
jobs.  Power is further distributed among hosts within each job, based on
the performance-aware characterization data.  If any of the nodes are
assigned a power limit that exceeds an evenly-distributed power cap, then
all nodes in the job have their power caps reduced by the percentage of
their current power consumption that corrects that violation."

And from §VI-C: "the JobAdaptive policy continues to distribute the
remainder power within each workload to the nodes that need the most
power" — the within-job surplus goes to the needy hosts (weighted by
needed power above the floor), up to TDP; it is never exported to another
job, which is exactly the limitation marker-(b) of Fig. 7 exposes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import PowerAllocation, distribute_weighted, fit_to_budget
from repro.core.policy import Policy

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["JobAdaptivePolicy"]


class JobAdaptivePolicy(Policy):
    """Per-job silos: balancer-guided caps inside each job's uniform budget."""

    name = "JobAdaptive"
    system_power_aware = False
    application_aware = True

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        uniform = self.uniform_share(char, budget_w)
        floor = char.min_cap_w
        tdp = char.tdp_w
        caps = np.maximum(char.needed_cap_w, floor)
        surplus_jobs = []

        for jobs, index in char.job_groups():
            hosts = index.shape[1]
            job_budget = uniform * hosts
            targets = caps[index]
            sums = targets.sum(axis=-1)
            over = sums > job_budget
            if over.any():
                # Overflow: proportional reduction onto the job budget.
                caps[index[over]] = fit_to_budget(
                    targets[over], job_budget, floor
                )
            surplus_jobs += zip(jobs[~over].tolist(), sums[~over].tolist())

        # Surplus: push the remainder to the hosts that need the most
        # power, bounded by TDP; the job cannot export it.  Job order
        # keeps the sum of the leftovers in one fixed order.
        leftover_total = 0.0
        for job, total in sorted(surplus_jobs):
            block = char.job_slice(job)
            targets = caps[block]
            hosts = targets.size
            surplus = uniform * hosts - total
            weights = np.maximum(targets - floor, 0.0)
            if not np.any(weights > 0):
                weights = np.ones_like(targets)
            bounds = np.full(hosts, tdp)
            caps[block], leftover = distribute_weighted(
                surplus, targets, weights, bounds
            )
            leftover_total += leftover

        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=caps,
            unallocated_w=leftover_total,
            notes={"uniform_share_w": uniform},
        )
