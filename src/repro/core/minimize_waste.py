"""MinimizeWaste: system-aware, performance-agnostic power sharing.

Paper §III-B: "MinimizeWaste shares system power across hosts, to minimize
unused power budget.  This policy is intended to statically emulate the
dynamic approach documented in SLURM's real-time power management feature,
which is full-system-aware.  Our policy first distributes power caps across
jobs.  It then reduces the budget for low-power jobs to minimize unused
(wasted) power budgets, and evenly redistributes power to high-power jobs.
The power is removed from and added to jobs based on the observed
performance-agnostic power usage (obtained from GEOPM reports) for each
workload.  Surplus power is redistributed, weighted by the difference
between minimum settable power and currently assigned power."

Concretely:

1. uniform per-host share of the system budget;
2. hosts observed to draw less than their share are trimmed to their
   observed (monitor) power — the trimmed power becomes the surplus pool;
3. the pool is granted to power-bound hosts (observed power above their
   share), weighted by ``assigned - floor``, bounded by their observed
   power (the policy has no performance data, so observed draw is the
   only sensible ceiling).

Any pool that remains (every host at its observed power) is left
unallocated: the policy minimises *waste*, it does not invent demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import PowerAllocation, distribute_weighted
from repro.core.policy import Policy

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["MinimizeWastePolicy"]


class MinimizeWastePolicy(Policy):
    """Trim to observed power, redistribute surplus to power-bound hosts."""

    name = "MinimizeWaste"
    system_power_aware = True
    application_aware = False

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        uniform = self.uniform_share(char, budget_w)
        observed = char.monitor_power_w
        floor = char.min_cap_w

        # Step 1-2: uniform, then trim over-provisioned hosts to observed
        # draw (never below the RAPL floor).
        trimmed = np.minimum(uniform, np.maximum(observed, floor))
        pool = budget_w - float(np.sum(trimmed))
        pool = max(pool, 0.0)

        # Step 3: grant the pool to hosts whose observed draw exceeds the
        # assignment, weighted by distance from the floor.
        bounds = np.maximum(observed, trimmed)
        weights = np.where(observed > trimmed, trimmed - floor, 0.0)
        caps, leftover = distribute_weighted(pool, trimmed, weights, bounds)

        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=caps,
            unallocated_w=leftover,
            notes={
                "uniform_share_w": uniform,
                "trimmed_pool_w": pool,
            },
        )
