"""MixedAdaptive: the paper's proposed system- and application-aware policy.

Paper §III-A, verbatim steps:

1. "Uniformly distribute the system power limit among hosts across all
   jobs."
2. "Decrease the allocated power of each host down to the amount of power
   needed on that host, as determined by the previously described power
   balancer pre-characterization runs.  The total amount of decreased
   power is now considered deallocated.  If there is a significant enough
   power shortage, the surplus can be as low as zero watts."
3. "Uniformly distribute the deallocated power among hosts that need more
   power to meet their characterized performance, at most up to the
   characterized power.  Repeat this step until no deallocated power
   remains, or all hosts have been assigned their needed power."
4. "If there is a power surplus, allocate the remainder of power across
   all hosts with a weighted distribution.  The weight of each host is
   determined by the distance from the host's minimum settable power limit
   to the host's allocated power from previous steps."

The policy inherits the balancer's application awareness (step 2 uses
*needed*, not observed, power) and the resource manager's system awareness
(steps 3-4 move power freely across job boundaries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import (
    PowerAllocation,
    distribute_uniform,
    distribute_weighted,
)
from repro.core.policy import Policy

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["MixedAdaptivePolicy"]


class MixedAdaptivePolicy(Policy):
    """The four-step system-application integrated allocation."""

    name = "MixedAdaptive"
    system_power_aware = True
    application_aware = True

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        floor = char.min_cap_w
        tdp = char.tdp_w
        needed = np.maximum(char.needed_cap_w, floor)

        # Step 1: uniform distribution across every host of every job.
        uniform = self.uniform_share(char, budget_w)
        alloc = np.full(char.host_count, uniform)

        # Step 2: trim each host to its needed power; pool the trimmings.
        trimmed = np.minimum(alloc, needed)
        pool = float(np.sum(alloc - trimmed))
        alloc = trimmed

        # Step 3: uniform refill of still-needy hosts, up to needed power.
        alloc, pool = distribute_uniform(pool, alloc, needed)

        # Step 4: weighted spread of any true surplus across all hosts,
        # weighted by distance from the RAPL floor, bounded by TDP.
        weights = np.maximum(alloc - floor, 0.0)
        if not np.any(weights > 0):
            weights = np.ones_like(alloc)
        bounds = np.full(char.host_count, tdp)
        alloc, leftover = distribute_weighted(pool, alloc, weights, bounds)

        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=alloc,
            unallocated_w=leftover,
            notes={
                "uniform_share_w": uniform,
                "needed_total_w": float(np.sum(needed)),
            },
        )
