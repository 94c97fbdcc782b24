"""Precharacterized: per-job static caps with no system awareness.

Paper §III-B: "a user pre-characterizes a workload, and submits the job
with a cap equal to the average power consumption at the most power-hungry
node.  This policy does not consider system-wide power limits."

Because it ignores the budget, the policy over-subscribes the system at
every budget below ``max`` ("The Precharacterized policy is unable to stay
within the system-wide budget for all except the high power cap case, so
it is omitted from further plots" — §VI-A).  The allocation records the
overshoot in its notes so the Fig. 7 bars can show bars above 100 %.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import PowerAllocation
from repro.core.policy import Policy

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["PrecharacterizedPolicy"]


class PrecharacterizedPolicy(Policy):
    """Every host capped at its job's most power-hungry observed node."""

    name = "Precharacterized"
    system_power_aware = False
    application_aware = False

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        job_cap = char.job_max_monitor_power_w()
        caps = job_cap[char.host_job_index()].astype(float)
        total = float(np.sum(caps))
        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=caps,
            unallocated_w=max(budget_w - total, 0.0),
            notes={"overshoot_w": max(total - budget_w, 0.0)},
        )
