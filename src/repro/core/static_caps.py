"""StaticCaps: uniform distribution, workload-clipped — the baseline.

Paper §III-B: "system power is uniformly distributed to all nodes in the
cluster.  A static cap is applied for each job, using the max of average
powers from all nodes in the job's monitor characterization run."  The
cap for every host is therefore the smaller of its uniform share and its
job's observed per-node maximum; the clipped power is *not* redistributed
(that is precisely the waste ``MinimizeWaste`` exists to recover).

"Note that this policy's final state is the same as the initial state of
the MinimizeWaste and MixedAdaptive power-sharing policies" — at budgets
where the uniform share is below every job's clip level, StaticCaps is the
pure uniform allocation.

Every Fig. 8 metric is reported relative to this policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import PowerAllocation
from repro.core.policy import Policy

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["StaticCapsPolicy"]


class StaticCapsPolicy(Policy):
    """Uniform share, clipped at each job's max observed node power."""

    name = "StaticCaps"
    system_power_aware = True
    application_aware = False

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        uniform = self.uniform_share(char, budget_w)
        job_clip = char.job_max_monitor_power_w()
        clip_per_host = job_clip[char.host_job_index()]
        caps = np.minimum(uniform, clip_per_host)
        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=caps,
            unallocated_w=budget_w - float(np.sum(caps)),
            notes={"uniform_share_w": uniform},
        )
