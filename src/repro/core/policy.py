"""The policy abstraction.

A policy maps a mix characterization and a system power budget to per-host
node power caps.  Policies never see the simulator or the hardware model —
only GEOPM-report-derived characterization arrays — which mirrors where
they would run in production (inside the resource manager, consuming job
runtime reports) and is what makes the paper's comparison fair: every
policy gets exactly the same information its real counterpart would have.

:meth:`Policy.program` is the one rule that turns a policy into the caps
its jobs run under; for application-aware policies it reshapes each
job's allocation the way the in-job balancer does
(:func:`apply_job_runtime`).  That reshaping, like JobAdaptive's
allocation, runs per group of equal-length job blocks
(``MixCharacterization.job_groups()``): the group's blocks are gathered as
``(R, k)`` rows, and their row sums and one row-wise
:func:`~repro.core.allocation.fit_to_budget` call replace a Python
iteration per job, bit for bit.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.core.allocation import PowerAllocation, fit_to_budget
from repro.units import ensure_positive

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["Policy", "apply_job_runtime"]


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

    Jobs are handled a block length at a time (see the module docstring);
    the result equals the one-job-at-a-time rule bit for bit.
    """
    caps = np.asarray(caps_w, dtype=float)
    floor = char.min_cap_w
    effective = np.maximum(char.needed_cap_w, floor)
    for _, index in char.job_groups():
        # One row per job of this block length: the job budgets are the
        # row sums of the programmed caps, and only the jobs whose needs
        # overflow their budget are scaled.
        budgets = caps[index].sum(axis=-1)
        targets = effective[index]
        over = (targets.sum(axis=-1) > budgets).nonzero()[0]
        if over.size:
            effective[index[over]] = fit_to_budget(
                targets[over], budgets[over], floor
            )
    return effective


class Policy(abc.ABC):
    """Base class for system-wide power management policies.

    Subclasses implement :meth:`_allocate`; the public :meth:`allocate`
    wraps it with input validation and the RAPL clamp so every policy's
    output is guaranteed programmable.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether the policy may move power across job boundaries.
    system_power_aware: bool = False

    #: Whether the policy uses performance-aware (balancer) characterization.
    application_aware: bool = False

    def allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        """Compute per-host caps for ``budget_w`` on the characterized mix."""
        ensure_positive(budget_w, "budget_w")
        allocation = self._allocate(char, float(budget_w))
        caps = np.clip(allocation.caps_w, char.min_cap_w, char.tdp_w)
        if not np.array_equal(caps, allocation.caps_w):
            allocation = PowerAllocation(
                policy_name=allocation.policy_name,
                mix_name=allocation.mix_name,
                budget_w=allocation.budget_w,
                caps_w=caps,
                unallocated_w=allocation.unallocated_w,
                notes=allocation.notes,
            )
        return allocation

    def program(
        self, char: MixCharacterization, budget_w: float
    ) -> Tuple[PowerAllocation, np.ndarray]:
        """The allocation at ``budget_w`` and the caps its jobs run under.

        The paper's central split (Table 1): application-aware policies
        launch their jobs under the in-job GEOPM balancer, so the caps in
        force are the allocation reshaped per job by
        :func:`apply_job_runtime`; application-agnostic policies launch
        under the monitor/governor agents and run at the allocated caps.
        Every planner — launch, batch memo, degradation ladder, emergency
        response, online loop, phased runs — programs caps through this
        one rule; budget checks stay with the caller.
        """
        allocation = self.allocate(char, budget_w)
        caps = allocation.caps_w
        if self.application_aware:
            caps = apply_job_runtime(char, caps)
        return allocation, caps

    @abc.abstractmethod
    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        """Policy-specific allocation; returns caps before the RAPL clamp."""

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, bool]:
        """Visibility flags, as in the paper's policy comparison table."""
        return {
            "system_power_aware": self.system_power_aware,
            "application_aware": self.application_aware,
        }

    @staticmethod
    def uniform_share(char: MixCharacterization, budget_w: float) -> float:
        """The per-host uniform share — step 1 of every sharing policy."""
        return budget_w / char.host_count
