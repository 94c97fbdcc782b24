"""The policy abstraction.

A policy maps a mix characterization and a system power budget to per-host
node power caps.  Policies never see the simulator or the hardware model —
only GEOPM-report-derived characterization arrays — which mirrors where
they would run in production (inside the resource manager, consuming job
runtime reports) and is what makes the paper's comparison fair: every
policy gets exactly the same information its real counterpart would have.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.allocation import PowerAllocation
from repro.units import ensure_positive

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["Policy"]


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
