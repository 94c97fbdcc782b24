"""FrequencyCapped: an EAR-style uniform-frequency alternative policy.

The paper's related work (§VII-B) surveys frequency-oriented site tools —
EAR "detects application loops and scales frequency for reduced energy
consumption".  Some sites cap *frequency* uniformly instead of power:
every node gets the largest common frequency the budget can sustain.
This extension policy implements that scheme over the RAPL substrate so
it can be compared head-to-head with the paper's power-oriented policies.

Mechanically: binary-search the highest frequency ``f`` such that the sum
over hosts of the power needed to reach ``f`` (given each host's activity
and part quality, as reflected in its observed power) fits the budget;
then cap each host at exactly its ``f``-sustaining power.

The contrast with ``StaticCaps`` is instructive: a uniform *power* cap
lets efficient parts clock higher (performance variance, uniform power);
a uniform *frequency* cap equalises performance and lets power vary —
under hardware variation the two divide the same budget differently.

The policy is deliberately not in the paper's registry (it is not one of
the five evaluated policies); construct it directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import PowerAllocation
from repro.core.policy import Policy
from repro.hardware.node import NodePowerModel

if TYPE_CHECKING:
    from repro.characterization.mix_characterization import MixCharacterization

__all__ = ["FrequencyCappedPolicy"]


class FrequencyCappedPolicy(Policy):
    """Uniform frequency, per-host power — the EAR-style alternative.

    Parameters
    ----------
    power_model:
        Node power model used to translate frequency targets into caps.
        Unlike the paper's five policies this one needs a hardware model
        (frequency is not observable from characterization data alone);
        it receives the same model the site calibrated for its nodes.
    efficiencies:
        Per-host variation multipliers for the allocated nodes, in mix
        host order.
    kappas:
        Per-host activity factors (from the workload layout).
    """

    name = "FrequencyCapped"
    system_power_aware = True
    application_aware = False

    def __init__(self, power_model: NodePowerModel, efficiencies: np.ndarray,
                 kappas: np.ndarray) -> None:
        eff = np.asarray(efficiencies, dtype=float)
        kap = np.asarray(kappas, dtype=float)
        if eff.shape != kap.shape:
            raise ValueError("efficiencies and kappas must share a shape")
        self._power_model = power_model
        self._eff = eff
        self._kappa = kap

    def _power_for_freq(self, freq_ghz: float) -> np.ndarray:
        """Per-host node power that sustains ``freq_ghz``."""
        return self._power_model.power_at_freq(freq_ghz, self._kappa, self._eff)

    def _allocate(self, char: MixCharacterization, budget_w: float) -> PowerAllocation:
        if char.host_count != self._eff.size:
            raise ValueError(
                f"policy built for {self._eff.size} hosts, characterization "
                f"has {char.host_count}"
            )
        spec = self._power_model.spec
        lo, hi = spec.min_freq_ghz, spec.turbo_freq_ghz

        def total_power(freq: float) -> float:
            caps = self._power_model.clamp_cap(self._power_for_freq(freq))
            return float(np.sum(caps))

        if total_power(hi) <= budget_w:
            freq = hi
        elif total_power(lo) >= budget_w:
            freq = lo
        else:
            for _ in range(60):  # ~1e-18 GHz resolution; exact enough
                mid = 0.5 * (lo + hi)
                if total_power(mid) <= budget_w:
                    lo = mid
                else:
                    hi = mid
            freq = lo

        caps = self._power_model.clamp_cap(self._power_for_freq(freq))
        total = float(np.sum(caps))
        # The floor clamp can push the total over a very tight budget;
        # scale back onto it (hosts at the floor stay at the floor).
        if total > budget_w:
            from repro.core.allocation import fit_to_budget

            caps = fit_to_budget(caps, budget_w, char.min_cap_w)
        return PowerAllocation(
            policy_name=self.name,
            mix_name=char.mix_name,
            budget_w=budget_w,
            caps_w=caps,
            unallocated_w=max(budget_w - float(np.sum(caps)), 0.0),
            notes={"target_freq_ghz": freq},
        )
