"""Result containers for simulated mix executions.

A :class:`MixRunResult` holds everything the paper's evaluation metrics
need: per-iteration per-job times (for confidence intervals), per-host
energies and mean powers, and total retired FLOPs.  Derived metrics
(energy-delay product, FLOPS/W, mean system power) are computed lazily from
those primaries so no two definitions can drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["MixRunResult"]

#: Excess power at or below this fraction of the budget is float residue,
#: not overshoot: caps that sum to the budget can reach it to within
#: rounding of the per-iteration energy sums.
OVERSHOOT_RESIDUE = 1e-9


@dataclass(frozen=True, eq=False)
class MixRunResult:
    """Outcome of one simulated execution of a workload mix.

    Attributes
    ----------
    mix_name / policy_name:
        Identification for downstream tables.
    budget_w:
        The system-wide power budget the policy was given.
    job_names:
        Job identifiers, in mix declaration order.
    iteration_times_s:
        Array of shape ``(iterations, jobs)`` — each job's wall time per
        bulk-synchronous iteration (the quantity whose spread produces the
        paper's 95 % confidence intervals).
    iteration_energy_j:
        Array of shape ``(iterations,)`` — total cluster energy per
        iteration, for per-iteration efficiency metrics and their CIs.
    host_energy_j:
        Total energy per host over the job's full execution.
    host_mean_power_w:
        Mean power per host while its job runs.
    host_job_index:
        Job index per host.
    total_gflop:
        FLOPs retired by the whole mix (work is deterministic; only time
        is noisy).
    """

    mix_name: str
    policy_name: str
    budget_w: float
    job_names: Tuple[str, ...]
    iteration_times_s: np.ndarray
    iteration_energy_j: np.ndarray
    host_energy_j: np.ndarray
    host_mean_power_w: np.ndarray
    host_job_index: np.ndarray
    total_gflop: float

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Bit-exact value equality.

        The dataclass-generated ``__eq__`` is unusable here: comparing
        ndarray fields yields elementwise arrays (ambiguous truth
        value), and it would tie equality to field *identity* rather
        than content.  This comparison is exact — every scalar and every
        array element must match bit-for-bit — which is what the
        batched-vs-serial and parallel-vs-serial guarantees are pinned
        against.  Shapes and dtypes are compared through
        ``np.array_equal``; no tolerance is applied on purpose.
        """
        if not isinstance(other, MixRunResult):
            return NotImplemented
        return (
            self.mix_name == other.mix_name
            and self.policy_name == other.policy_name
            and self.budget_w == other.budget_w
            and self.job_names == other.job_names
            and self.total_gflop == other.total_gflop
            and np.array_equal(self.iteration_times_s, other.iteration_times_s)
            and np.array_equal(self.iteration_energy_j, other.iteration_energy_j)
            and np.array_equal(self.host_energy_j, other.host_energy_j)
            and np.array_equal(self.host_mean_power_w, other.host_mean_power_w)
            and np.array_equal(self.host_job_index, other.host_job_index)
        )

    __hash__ = None  # value-equal results are mutable-array holders

    @property
    def job_count(self) -> int:
        """Number of jobs in the mix."""
        return len(self.job_names)

    @property
    def job_elapsed_s(self) -> np.ndarray:
        """Per-job elapsed time (sum of iteration times)."""
        return self.iteration_times_s.sum(axis=0)

    @property
    def mean_elapsed_s(self) -> float:
        """Mean job elapsed time — the paper's "system time dedicated to jobs"."""
        return float(np.mean(self.job_elapsed_s))

    @property
    def total_energy_j(self) -> float:
        """Total CPU energy across all hosts."""
        return float(np.sum(self.host_energy_j))

    @property
    def gflop_per_iteration(self) -> float:
        """FLOPs retired per bulk-synchronous iteration (deterministic)."""
        return self.total_gflop / self.iteration_times_s.shape[0]

    @property
    def job_energy_j(self) -> np.ndarray:
        """Energy per job (sum over its hosts)."""
        return np.bincount(
            self.host_job_index, weights=self.host_energy_j, minlength=self.job_count
        )

    @property
    def mean_system_power_w(self) -> float:
        """Mean cluster power while jobs run.

        Sum over hosts of each host's average-while-running power: the
        steady-state draw a facility meter would read during the mix, and
        the quantity Fig. 7 normalises by the system budget.
        """
        return float(np.sum(self.host_mean_power_w))

    @property
    def iteration_power_w(self) -> np.ndarray:
        """Per-iteration mean system power (W), shape ``(iterations,)``.

        Iteration ``i``'s cluster energy over its wall time (the longest
        job's iteration — the window in which all of that energy lands
        under the bulk-synchronous model).  This is the trace a facility
        meter sampling at iteration granularity would record, and the
        series transient-overshoot checks must look at: a run whose
        *mean* power meets a budget can still spend individual iterations
        above it.
        """
        durations = np.max(self.iteration_times_s, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(durations > 0,
                            self.iteration_energy_j / durations, 0.0)

    @property
    def peak_system_power_w(self) -> float:
        """Highest per-iteration system power — the compliance quantity.

        Bounded above by the sum of programmed caps, so any cap vector
        that fits a budget keeps this under the budget too; the converse
        makes it the right signal for overshoot detection.
        """
        power = self.iteration_power_w
        return float(np.max(power)) if power.size else 0.0

    def budget_overshoot_watt_seconds(self, budget_w: float) -> float:
        """Energy spent above ``budget_w``, in watt-seconds (J).

        Sums ``max(0, power - budget) x duration`` over iterations: the
        quantity a facility's interconnection agreement actually bills —
        zero exactly when no iteration's power exceeds the budget by more
        than :data:`OVERSHOOT_RESIDUE` of it.
        """
        budget_w = float(budget_w)
        durations = np.max(self.iteration_times_s, axis=1)
        excess = self.iteration_power_w - budget_w
        excess = np.where(excess > OVERSHOOT_RESIDUE * budget_w, excess, 0.0)
        return float(np.sum(excess * durations))

    @property
    def energy_delay_product(self) -> float:
        """Total energy x mean elapsed time (J*s)."""
        return self.total_energy_j * self.mean_elapsed_s

    @property
    def gflops_per_watt(self) -> float:
        """Retired GFLOPs per joule-per-second — the Fig. 8 efficiency row."""
        return self.total_gflop / self.total_energy_j if self.total_energy_j else 0.0

    # ------------------------------------------------------------------
    def budget_utilization(self) -> float:
        """Mean system power as a fraction of the budget (Fig. 7 bars)."""
        return self.mean_system_power_w / self.budget_w if self.budget_w else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary for tables and CSV export."""
        return {
            "budget_w": self.budget_w,
            "mean_elapsed_s": self.mean_elapsed_s,
            "total_energy_j": self.total_energy_j,
            "mean_system_power_w": self.mean_system_power_w,
            "budget_utilization": self.budget_utilization(),
            "energy_delay_product": self.energy_delay_product,
            "gflops_per_watt": self.gflops_per_watt,
        }
