"""Multi-phase workloads — the paper's §VIII future-work extension.

"Future work will also include extending this study to account for
applications with multiple phases that have varying design
characteristics."  This module provides that extension: a
:class:`PhasedWorkload` is a sequence of kernel phases (each its own
configuration and iteration count), and :func:`simulate_phased_job` runs
one phase after another with optional re-planning between phases — the
policy re-reads the phase's characterization and re-allocates, which is
what an execution-time RM/runtime protocol would do at phase boundaries.

The phase boundary is the natural re-planning point: within a phase the
kernel is stationary (one configuration), so per-phase characterization
is exact, and the phased result concatenates per-phase results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.policy import Policy
    from repro.sim.engine import ExecutionModel
    from repro.sim.execution import SimulationOptions
    from repro.sim.results import MixRunResult

__all__ = ["WorkloadPhase", "PhasedWorkload", "PhasedRunResult", "simulate_phased_job"]


@dataclass(frozen=True)
class WorkloadPhase:
    """One stationary phase of a multi-phase application."""

    name: str
    config: KernelConfig
    iterations: int = 50

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True)
class PhasedWorkload:
    """An application whose kernel configuration changes between phases.

    The canonical example from the paper's motivation: a solver
    alternating between a memory-bound assembly phase and a compute-bound
    kernel phase.
    """

    name: str
    phases: Tuple[WorkloadPhase, ...]
    node_count: int

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a phased workload needs at least one phase")
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names: {names}")


@dataclass(frozen=True)
class PhasedRunResult:
    """Concatenated per-phase results of one phased execution."""

    workload_name: str
    policy_name: str
    phase_results: Tuple["MixRunResult", ...]
    phase_budgets_w: Tuple[float, ...]

    @property
    def total_elapsed_s(self) -> float:
        """End-to-end wall time (phases are sequential)."""
        return float(sum(r.mean_elapsed_s for r in self.phase_results))

    @property
    def total_energy_j(self) -> float:
        """End-to-end CPU energy."""
        return float(sum(r.total_energy_j for r in self.phase_results))

    def phase_summary(self) -> List[Dict[str, float]]:
        """One row per phase (elapsed, energy, mean power)."""
        return [
            {
                "phase": i,
                "elapsed_s": r.mean_elapsed_s,
                "energy_j": r.total_energy_j,
                "mean_power_w": r.mean_system_power_w,
                "budget_w": b,
            }
            for i, (r, b) in enumerate(zip(self.phase_results, self.phase_budgets_w))
        ]


def simulate_phased_job(
    workload: PhasedWorkload,
    efficiencies: np.ndarray,
    policy: "Policy",
    budget_w: float,
    model: Optional["ExecutionModel"] = None,
    replan_each_phase: bool = True,
    options: Optional["SimulationOptions"] = None,
) -> PhasedRunResult:
    """Run a phased workload under a policy, re-planning at boundaries.

    With ``replan_each_phase`` the policy re-allocates from each phase's
    own characterization (the execution-time protocol the paper calls
    for); without it, the allocation from phase 0's characterization is
    frozen for the whole run — the status-quo a pre-characterizing site
    lives with, and the baseline the extension should beat.
    """
    # Imported here to keep the workload package import-cycle-free (the
    # characterization layer builds on workload).
    from repro.characterization.mix_characterization import characterize_mix
    from repro.sim.engine import ExecutionModel
    from repro.sim.execution import SimulationOptions, simulate_mix

    model = model if model is not None else ExecutionModel()
    options = options if options is not None else SimulationOptions()
    eff = np.asarray(efficiencies, dtype=float)
    if eff.shape != (workload.node_count,):
        raise ValueError(
            f"efficiencies must have shape ({workload.node_count},), got {eff.shape}"
        )

    results: List["MixRunResult"] = []
    budgets: List[float] = []
    frozen_caps: Optional[np.ndarray] = None
    for index, phase in enumerate(workload.phases):
        job = Job(
            name=f"{workload.name}-{phase.name}",
            config=phase.config,
            node_count=workload.node_count,
            iterations=phase.iterations,
        )
        mix = WorkloadMix(name=job.name, jobs=(job,))
        if replan_each_phase or frozen_caps is None:
            char = characterize_mix(mix, eff, model)
            _, caps = policy.program(char, budget_w)
            if frozen_caps is None:
                frozen_caps = caps
        else:
            caps = frozen_caps
        phase_options = SimulationOptions(
            noise_std=options.noise_std,
            barrier_overhead_s=options.barrier_overhead_s,
            seed=options.seed + index,
        )
        results.append(
            simulate_mix(
                mix, caps, eff, model, phase_options,
                policy_name=policy.name, budget_w=budget_w,
            )
        )
        budgets.append(budget_w)
    return PhasedRunResult(
        workload_name=workload.name,
        policy_name=policy.name,
        phase_results=tuple(results),
        phase_budgets_w=tuple(budgets),
    )
