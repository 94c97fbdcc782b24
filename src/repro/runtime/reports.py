"""GEOPM-style reports: the interface between runtime and resource manager.

On the real system, GEOPM writes a per-job report summarising every host's
energy, runtime, average power, and achieved frequency; the paper's
policies are computed *from those reports* ("The power is removed from and
added to jobs based on the observed ... power usage (obtained from GEOPM
reports)").  This module defines the same artefact, so the policy layer
never reaches into the simulator directly — it sees exactly what a
production resource manager would see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = ["HostReport", "JobReport", "report_from_sums"]


@dataclass(frozen=True)
class HostReport:
    """Per-host section of a GEOPM report.

    Attributes
    ----------
    host_id:
        Host index within the job.
    runtime_s:
        Wall time the host spent in the job.
    energy_j:
        Package energy consumed over that time.
    mean_power_w:
        ``energy / runtime``; recorded explicitly because it is the
        quantity every policy in the paper consumes.
    mean_freq_ghz:
        Average achieved core frequency.
    power_limit_w:
        The RAPL node limit in force at report time.
    epochs:
        Control epochs observed (iterations, for the synthetic kernel).
    """

    host_id: int
    runtime_s: float
    energy_j: float
    mean_power_w: float
    mean_freq_ghz: float
    power_limit_w: float
    epochs: int

    def __post_init__(self) -> None:
        if self.runtime_s < 0 or self.energy_j < 0:
            raise ValueError("runtime and energy must be non-negative")


@dataclass(frozen=True)
class JobReport:
    """A complete GEOPM report for one job execution.

    The array accessors return host-ordered NumPy views so policy code can
    stay vectorised.
    """

    job_name: str
    agent: str
    hosts: Tuple[HostReport, ...]
    figure_of_merit: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Telemetry summary of the run that produced the report (epochs,
    #: convergence flag, batch size).  Empty when the producer recorded
    #: none.
    telemetry: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ValueError("a job report needs at least one host")
        ids = [h.host_id for h in self.hosts]
        if ids != sorted(set(ids)):
            raise ValueError("host reports must be unique and host-id ordered")

    # ------------------------------------------------------------------
    @property
    def host_count(self) -> int:
        """Hosts covered by the report."""
        return len(self.hosts)

    def mean_power_w(self) -> np.ndarray:
        """Per-host mean power (the policies' primary input)."""
        return np.array([h.mean_power_w for h in self.hosts])

    def power_limits_w(self) -> np.ndarray:
        """Per-host RAPL limits in force."""
        return np.array([h.power_limit_w for h in self.hosts])

    def energy_j(self) -> np.ndarray:
        """Per-host energy."""
        return np.array([h.energy_j for h in self.hosts])

    def runtime_s(self) -> np.ndarray:
        """Per-host runtime."""
        return np.array([h.runtime_s for h in self.hosts])

    def mean_freq_ghz(self) -> np.ndarray:
        """Per-host mean achieved frequency."""
        return np.array([h.mean_freq_ghz for h in self.hosts])

    def total_energy_j(self) -> float:
        """Job energy."""
        return float(np.sum(self.energy_j()))

    def summary(self) -> Dict[str, float]:
        """Scalar roll-up for logs and tables."""
        power = self.mean_power_w()
        return {
            "hosts": float(self.host_count),
            "total_energy_j": self.total_energy_j(),
            "max_runtime_s": float(np.max(self.runtime_s())),
            "mean_power_w": float(np.mean(power)),
            "max_power_w": float(np.max(power)),
            "min_power_w": float(np.min(power)),
        }


def report_from_sums(
    job_name: str,
    agent: str,
    epoch_times_s: np.ndarray,
    energy_j: np.ndarray,
    freq_sum_ghz: np.ndarray,
    final_limits_w: np.ndarray,
    metadata: Dict[str, float],
) -> JobReport:
    """Build a :class:`JobReport` from a run's per-host sums over epochs.

    This is the one report construction both the serial
    :class:`~repro.runtime.controller.Controller` and the batched
    :class:`~repro.runtime.batch.ControllerBatch` go through, so a batched
    run's report is bit-identical to its serial twin by construction: both
    runtimes fold each epoch into the same sums as it completes, and the
    remaining reductions below happen in one fixed order.

    Parameters
    ----------
    epoch_times_s:
        Per-epoch wall times, shape ``(E,)``; summed here with ``np.sum``
        (pairwise), which fixes the bits of ``runtime_s``.
    energy_j / freq_sum_ghz:
        Per-host energy and achieved-frequency sums over the ``E``
        epochs, shape ``(hosts,)``.
    final_limits_w:
        Limits in force after the final epoch, shape ``(hosts,)``.
    metadata:
        The agent's :meth:`~repro.runtime.agent.Agent.describe` scalars.
    """
    epoch_times = np.asarray(epoch_times_s, dtype=float)
    energy = np.asarray(energy_j, dtype=float)
    epochs = int(epoch_times.size)
    if epochs == 0:
        raise ValueError("a report needs at least one epoch")
    total_time = float(np.sum(epoch_times))
    mean_power = energy / total_time if total_time else np.zeros_like(energy)
    mean_freq = np.asarray(freq_sum_ghz, dtype=float) / epochs
    hosts = tuple(
        HostReport(
            host_id=i,
            runtime_s=total_time,
            energy_j=e,
            mean_power_w=p,
            mean_freq_ghz=f,
            power_limit_w=limit,
            epochs=epochs,
        )
        for i, (e, p, f, limit) in enumerate(
            zip(energy.tolist(), mean_power.tolist(), mean_freq.tolist(),
                np.asarray(final_limits_w, dtype=float).tolist())
        )
    )
    return JobReport(
        job_name=job_name,
        agent=agent,
        hosts=hosts,
        figure_of_merit=total_time / epochs,
        metadata=metadata,
    )
