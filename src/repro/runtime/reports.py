"""GEOPM-style reports: the interface between runtime and resource manager.

On the real system, GEOPM writes a per-job report summarising every host's
energy, runtime, average power, and achieved frequency; the paper's
policies are computed *from those reports* ("The power is removed from and
added to jobs based on the observed ... power usage (obtained from GEOPM
reports)").  This module defines the same artefact, so the policy layer
never reaches into the simulator directly — it sees exactly what a
production resource manager would see.

A :class:`JobReport` is stored by column: one read-only ``(hosts,)``
array per quantity (energy, mean power, mean frequency, final limits)
plus the job's scalar wall time and epoch count.  Both runtimes build
one per run through :func:`report_from_sums`, and the policies read the
arrays as they are; :class:`HostReport` is the per-host view of one row,
built only when something asks for :attr:`JobReport.hosts`.
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


@dataclass(frozen=True, eq=False)
class JobReport:
    """A complete GEOPM report for one job execution, stored by column.

    Built by :func:`report_from_sums` only.  The per-host quantities are
    read-only ``(hosts,)`` arrays in host order (host ``i`` is row ``i``),
    so the policies' array accessors hand them out without a copy and the
    report holds no per-host objects; :attr:`hosts` builds the
    :class:`HostReport` view on demand.  Every host of a job shares the
    job's wall time and epoch count, so those are scalars.  Equality is
    exact: every column must match bit for bit.
    """

    job_name: str
    agent: str
    #: Wall time of the job (every host's runtime), seconds.
    elapsed_s: float
    #: Control epochs run.
    epochs: int
    host_energy_j: np.ndarray
    host_power_w: np.ndarray
    host_freq_ghz: np.ndarray
    #: RAPL limits in force after the final epoch.
    host_limit_w: np.ndarray
    figure_of_merit: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Telemetry summary of the run that produced the report (epochs,
    #: convergence flag, batch size).  Empty when the producer recorded
    #: none.
    telemetry: Dict[str, float] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobReport):
            return NotImplemented
        return (
            self.job_name == other.job_name
            and self.agent == other.agent
            and self.elapsed_s == other.elapsed_s
            and self.epochs == other.epochs
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in _COLUMNS)
            and self.figure_of_merit == other.figure_of_merit
            and self.metadata == other.metadata
            and self.telemetry == other.telemetry
        )

    # ------------------------------------------------------------------
    @property
    def host_count(self) -> int:
        """Hosts covered by the report."""
        return self.host_energy_j.size

    @property
    def hosts(self) -> Tuple[HostReport, ...]:
        """Per-host sections, built from the columns on each access."""
        return tuple(
            HostReport(
                host_id=i,
                runtime_s=self.elapsed_s,
                energy_j=e,
                mean_power_w=p,
                mean_freq_ghz=f,
                power_limit_w=limit,
                epochs=self.epochs,
            )
            for i, (e, p, f, limit) in enumerate(
                zip(*(getattr(self, name).tolist() for name in _COLUMNS))
            )
        )

    def mean_power_w(self) -> np.ndarray:
        """Per-host mean power (the policies' primary input)."""
        return self.host_power_w

    def power_limits_w(self) -> np.ndarray:
        """Per-host RAPL limits in force."""
        return self.host_limit_w

    def energy_j(self) -> np.ndarray:
        """Per-host energy."""
        return self.host_energy_j

    def runtime_s(self) -> np.ndarray:
        """Per-host runtime."""
        return np.full(self.host_count, self.elapsed_s)

    def mean_freq_ghz(self) -> np.ndarray:
        """Per-host mean achieved frequency."""
        return self.host_freq_ghz

    def total_energy_j(self) -> float:
        """Job energy."""
        return float(np.sum(self.host_energy_j))

    def summary(self) -> Dict[str, float]:
        """Scalar roll-up for logs and tables."""
        power = self.host_power_w
        return {
            "hosts": float(self.host_count),
            "total_energy_j": self.total_energy_j(),
            "max_runtime_s": self.elapsed_s,
            "mean_power_w": float(np.mean(power)),
            "max_power_w": float(np.max(power)),
            "min_power_w": float(np.min(power)),
        }


#: The per-host columns, in :class:`HostReport` field order.
_COLUMNS = ("host_energy_j", "host_power_w", "host_freq_ghz", "host_limit_w")


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column``, made read-only (the caller passes a fresh array)."""
    column.flags.writeable = False
    return column


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
    remaining reductions below happen in one fixed order.  The report's
    columns are copies, so later changes to the inputs do not reach it.

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

    Raises ``ValueError`` for a run with no epochs or no hosts, columns
    of different shapes, and a negative or NaN energy or runtime.
    """
    epoch_times = np.asarray(epoch_times_s, dtype=float)
    epochs = int(epoch_times.size)
    if epochs == 0:
        raise ValueError("a report needs at least one epoch")
    total_time = float(np.sum(epoch_times))
    energy = _frozen(np.array(energy_j, dtype=float))
    freq = _frozen(np.asarray(freq_sum_ghz, dtype=float) / epochs)
    limits = _frozen(np.array(final_limits_w, dtype=float))
    if energy.ndim != 1 or energy.size == 0:
        raise ValueError("a job report needs at least one host")
    if freq.shape != energy.shape or limits.shape != energy.shape:
        raise ValueError("per-host columns must share one (hosts,) shape")
    # Written so that NaN fails too.
    if not (total_time >= 0 and (energy >= 0).all()):
        raise ValueError("runtime and energy must be non-negative")
    power = _frozen(energy / total_time if total_time
                    else np.zeros_like(energy))
    return JobReport(
        job_name=job_name,
        agent=agent,
        elapsed_s=total_time,
        epochs=epochs,
        host_energy_j=energy,
        host_power_w=power,
        host_freq_ghz=freq,
        host_limit_w=limits,
        figure_of_merit=total_time / epochs,
        metadata=metadata,
    )
