"""Jobs and workload mixes: the scheduling units of the evaluation.

A :class:`Job` is one submission of the synthetic kernel over a set of
nodes; a :class:`WorkloadMix` is the co-scheduled set of jobs the paper
calls a "workload mix" (Table II).  The mix also provides the flattened
per-host view (node roles, activity factors, work arrays) the vectorised
execution engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.kernel import KernelConfig, POLL_ACTIVITY_FACTOR

__all__ = ["Job", "WorkloadMix", "HostLayout", "validate_job_names"]


@dataclass(frozen=True)
class Job:
    """One job: a kernel configuration over ``node_count`` nodes.

    ``iterations`` matches the paper's 100 measured iterations per
    benchmark configuration (Fig. 8 caption).
    """

    name: str
    config: KernelConfig
    node_count: int
    iterations: int = 100

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")

    def critical_node_count(self) -> int:
        """Nodes on the critical path (at least one, by construction).

        The benchmark rounds the waiting fraction onto whole nodes and
        always keeps a non-empty critical set — a job where every node
        waits would make no progress.
        """
        waiting = int(round(self.node_count * self.config.waiting_fraction))
        waiting = min(waiting, self.node_count - 1)
        return self.node_count - waiting


@dataclass(frozen=True)
class HostLayout:
    """Flattened per-host arrays for a mix (execution-engine input).

    Attributes
    ----------
    job_index:
        For each host, the index of its job within the mix.
    job_boundaries:
        Start offset of each job's host block plus a final sentinel, for
        ``np.maximum.reduceat``-style segmented reductions.
    critical:
        Boolean mask — host carries critical-path (imbalance-scaled) work.
    kappa:
        Compute-phase activity factor per host.
    poll_kappa:
        Barrier-poll activity factor per host.
    traffic_gb / gflop:
        Per-iteration work of each host.
    compute_ceiling_index:
        Index into :attr:`ceiling_names` selecting each host's roofline
        compute ceiling.
    ceiling_names:
        The distinct roofline ceiling names appearing in the mix.
    """

    job_index: np.ndarray
    job_boundaries: np.ndarray
    critical: np.ndarray
    kappa: np.ndarray
    poll_kappa: np.ndarray
    traffic_gb: np.ndarray
    gflop: np.ndarray
    compute_ceiling_index: np.ndarray
    ceiling_names: Tuple[str, ...]

    @property
    def host_count(self) -> int:
        """Total hosts across all jobs."""
        return int(self.job_index.size)


def validate_job_names(names: Sequence[str]) -> None:
    """The checks a mix's job list must pass: at least one job, no
    duplicate names.  The batch planner runs them on admitted batches it
    plans without building a :class:`WorkloadMix`."""
    if not names:
        raise ValueError("a mix needs at least one job")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in mix: {list(names)!r}")


@dataclass(frozen=True)
class WorkloadMix:
    """A co-scheduled set of jobs (paper Table II row).

    Hosts are assigned to jobs in declaration order: job ``j`` occupies the
    contiguous block ``[offsets[j], offsets[j+1])`` of the mix's host index
    space.  Within each job, the *first* ``critical_node_count`` hosts are
    the critical path; which physical nodes those indices map to is decided
    by the resource manager's allocator.
    """

    name: str
    jobs: Tuple[Job, ...]

    def __post_init__(self) -> None:
        validate_job_names([j.name for j in self.jobs])

    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        """Sum of node counts over jobs."""
        return sum(j.node_count for j in self.jobs)

    @property
    def job_names(self) -> Tuple[str, ...]:
        """Job names in declaration order."""
        return tuple(j.name for j in self.jobs)

    def job_offsets(self) -> np.ndarray:
        """Host-index start offsets per job, with a final sentinel."""
        counts = np.array([j.node_count for j in self.jobs], dtype=int)
        return np.concatenate([[0], np.cumsum(counts)])

    def layout(self) -> HostLayout:
        """The flattened per-host arrays for the execution engine.

        The mix is frozen, so the layout is built once and memoized; every
        subsequent call returns the same :class:`HostLayout` instance.  Its
        arrays are marked read-only — sweep code that evaluated thousands
        of scenarios used to spend ~20 % of its wall time rebuilding this
        structure per call, and a shared cached object must not be
        mutable.
        """
        cached = self.__dict__.get("_layout")
        if cached is None:
            cached = self._build_layout()
            object.__setattr__(self, "_layout", cached)
        return cached

    def _build_layout(self) -> HostLayout:
        """Construct the per-host arrays (uncached; see :meth:`layout`)."""
        offsets = self.job_offsets()
        total = int(offsets[-1])
        job_index = np.empty(total, dtype=int)
        critical = np.zeros(total, dtype=bool)
        kappa = np.empty(total, dtype=float)
        traffic = np.empty(total, dtype=float)
        gflop = np.empty(total, dtype=float)
        ceiling_names: List[str] = []
        ceiling_lookup: Dict[str, int] = {}
        ceiling_index = np.empty(total, dtype=int)

        for j, job in enumerate(self.jobs):
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            job_index[lo:hi] = j
            n_crit = job.critical_node_count()
            critical[lo:lo + n_crit] = True
            cfg = job.config
            kappa[lo:hi] = cfg.kappa
            crit_traffic, crit_gflop = cfg.node_work(critical=True)
            wait_traffic, wait_gflop = cfg.node_work(critical=False)
            traffic[lo:lo + n_crit] = crit_traffic
            gflop[lo:lo + n_crit] = crit_gflop
            traffic[lo + n_crit:hi] = wait_traffic
            gflop[lo + n_crit:hi] = wait_gflop
            name = cfg.compute_ceiling
            if name not in ceiling_lookup:
                ceiling_lookup[name] = len(ceiling_names)
                ceiling_names.append(name)
            ceiling_index[lo:hi] = ceiling_lookup[name]

        layout = HostLayout(
            job_index=job_index,
            job_boundaries=offsets,
            critical=critical,
            kappa=kappa,
            poll_kappa=np.full(total, POLL_ACTIVITY_FACTOR),
            traffic_gb=traffic,
            gflop=gflop,
            compute_ceiling_index=ceiling_index,
            ceiling_names=tuple(ceiling_names),
        )
        for array in (layout.job_index, layout.job_boundaries, layout.critical,
                      layout.kappa, layout.poll_kappa, layout.traffic_gb,
                      layout.gflop, layout.compute_ceiling_index):
            array.setflags(write=False)
        return layout

    def iterations_array(self) -> np.ndarray:
        """Per-job iteration counts (memoized; the array is read-only)."""
        cached = self.__dict__.get("_iterations_array")
        if cached is None:
            cached = np.array([j.iterations for j in self.jobs], dtype=int)
            cached.setflags(write=False)
            object.__setattr__(self, "_iterations_array", cached)
        return cached

    def common_iterations(self) -> int:
        """The iteration count shared by every job in the mix.

        The bulk-synchronous engine requires a single iteration count per
        mix; this validates it once per mix object (memoized) instead of
        once per simulated execution.
        """
        cached = self.__dict__.get("_common_iterations")
        if cached is None:
            iters = self.iterations_array()
            if np.any(iters != iters[0]):
                raise ValueError(
                    "all jobs in a mix must run the same iteration count "
                    f"(got {dict(zip(self.job_names, iters.tolist()))})"
                )
            cached = int(iters[0])
            object.__setattr__(self, "_common_iterations", cached)
        return cached
