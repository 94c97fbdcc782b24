"""Agent abstraction: GEOPM's plugin interface, reduced to its essentials.

GEOPM agents observe platform signals each control epoch and decide new
control values (RAPL limits here).  The simulator presents an epoch's
telemetry as a :class:`PlatformSample`; an :class:`Agent` returns the node
power limits to apply for the next epoch.

Each shipped agent writes its algorithm once, as module-level kernels that
its :class:`Agent` and its :class:`AgentBatch` both call (see
:class:`RowState`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Sequence

import numpy as np

__all__ = ["PlatformSample", "SampleBatch", "Agent", "AgentBatch"]


@dataclass(frozen=True)
class PlatformSample:
    """One control epoch's telemetry for a job's hosts.

    Attributes
    ----------
    epoch:
        Control-epoch index (one bulk-synchronous iteration here).
    host_time_s:
        Each host's compute-phase time this epoch.
    epoch_time_s:
        The job's iteration wall time (critical path + barrier).
    host_power_w:
        Each host's mean power over the epoch (compute + poll phases).
    power_limit_w:
        Node limits that were in force during the epoch.
    host_energy_j:
        Energy per host over the epoch.
    mean_freq_ghz:
        Mean achieved frequency per host over the epoch.
    """

    epoch: int
    host_time_s: np.ndarray
    epoch_time_s: float
    host_power_w: np.ndarray
    power_limit_w: np.ndarray
    host_energy_j: np.ndarray
    mean_freq_ghz: np.ndarray


@dataclass(frozen=True)
class SampleBatch:
    """One control epoch's telemetry for many runs, structure-of-arrays.

    The batched counterpart of :class:`PlatformSample`: every per-host
    array carries a leading *run* axis, so ``host_time_s[a]`` is run
    ``a``'s compute-phase times this epoch.  Row ``a`` is bit-identical to
    the :class:`PlatformSample` a serial controller would have produced
    for the same run (the contract of
    :class:`~repro.runtime.batch.ControllerBatch`).
    """

    epoch: int
    host_time_s: np.ndarray      # (A, hosts)
    epoch_time_s: np.ndarray     # (A,)
    host_power_w: np.ndarray     # (A, hosts)
    power_limit_w: np.ndarray    # (A, hosts)
    host_energy_j: np.ndarray    # (A, hosts)
    mean_freq_ghz: np.ndarray    # (A, hosts)

    @property
    def run_count(self) -> int:
        """Runs stacked in this sample."""
        return int(self.epoch_time_s.size)

    def sample_for(self, row: int) -> PlatformSample:
        """Materialise one run's :class:`PlatformSample` (fresh arrays)."""
        return PlatformSample(
            epoch=self.epoch,
            host_time_s=self.host_time_s[row].copy(),
            epoch_time_s=float(self.epoch_time_s[row]),
            host_power_w=self.host_power_w[row].copy(),
            power_limit_w=self.power_limit_w[row].copy(),
            host_energy_j=self.host_energy_j[row].copy(),
            mean_freq_ghz=self.mean_freq_ghz[row].copy(),
        )

    def replace_rows(self, views: Mapping[int, PlatformSample]) -> "SampleBatch":
        """A copy with row ``i`` replaced by ``views[i]`` (the inverse of
        :meth:`sample_for`)."""
        arrays = {
            f.name: np.array(getattr(self, f.name))
            for f in fields(self) if f.name != "epoch"
        }
        for row, view in views.items():
            for name, values in arrays.items():
                values[row] = getattr(view, name)
        return SampleBatch(epoch=self.epoch, **arrays)


def finite_or_sentinel(value) -> float:
    """``float(value)``, or the report sentinel ``-1.0`` while a loop has
    not measured the quantity yet (it is still infinite)."""
    value = float(value)
    return value if np.isfinite(value) else -1.0


class RowState:
    """An agent's control state as arrays with a leading *row* shape.

    A serial :class:`Agent` holds row shape ``()`` (per-host fields
    ``(hosts,)``), its :class:`AgentBatch` ``(G,)``, so one step kernel
    over ``(..., hosts)`` arrays advances either.  Subclasses are
    dataclasses whose per-host fields, ``limits_w`` among them, are
    ``None`` until the loop's first step.
    """

    @property
    def started(self) -> bool:
        """Whether the loop has stepped (its per-host state exists)."""
        return self.limits_w is not None

    def take(self, rows) -> "RowState":
        """The state of ``rows``; an ``int`` gives one serial-shaped row."""
        return type(self)(**{
            f.name: None if value is None else value[rows]
            for f in fields(self)
            for value in (getattr(self, f.name),)
        })

    def put(self, rows, state: "RowState") -> None:
        """Write a kernel's new state for :meth:`take` ``(rows)`` back."""
        for f in fields(self):
            new = getattr(state, f.name)
            if getattr(self, f.name) is None:
                # The first step creates the per-host state, and every
                # member steps then (the active set only shrinks later).
                setattr(self, f.name, np.array(new))
            else:
                getattr(self, f.name)[rows] = new


def batch_options(agents: Sequence["Agent"]):
    """The one options value of a ``make_batch`` group of stateful agents.

    Mixed options, or an agent that has already stepped (a batch owns its
    loops' state from epoch 0), raise ``ValueError``.
    """
    name = type(agents[0]).__name__
    if len({a.options for a in agents}) > 1:
        raise ValueError(f"{name}.make_batch needs one shared options value")
    if any(a._state.started for a in agents):
        raise ValueError(f"a {name} in the group has already stepped")
    return agents[0].options


class Agent(abc.ABC):
    """Base class for job-runtime agents.

    Subclasses implement :meth:`adjust`; the controller calls it once per
    epoch with fresh telemetry and programs the returned limits before the
    next epoch.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Return node power limits (W) to apply for the next epoch."""

    def converged(self) -> bool:
        """Whether the agent's control loop has reached steady state.

        Agents with no dynamic behaviour are trivially converged; the
        balancer overrides this with its epsilon test.
        """
        return True

    def describe(self) -> Dict[str, float]:
        """Agent-specific scalars for the job report metadata."""
        return {}


class AgentBatch(abc.ABC):
    """Vectorised counterpart of :class:`Agent` for lockstep batched runs.

    A batch agent owns the control state of ``G`` member runs at once (one
    row per run) and must be *bit-identical* to stepping each member's
    serial :class:`Agent` on its own: for every active row, the returned
    limits, the convergence verdict, and :meth:`describe_run` equal what
    the serial agent would have produced after the same sample sequence.
    The shipped agents guarantee it by construction: the serial agent and
    its batch call the same step, convergence and describe kernels.

    Agent classes opt in by defining their own ``make_batch(agents)``
    classmethod returning an :class:`AgentBatch`.  The batched controller
    passes it one group of runs sharing a class and options; it raises
    ``ValueError`` for members it cannot adopt (an agent that has already
    stepped).  There is no per-run fallback: an agent without
    ``make_batch`` runs under the serial ``Controller`` only.

    Converged runs freeze: the controller stops including their rows, so
    ``rows`` is always the still-active subset of ``range(G)`` and state
    for frozen rows must stay untouched — exactly like a serial controller
    that stopped calling :meth:`Agent.adjust`.
    """

    @abc.abstractmethod
    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        """Return ``(A, hosts)`` next-epoch limits for the active rows.

        ``sample`` stacks the active runs' epoch telemetry; ``rows`` maps
        each of its ``A`` rows to the member index within the group.
        """

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        """``(A,)`` boolean mask: which of the given rows have converged."""
        return np.ones(rows.size, dtype=bool)

    def describe_run(self, row: int) -> Dict[str, float]:
        """Member ``row``'s :meth:`Agent.describe` scalars."""
        return {}

