"""The power governor agent: uniform job-level cap enforcement.

GEOPM's ``power_governor`` divides a job power budget evenly across hosts
and holds it there.  It is the intra-job mechanism behind the paper's
``StaticCaps`` baseline and the initial state of every power-sharing
policy ("step 1: uniformly distribute the system power limit among hosts").
"""

from __future__ import annotations

import numpy as np

from repro.runtime.agent import (
    Agent,
    AgentBatch,
    DEFAULT_REGISTRY,
    PlatformSample,
    SampleBatch,
)
from repro.units import ensure_positive

__all__ = ["PowerGovernorAgent"]


def _split(budget_w, hosts: int) -> np.ndarray:
    """Each row's budget split evenly over its hosts: ``(..., hosts)``."""
    uniform = np.asarray(budget_w, dtype=float) / hosts
    return np.broadcast_to(uniform[..., None], uniform.shape + (hosts,)).copy()


def _describe(budget_w):
    """The governed budget, for report metadata."""
    return {"job_budget_w": float(budget_w)}


@DEFAULT_REGISTRY.register
class PowerGovernorAgent(Agent):
    """Hold every host at ``job_budget_w / host_count``.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job (W).
    """

    name = "power_governor"

    def __init__(self, job_budget_w: float) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Uniform per-host limit; constant across epochs."""
        return _split(self.job_budget_w, sample.power_limit_w.shape[-1])

    def describe(self):
        """Report the governed budget."""
        return _describe(self.job_budget_w)

    @classmethod
    def make_batch(cls, agents) -> "_PowerGovernorBatch":
        """Batch any group of governors (stateless uniform splits)."""
        return _PowerGovernorBatch(
            np.array([a.job_budget_w for a in agents], dtype=float)
        )


class _PowerGovernorBatch(AgentBatch):
    """Every run's uniform split in one expression."""

    def __init__(self, budgets_w: np.ndarray) -> None:
        self._budgets_w = budgets_w

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        return _split(self._budgets_w[rows], sample.power_limit_w.shape[-1])

    def describe_run(self, row: int):
        return _describe(self._budgets_w[row])
