"""The monitor agent: telemetry without control.

GEOPM's ``monitor`` agent "simply reports requested metrics of interest,
such as energy and time, without modifying system behavior" (paper §III-B).
The paper uses it for characterization metric (a): maximum power each
workload consumes when unconstrained (Fig. 4), and its reports feed the
``Precharacterized`` and ``StaticCaps`` baselines.
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

__all__ = ["MonitorAgent"]


def _hold(power_limit_w) -> np.ndarray:
    """Echo the limits already in force, as a fresh array."""
    return np.array(power_limit_w, dtype=float, copy=True)


@DEFAULT_REGISTRY.register
class MonitorAgent(Agent):
    """Leave limits untouched; exist only so reports get generated."""

    name = "monitor"

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Echo back whatever limits are already in force."""
        return _hold(sample.power_limit_w)

    @classmethod
    def make_batch(cls, agents) -> "_MonitorBatch":
        """Batch any group of monitors (they are stateless echoes)."""
        return _MonitorBatch()


class _MonitorBatch(AgentBatch):
    """Echo every run's in-force limits at once."""

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        return _hold(sample.power_limit_w)
