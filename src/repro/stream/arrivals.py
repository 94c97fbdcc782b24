"""Generator-fed arrival sources for the streaming site engine.

The batch shift loop takes a pre-built ``Sequence[Arrival]`` — fine for a
shift, hopeless for a day of heavy traffic (a million-arrival list exists
in memory before the first admission).  The stream engine instead pulls
from any *iterator* of time-ordered :class:`~repro.manager.site_simulation.Arrival`
objects, holding exactly one lookahead arrival at a time, so arrival
streams cost O(1) memory regardless of length.

The sources:

* :func:`replay_stream` — adapt a pre-built list (the bit-identity path);
* :func:`poisson_stream` — memoryless arrivals at a sustained rate, the
  ">= 100k jobs per simulated day" load shape;
* :func:`synthetic_job_factory` — cycling job shapes with power hints,
  so admission estimates stay O(1) per job under load.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival
from repro.units import ensure_positive
from repro.workload.kernel import KernelConfig

__all__ = [
    "replay_stream",
    "poisson_stream",
    "synthetic_job_factory",
]

JobFactory = Callable[[int], JobRequest]


def replay_stream(arrivals: Sequence[Arrival]) -> Iterator[Arrival]:
    """Yield a pre-built arrival list in time order (stable on ties)."""
    yield from sorted(arrivals, key=lambda a: a.time_s)


def poisson_stream(
    rate_per_s: float,
    duration_s: float,
    job_factory: JobFactory,
    seed: int = 0,
    start_s: float = 0.0,
) -> Iterator[Arrival]:
    """Poisson arrivals at ``rate_per_s`` over ``[start_s, start_s + duration_s)``.

    Inter-arrival gaps are exponential draws from a seeded
    ``np.random.Generator``; ``job_factory(i)`` supplies the *i*-th job.
    100k jobs/day is ``rate_per_s ≈ 1.157``.
    """
    ensure_positive(rate_per_s, "rate_per_s")
    ensure_positive(duration_s, "duration_s")
    rng = np.random.default_rng(seed)
    clock = float(start_s)
    index = 0
    end = start_s + duration_s
    while True:
        clock += float(rng.exponential(1.0 / rate_per_s))
        if clock >= end:
            return
        yield Arrival(time_s=clock, request=job_factory(index))
        index += 1


def synthetic_job_factory(
    configs: Optional[Sequence[KernelConfig]] = None,
    node_count: int = 4,
    iterations: int = 30,
    power_hint_w: Optional[float] = 180.0,
    prefix: str = "stream",
) -> JobFactory:
    """A factory cycling through a few job shapes.

    The default shapes span memory-bound to compute-bound kernels; every
    job carries a per-node ``power_hint_w`` so admission never needs a
    characterization call on the hot path (the hint is what a
    precharacterized production site submits anyway).
    """
    if configs is None:
        configs = _DEFAULT_CONFIGS
    configs = tuple(configs)

    def factory(index: int) -> JobRequest:
        return JobRequest(
            name=f"{prefix}-{index}",
            config=configs[index % len(configs)],
            node_count=node_count,
            iterations=iterations,
            power_hint_w=power_hint_w,
        )

    return factory


_DEFAULT_CONFIGS: Tuple[KernelConfig, ...] = (
    KernelConfig(intensity=0.25),
    KernelConfig(intensity=8.0),
    KernelConfig(intensity=2.0, waiting_fraction=0.5, imbalance=2),
    KernelConfig(intensity=32.0),
)
