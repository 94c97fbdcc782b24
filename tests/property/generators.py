"""Seeded test-data generators shared by the fault and stream tests.

Only tests draw from these: :func:`random_schedule` builds fuzz-style
fault timelines for the resilience properties, and :func:`burst_stream`
is the bursty arrival source the engine's backpressure tests feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.manager.site_simulation import Arrival
from repro.stream.arrivals import JobFactory
from repro.units import ensure_positive


@dataclass(frozen=True)
class _RandomScheduleSpec:
    """Internal: parameters of :func:`random_schedule` (documented there)."""

    duration_s: float
    host_count: int
    base_budget_w: float
    events: int = 4
    min_budget_fraction: float = 0.6
    seed: int = 0
    kinds: Tuple[FaultKind, ...] = field(default=(
        FaultKind.BUDGET_CHANGE, FaultKind.NODE_FAILURE,
        FaultKind.SENSOR_DROPOUT, FaultKind.NOISE_BURST,
        FaultKind.CAP_STUCK,
    ))


def random_schedule(
    duration_s: float,
    host_count: int,
    base_budget_w: float,
    events: int = 4,
    min_budget_fraction: float = 0.6,
    seed: int = 0,
    kinds: Optional[Sequence[FaultKind]] = None,
) -> FaultSchedule:
    """A seeded random schedule for fuzz-style resilience runs.

    Draws ``events`` faults uniformly over ``[0, duration_s)`` from the
    given kinds; budget drops stay above ``min_budget_fraction`` of the
    base budget (always floor-feasible scenarios by construction when the
    caller picks the fraction accordingly), node failures take at most a
    quarter of the hosts and are paired with recoveries.  Identical
    arguments produce identical schedules.
    """
    spec = _RandomScheduleSpec(
        duration_s=float(duration_s), host_count=int(host_count),
        base_budget_w=float(base_budget_w), events=int(events),
        min_budget_fraction=float(min_budget_fraction), seed=int(seed),
        kinds=tuple(kinds) if kinds is not None else
        _RandomScheduleSpec.__dataclass_fields__["kinds"].default,
    )
    if spec.events < 1:
        raise ValueError("need at least one event")
    rng = np.random.default_rng(spec.seed)
    schedule = FaultSchedule(name=f"random-{spec.seed}")
    max_failed = max(1, spec.host_count // 4)
    for _ in range(spec.events):
        kind = spec.kinds[int(rng.integers(len(spec.kinds)))]
        t = float(rng.uniform(0.0, spec.duration_s))
        window = float(rng.uniform(0.05, 0.25) * spec.duration_s)
        if kind is FaultKind.BUDGET_CHANGE:
            fraction = float(rng.uniform(spec.min_budget_fraction, 1.0))
            schedule = schedule.budget_drop(
                t, fraction * spec.base_budget_w,
                ramp_s=float(rng.uniform(0.0, 0.1 * spec.duration_s)),
            )
        elif kind is FaultKind.NODE_FAILURE:
            count = int(rng.integers(1, max_failed + 1))
            hosts = tuple(
                int(h) for h in
                rng.choice(spec.host_count, size=count, replace=False)
            )
            schedule = schedule.node_failure(t, hosts)
            schedule = schedule.node_recovery(
                min(t + window, spec.duration_s), hosts
            )
        elif kind is FaultKind.SENSOR_DROPOUT:
            schedule = schedule.sensor_dropout(t, window)
        elif kind is FaultKind.NOISE_BURST:
            schedule = schedule.noise_burst(
                t, window, sigma=float(rng.uniform(0.01, 0.05))
            )
        elif kind is FaultKind.CAP_STUCK:
            host = int(rng.integers(spec.host_count))
            schedule = schedule.cap_stuck(
                t, (host,), stuck_at_w=float(rng.uniform(136.0, 240.0)),
                duration_s=window,
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"random_schedule cannot draw {kind}")
    return schedule


def burst_stream(
    burst_size: int,
    period_s: float,
    bursts: int,
    job_factory: JobFactory,
    start_s: float = 0.0,
) -> Iterator[Arrival]:
    """``bursts`` bursts of ``burst_size`` simultaneous submissions.

    All jobs of a burst share one arrival instant; event sequence numbers
    keep their admission order deterministic.  This is the load shape that
    exercises queue backpressure.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be positive")
    if bursts < 1:
        raise ValueError("bursts must be positive")
    ensure_positive(period_s, "period_s")
    index = 0
    for b in range(bursts):
        t = start_s + b * period_s
        for _ in range(burst_size):
            yield Arrival(time_s=t, request=job_factory(index))
            index += 1
