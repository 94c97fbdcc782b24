"""Deterministic fault schedules for the power stack.

The paper's conclusion asks for policies that "minimize the loss of
quality of service in exceptional cases"; this module makes exceptional
cases *first-class inputs*.  A :class:`FaultSchedule` is an immutable,
seedable timeline of :class:`FaultEvent` records covering the fault
classes a production power manager actually sees:

* **facility budget drops and restores** (a feeder trips, a
  demand-response event ends), optionally ramped over a window —
  EcoShift's dynamic power-constraint shifts;
* **node failure / drain / recovery** — a host leaves the schedulable
  pool and later returns (Fan's checkpoint-under-power-events scenario);
* **monitor sensor dropout and noise bursts** — the telemetry a layer
  depends on goes dark or untrustworthy for a window;
* **stuck or erroring RAPL caps** — the actuator stops obeying writes
  (stuck at a value, or the write fails and the domain stays at TDP).

Schedules are pure data: every consumer (the runtime controller, the
batched engine, the site simulation) *queries* the schedule at its own
clock and applies the faults at its own granularity.  An **empty
schedule is a guaranteed no-op** — every injection hook in the stack is
gated on :attr:`FaultSchedule.active`, so a fault-free schedule takes
exactly the code path a ``None`` schedule does and produces bit-identical
results (pinned by ``tests/property/test_fault_properties.py``).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]


class FaultKind(enum.Enum):
    """The fault classes the stack can inject."""

    BUDGET_CHANGE = "budget_change"
    NODE_FAILURE = "node_failure"
    NODE_RECOVERY = "node_recovery"
    SENSOR_DROPOUT = "sensor_dropout"
    NOISE_BURST = "noise_burst"
    CAP_STUCK = "cap_stuck"
    CAP_ERROR = "cap_error"


#: Kinds the vectorised engine can apply directly (static-cap runs).
ENGINE_KINDS: FrozenSet[FaultKind] = frozenset(
    {FaultKind.CAP_STUCK, FaultKind.CAP_ERROR, FaultKind.NOISE_BURST}
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault on the timeline.

    Attributes
    ----------
    time_s:
        When the fault begins, on the consumer's clock (site clock for the
        manager, run-relative seconds for the controller/engine).
    kind:
        Fault class; determines which optional fields are meaningful.
    duration_s:
        Window length for windowed faults (sensor dropout, noise bursts,
        budget ramps).  ``0`` means instantaneous (step changes) and
        ``inf`` means "until a matching recovery event".
    budget_w:
        Target facility budget for ``BUDGET_CHANGE`` (reached at
        ``time_s + duration_s``; linear ramp in between).
    host_ids:
        Affected hosts for node/sensor/cap faults.  Empty tuple on
        sensor faults means "all hosts" (a site-wide telemetry outage).
    sigma:
        Absolute lognormal noise level during a ``NOISE_BURST`` (the
        effective noise is ``max(base noise, sigma)`` inside the window).
    stuck_at_w:
        The value a ``CAP_STUCK`` domain reports/holds regardless of
        writes.  ``CAP_ERROR`` ignores this: the write fails and the
        domain reverts to TDP (uncapped), the RAPL power-on default.
    """

    time_s: float
    kind: FaultKind
    duration_s: float = 0.0
    budget_w: Optional[float] = None
    host_ids: Tuple[int, ...] = ()
    sigma: float = 0.0
    stuck_at_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time_s must be non-negative")
        if self.duration_s < 0:
            raise ValueError("fault duration_s must be non-negative")
        if self.kind is FaultKind.BUDGET_CHANGE:
            if self.budget_w is None or self.budget_w <= 0:
                raise ValueError("BUDGET_CHANGE needs a positive budget_w")
        if self.kind in (FaultKind.NODE_FAILURE, FaultKind.NODE_RECOVERY,
                         FaultKind.CAP_STUCK, FaultKind.CAP_ERROR):
            if not self.host_ids:
                raise ValueError(f"{self.kind.value} needs host_ids")
        if self.kind is FaultKind.CAP_STUCK:
            if self.stuck_at_w is None or self.stuck_at_w <= 0:
                raise ValueError("CAP_STUCK needs a positive stuck_at_w")
        if self.kind is FaultKind.NOISE_BURST and self.sigma <= 0:
            raise ValueError("NOISE_BURST needs a positive sigma")
        object.__setattr__(self, "host_ids",
                           tuple(sorted(int(h) for h in self.host_ids)))

    @property
    def end_s(self) -> float:
        """When the fault's window closes (``inf`` for open-ended faults)."""
        return self.time_s + self.duration_s

    def window_overlaps(self, start_s: float, end_s: float) -> bool:
        """Whether the fault's window intersects ``[start_s, end_s)``."""
        if self.duration_s == 0.0:
            return start_s <= self.time_s < end_s
        return self.time_s < end_s and self.end_s > start_s


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted set of fault events.

    Construct directly from events or through the fluent builders
    (:meth:`budget_drop`, :meth:`node_failure`, ...), which return new
    schedules::

        schedule = (FaultSchedule()
                    .budget_drop(time_s=60.0, budget_w=7000.0, ramp_s=10.0)
                    .node_failure(time_s=90.0, host_ids=(3, 4))
                    .node_recovery(time_s=150.0, host_ids=(3, 4)))

    All queries are pure; consumers never mutate a schedule.
    """

    events: Tuple[FaultEvent, ...] = ()
    name: str = "unnamed"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time_s, e.kind.value)))
        object.__setattr__(self, "events", ordered)

    # -- builders ------------------------------------------------------
    def with_event(self, event: FaultEvent) -> "FaultSchedule":
        """A new schedule with ``event`` added."""
        return replace(self, events=self.events + (event,))

    def budget_drop(self, time_s: float, budget_w: float,
                    ramp_s: float = 0.0) -> "FaultSchedule":
        """Facility budget falls to ``budget_w`` (ramped over ``ramp_s``)."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.BUDGET_CHANGE,
            duration_s=ramp_s, budget_w=float(budget_w),
        ))

    #: A restore is the same event with a higher target; alias for intent.
    budget_restore = budget_drop

    def node_failure(self, time_s: float,
                     host_ids: Iterable[int]) -> "FaultSchedule":
        """Hosts leave the schedulable pool (failure or drain)."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.NODE_FAILURE,
            duration_s=float("inf"), host_ids=tuple(host_ids),
        ))

    def node_recovery(self, time_s: float,
                      host_ids: Iterable[int]) -> "FaultSchedule":
        """Previously failed hosts rejoin the pool."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.NODE_RECOVERY,
            host_ids=tuple(host_ids),
        ))

    def sensor_dropout(self, time_s: float, duration_s: float,
                       host_ids: Iterable[int] = ()) -> "FaultSchedule":
        """Monitor telemetry goes dark for a window (empty ids = site-wide)."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.SENSOR_DROPOUT,
            duration_s=duration_s, host_ids=tuple(host_ids),
        ))

    def noise_burst(self, time_s: float, duration_s: float,
                    sigma: float) -> "FaultSchedule":
        """Compute/telemetry jitter rises to ``sigma`` for a window."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.NOISE_BURST,
            duration_s=duration_s, sigma=float(sigma),
        ))

    def cap_stuck(self, time_s: float, host_ids: Iterable[int],
                  stuck_at_w: float,
                  duration_s: float = float("inf")) -> "FaultSchedule":
        """RAPL domains hold ``stuck_at_w`` regardless of writes."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.CAP_STUCK, duration_s=duration_s,
            host_ids=tuple(host_ids), stuck_at_w=float(stuck_at_w),
        ))

    def cap_error(self, time_s: float, host_ids: Iterable[int],
                  duration_s: float = float("inf")) -> "FaultSchedule":
        """RAPL writes fail; domains revert to the TDP default."""
        return self.with_event(FaultEvent(
            time_s=time_s, kind=FaultKind.CAP_ERROR, duration_s=duration_s,
            host_ids=tuple(host_ids),
        ))

    # -- queries -------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the schedule injects anything at all.

        Every injection hook in the stack is gated on this, which is what
        makes an empty schedule bit-identical to no schedule.
        """
        return bool(self.events)

    def of_kind(self, *kinds: FaultKind) -> Tuple[FaultEvent, ...]:
        """Events of the given kinds, in time order."""
        wanted = set(kinds)
        return tuple(e for e in self.events if e.kind in wanted)

    # Lazy per-schedule query indices.  A schedule is frozen, so the
    # event tuple never changes after __post_init__ and the indices are
    # built once on first query; derived schedules (``replace``-based
    # builders, ``shifted``, ``engine_slice``) are new instances and
    # rebuild their own.  Stored via object.__setattr__ because the
    # dataclass is frozen; they are not fields, so equality, repr and
    # pickling of the schedule are unaffected.
    def _budget_index(
        self,
    ) -> Tuple[Tuple[FaultEvent, ...], List[float]]:
        cached = self.__dict__.get("_budget_idx")
        if cached is None:
            events = self.of_kind(FaultKind.BUDGET_CHANGE)
            cached = (events, [e.time_s for e in events])
            object.__setattr__(self, "_budget_idx", cached)
        return cached

    def _node_index(self) -> Tuple[List[float], Tuple[FrozenSet[int], ...]]:
        cached = self.__dict__.get("_node_idx")
        if cached is None:
            events = self.of_kind(FaultKind.NODE_FAILURE,
                                  FaultKind.NODE_RECOVERY)
            failed: set = set()
            prefixes = [frozenset()]
            for event in events:
                if event.kind is FaultKind.NODE_FAILURE:
                    failed.update(event.host_ids)
                else:
                    failed.difference_update(event.host_ids)
                prefixes.append(frozenset(failed))
            cached = ([e.time_s for e in events], tuple(prefixes))
            object.__setattr__(self, "_node_idx", cached)
        return cached

    def _dropout_index(
        self,
    ) -> Tuple[Tuple[FaultEvent, ...], List[float]]:
        cached = self.__dict__.get("_dropout_idx")
        if cached is None:
            events = self.of_kind(FaultKind.SENSOR_DROPOUT)
            cached = (events, [e.time_s for e in events])
            object.__setattr__(self, "_dropout_idx", cached)
        return cached

    def budget_at(self, time_s: float, base_budget_w: float) -> float:
        """The facility budget in force at ``time_s``.

        Step changes apply from their event time; ramped changes
        interpolate linearly from the pre-event budget to the target over
        ``duration_s``.

        Bisects to the events already started at ``time_s`` and replays
        only from the last *completed* change (which overwrites any
        earlier budget), so per-query cost is O(log E + ramps in flight)
        instead of O(E) — bit-identical to the full scan, pinned by the
        fault property suite.
        """
        budget = float(base_budget_w)
        events, times = self._budget_index()
        n = bisect_right(times, time_s)
        start = n - 1
        while start >= 0:
            event = events[start]
            if not (event.duration_s > 0 and time_s < event.end_s):
                break
            start -= 1
        if start < 0:
            start = 0
        for event in events[start:n]:
            if event.duration_s > 0 and time_s < event.end_s:
                frac = (time_s - event.time_s) / event.duration_s
                budget = budget + frac * (event.budget_w - budget)
            else:
                budget = float(event.budget_w)
        return budget

    def failed_hosts_at(self, time_s: float) -> FrozenSet[int]:
        """Hosts out of the pool at ``time_s`` (failures minus recoveries).

        Served from precomputed prefix snapshots over the node events in
        timeline order, found by bisection — O(log E) per query.
        """
        times, prefixes = self._node_index()
        return prefixes[bisect_right(times, time_s)]

    def sensor_dropout_at(self, time_s: float) -> Tuple[FaultEvent, ...]:
        """Sensor-dropout windows covering ``time_s``."""
        events, times = self._dropout_index()
        return tuple(
            e for e in events[:bisect_right(times, time_s)]
            if time_s < e.end_s
        )

    def noise_sigma_at(self, time_s: float, base_sigma: float) -> float:
        """Effective lognormal noise at ``time_s`` (max of base and bursts)."""
        sigma = float(base_sigma)
        for event in self.of_kind(FaultKind.NOISE_BURST):
            if event.time_s <= time_s < event.end_s:
                sigma = max(sigma, event.sigma)
        return sigma

    def cap_overrides_at(self, time_s: float, tdp_w: float) -> Dict[int, float]:
        """Per-host actuator overrides in force at ``time_s``.

        Stuck domains hold their stuck value; erroring domains revert to
        TDP (the RAPL power-on default when a write fails).  Later events
        win on the same host.
        """
        overrides: Dict[int, float] = {}
        for event in self.of_kind(FaultKind.CAP_STUCK, FaultKind.CAP_ERROR):
            if event.time_s <= time_s < event.end_s or (
                event.duration_s == 0.0 and event.time_s <= time_s
            ):
                value = event.stuck_at_w if event.kind is FaultKind.CAP_STUCK \
                    else float(tdp_w)
                for host in event.host_ids:
                    overrides[host] = float(value)
        return overrides

    def boundaries(self) -> Tuple[float, ...]:
        """Sorted finite clock points at which fault state can change.

        Every event start and (finite) window end, deduplicated — the
        points where a consumer that came up empty should re-check the
        world.  The site engine re-runs admission at each of them.
        """
        return tuple(sorted({
            t for e in self.events for t in (e.time_s, e.end_s)
            if np.isfinite(t)
        }))

    # -- derived schedules ---------------------------------------------
    def shifted(self, dt_s: float) -> "FaultSchedule":
        """The schedule on a clock offset by ``dt_s`` (events before the
        new origin are clamped to time zero, keeping open windows open)."""
        moved = []
        for event in self.events:
            start = event.time_s + dt_s
            if start < 0:
                if event.duration_s == 0.0 or event.end_s + dt_s <= 0:
                    continue  # fully in the past on the new clock
                duration = event.duration_s + start if np.isfinite(
                    event.duration_s) else event.duration_s
                moved.append(replace(event, time_s=0.0, duration_s=duration))
            else:
                moved.append(replace(event, time_s=start))
        return FaultSchedule(events=tuple(moved), name=self.name)

    def engine_slice(self, start_s: float) -> Optional["FaultSchedule"]:
        """The engine-applicable faults, re-clocked to a run starting at
        ``start_s`` on this schedule's clock.  ``None`` when no cap or
        noise fault could touch the run."""
        events = tuple(e for e in self.events if e.kind in ENGINE_KINDS)
        if not events:
            return None
        shifted = FaultSchedule(events=events, name=self.name).shifted(-start_s)
        return shifted if shifted.events else None
