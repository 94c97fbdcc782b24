"""Heap-ordered discrete-event core for the streaming site engine.

Modeled on NRM's ``nrmd`` event loop: every state change of the simulated
site — a job arriving, the facility budget moving, a fault boundary, a
batch finishing, a deferred admission flush, a telemetry tick — is an
:class:`Event` in one totally ordered timeline.  The :class:`EventLoop`
is a plain binary heap keyed by ``(time, kind priority, sequence)``:

* *time* orders the simulation;
* *kind priority* breaks ties deterministically at equal times — budget
  changes apply before admission re-runs, completions free capacity
  before a same-instant arrival is considered, telemetry observes the
  settled state last;
* *sequence* preserves submission order among otherwise identical events
  (two jobs arriving at the same instant are admitted in the order they
  were scheduled, matching the stable sort of the batch shift loop).

The loop is synchronous and allocation-light on purpose: the asyncio
daemon (:mod:`repro.stream.daemon`) feeds it and pumps it, but the
deterministic replay contract lives entirely here.

Hot-path notes
--------------
At sustained arrival rates the loop is the engine's inner loop, so
:meth:`EventLoop.push` allocates exactly one :class:`Event` (slotted, no
``__dict__``) plus the heap's tie-break tuple — the payload keyword dict
is adopted as-is rather than copied, and the tuple's kind component is
the precomputed ``kind.value`` integer rather than an ``int()`` call.
Periodic events (telemetry ticks, admission flushes) avoid even the
event allocation: :meth:`EventLoop.repush` re-arms a delivered event
object at a new time, so a million-tick stream reuses one slot.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Dict, Optional

__all__ = ["EventKind", "Event", "EventLoop"]


class EventKind(enum.IntEnum):
    """Event classes, ordered by same-instant application priority."""

    #: Facility budget moves (mid-stream ``set_budget``).
    BUDGET_CHANGE = 0
    #: A fault-schedule boundary: fault state may differ after this point.
    FAULT_BOUNDARY = 1
    #: An in-flight batch finished; its hosts and budget share free up.
    BATCH_COMPLETE = 2
    #: A job submission enters the admission queue.
    ARRIVAL = 3
    #: A deferred admission flush, armed ahead by quantised rolling
    #: admission and at the same instant by serial admission: it runs
    #: after every arrival and capacity change of its instant has
    #: applied, so one flush sees the settled state.
    ADMISSION = 4
    #: Periodic telemetry snapshot (observes the settled instant).
    TELEMETRY_TICK = 5


class Event:
    """One timeline entry.

    ``payload`` carries kind-specific data (the :class:`JobRequest` of an
    arrival, the new budget of a budget change, the batch handle of a
    completion); ``seq`` is the loop-assigned tiebreaker.  Slotted and
    mutable so the loop can re-arm periodic events in place; treat
    delivered events as owned by the loop whenever they were scheduled
    through :meth:`EventLoop.repush`.
    """

    __slots__ = ("time_s", "kind", "payload", "seq")

    def __init__(
        self,
        time_s: float,
        kind: EventKind,
        payload: Optional[Dict[str, Any]] = None,
        seq: int = -1,
    ) -> None:
        if time_s < 0:
            raise ValueError("event time must be non-negative")
        self.time_s = time_s
        self.kind = kind
        self.payload = payload if payload is not None else {}
        self.seq = seq

    def __repr__(self) -> str:
        return (
            f"Event(time_s={self.time_s!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, seq={self.seq!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time_s == other.time_s
            and self.kind == other.kind
            and self.payload == other.payload
            and self.seq == other.seq
        )


class EventLoop:
    """A deterministic min-heap of :class:`Event` objects.

    Push/pop are O(log n); the heap never holds more than the *scheduled
    but undelivered* horizon (one lookahead arrival per generator stream,
    one completion per in-flight batch, one pending tick), which is what
    keeps the engine's memory bounded under sustained arrival traffic.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()

    def push(self, time_s: float, kind: EventKind, **payload: Any) -> Event:
        """Schedule an event; returns it with its sequence assigned.

        The keyword dict is adopted by the event (it is freshly built by
        the ``**`` call syntax, so no copy is needed on the hot path).
        """
        seq = next(self._seq)
        event = Event(float(time_s), kind, payload, seq)
        # An IntEnum member orders as its value: the member itself is the
        # tie-break key, without the per-push ``.value`` property call.
        heapq.heappush(self._heap, (event.time_s, kind, seq, event))
        return event

    def repush(self, event: Event, time_s: float) -> Event:
        """Re-arm a *delivered* event at a new time, reusing its slot.

        The allocation-free path for periodic events: the caller keeps
        the event object it got back from :meth:`push`, and after each
        delivery re-arms it here instead of allocating a fresh one.  The
        event must not still be in the heap (its heap entry holds the old
        time and would corrupt the ordering).
        """
        t = float(time_s)
        if t < 0:
            raise ValueError("event time must be non-negative")
        seq = next(self._seq)
        event.time_s = t
        event.seq = seq
        heapq.heappush(self._heap, (t, event.kind, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event loop")
        return heapq.heappop(self._heap)[-1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
