"""Structured event bus: the stack's shared telemetry pipeline.

Every layer of the stack publishes :class:`Event` records — admission
decisions, balancer convergence, grid cells completing — to an
:class:`EventBus` instead of printing or keeping private logs.  The bus
keeps a bounded ring buffer (recent history survives without unbounded
memory), fans events out to subscribers in subscription order, and can
export the buffer as JSONL or CSV for offline analysis.  The design
follows NRM's upstream pub/sub API: producers never know who is
listening, and a subscriber (a trace writer, a dashboard, a test
assertion) attaches without touching the producer.

Event taxonomy: ``source`` is the emitting component in dotted
``layer.component`` form (``runtime.controller``, ``manager.admission``,
``experiments.grid``); ``kind`` names what happened
(``run_complete``, ``admission_decision``, ``cell_complete``); the
``payload`` carries flat JSON-serialisable details.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

__all__ = ["Event", "EventBus"]


@dataclass(frozen=True)
class Event:
    """One structured telemetry record.

    Attributes
    ----------
    ts:
        Seconds since the epoch at publish time (bus clock).
    source:
        Emitting component, dotted ``layer.component`` style.
    kind:
        What happened (event type within the source's taxonomy).
    payload:
        Flat JSON-serialisable details of the occurrence.
    """

    ts: float
    source: str
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form used by the JSONL/CSV exporters."""
        return {"ts": self.ts, "source": self.source, "kind": self.kind,
                **self.payload}

    def to_json(self) -> str:
        """One JSONL line (non-serialisable payload values fall back to
        ``str``)."""
        return json.dumps(self.to_dict(), default=str, sort_keys=False)


class EventBus:
    """Bounded pub/sub event pipeline.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are dropped once exceeded,
        and counted in :attr:`dropped`.
    clock:
        Timestamp source (injectable for deterministic tests).
    """

    def __init__(self, capacity: int = 8192,
                 clock: Callable[[], float] = time.time) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._buffer: deque = deque(maxlen=capacity)
        #: Events evicted by the ring since construction or :meth:`clear`.
        self.dropped = 0
        #: Events published or replayed per source, independent of the
        #: ring (:meth:`counts_by_source`).
        self._counts: Counter = Counter()
        self._clock = clock
        self._subscribers: Dict[int, tuple] = {}
        self._next_token = 0
        self._lock = threading.Lock()

    # -- publishing ----------------------------------------------------
    def publish(self, source: str, kind: str, **payload: object) -> Event:
        """Create, buffer, and fan out one event; returns it."""
        event = Event(ts=float(self._clock()), source=source, kind=kind,
                      payload=payload)
        with self._lock:
            self._append(event)
            self._counts[source] += 1
            subscribers = list(self._subscribers.values())
        for callback, kinds, sources in subscribers:
            if kinds is not None and event.kind not in kinds:
                continue
            if sources is not None and event.source not in sources:
                continue
            callback(event)
        return event

    def _append(self, event: Event) -> None:
        """Buffer one event, counting the one it evicts (lock held)."""
        if len(self._buffer) == self._buffer.maxlen:
            self.dropped += 1
        self._buffer.append(event)

    # -- subscribing ---------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[Event], None],
        kinds: Optional[Sequence[str]] = None,
        sources: Optional[Sequence[str]] = None,
    ) -> int:
        """Register a callback; returns a token for :meth:`unsubscribe`.

        Callbacks fire synchronously at publish time, in subscription
        order, optionally filtered to the given ``kinds`` / ``sources``.
        """
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = (
                callback,
                frozenset(kinds) if kinds is not None else None,
                frozenset(sources) if sources is not None else None,
            )
        return token

    def unsubscribe(self, token: int) -> None:
        """Remove a subscription; unknown tokens raise ``KeyError``."""
        with self._lock:
            del self._subscribers[token]

    @property
    def subscriber_count(self) -> int:
        """Number of live subscriptions."""
        with self._lock:
            return len(self._subscribers)

    # -- reading back --------------------------------------------------
    def __len__(self) -> int:
        """Events currently held in the ring buffer."""
        return len(self._buffer)

    def events(self, kind: Optional[str] = None,
               source: Optional[str] = None) -> List[Event]:
        """Buffered events, oldest first, optionally filtered."""
        with self._lock:
            out = list(self._buffer)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if source is not None:
            out = [e for e in out if e.source == source]
        return out

    def sources(self) -> List[str]:
        """Distinct event sources in the buffer, sorted."""
        return sorted({e.source for e in self.events()})

    def counts_by_source(self) -> Dict[str, int]:
        """Exact event counts keyed by source (taxonomy roll-up) over
        every event published or replayed since construction or
        :meth:`clear`, evicted ones included."""
        with self._lock:
            return dict(self._counts)

    def replay(self, events: Sequence[Event],
               counts: Optional[Mapping[str, int]] = None,
               dropped: int = 0) -> None:
        """Append already-stamped events (e.g. shipped from a worker
        process) preserving their original timestamps, and fan them out
        to subscribers like a live publish.

        ``counts`` (the shipping bus's :meth:`counts_by_source`) replaces
        the per-source count of ``events`` when given, so events the
        shipping ring evicted still count; ``dropped`` (its ring
        evictions) adds into :attr:`dropped`.
        """
        if counts is None:
            counts = Counter(event.source for event in events)
        with self._lock:
            for event in events:
                self._append(event)
            self._counts.update(counts)
            self.dropped += dropped
            subscribers = list(self._subscribers.values())
        for event in events:
            for callback, kinds, sources in subscribers:
                if kinds is not None and event.kind not in kinds:
                    continue
                if sources is not None and event.source not in sources:
                    continue
                callback(event)

    def clear(self) -> None:
        """Drop all buffered events, the per-source counts and the drop
        count (subscriptions are kept)."""
        with self._lock:
            self._buffer.clear()
            self._counts.clear()
            self.dropped = 0

    # -- export --------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the buffer as JSON Lines; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(event.to_json() + "\n")
        return path

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the buffer as CSV (header is the union of payload keys,
        first-seen order after ``ts,source,kind``); returns the path."""
        rows = [e.to_dict() for e in self.events()]
        names: List[str] = ["ts", "source", "kind"]
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=names, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(buffer.getvalue(), encoding="utf-8")
        return path
