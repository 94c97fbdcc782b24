"""Structured event bus: the stack's shared telemetry pipeline.

Every layer of the stack publishes :class:`Event` records — admission
decisions, balancer convergence, grid cells completing — to an
:class:`EventBus` instead of printing or keeping private logs.  The bus
counts every event per source, exactly, and fans events out to
subscribers in subscription order.  While recording (inside
:func:`recording`) it also keeps a bounded ring buffer of the events,
which it can export as JSONL or CSV for offline analysis.  Outside
:func:`recording` a bus with no subscribers builds no :class:`Event` at
all: a publish is one counter increment.  The design follows NRM's
upstream pub/sub API: producers never know who is listening, and a
subscriber (a trace writer, a dashboard, a test assertion) attaches
without touching the producer.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Union)

__all__ = ["Event", "EventBus", "recording", "is_recording"]

#: Open :func:`recording` blocks in this process.  While positive, every
#: bus keeps its event ring and :func:`repro.telemetry.tracing.span`
#: records :class:`~repro.telemetry.tracing.Span` objects in the tracer's
#: ring; otherwise both keep only their exact counts and totals.
_recording = 0
_recording_lock = threading.Lock()


@contextmanager
def recording() -> Iterator[None]:
    """Keep telemetry history inside the block: the event ring and the
    finished-span ring (and the span tree it exports).

    Outside it the pipeline keeps only exact aggregates (counters,
    per-source event counts, per-name span totals) and fans events out
    to live subscribers.  Blocks nest; the switch is process-wide.
    """
    global _recording
    with _recording_lock:
        _recording += 1
    try:
        yield
    finally:
        with _recording_lock:
            _recording -= 1


def is_recording() -> bool:
    """Whether a :func:`recording` block is open in this process."""
    return _recording > 0


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
    """Pub/sub event pipeline with exact per-source counts and, while
    recording, a bounded history.

    Parameters
    ----------
    capacity:
        Ring-buffer size; once exceeded while recording, the oldest
        events are dropped and counted in :attr:`dropped`.
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
    def publish(self, source: str, kind: str,
                **payload: object) -> Optional[Event]:
        """Count one event and, when anything reads it, create it,
        buffer it (while recording) and fan it out.

        Returns the event, or ``None`` when nothing reads it: outside
        :func:`recording`, with no subscribers.
        """
        return self._publish(source, kind, payload)

    def _publish(self, source: str, kind: str,
                 payload: Dict[str, object]) -> Optional[Event]:
        """:meth:`publish` with the payload already packed (``emit``
        calls this, so a publish packs its keywords once)."""
        with self._lock:
            self._counts[source] += 1
            if not (self._subscribers or _recording):
                return None
            event = Event(ts=float(self._clock()), source=source, kind=kind,
                          payload=payload)
            if _recording:
                self._append(event)
            subscribers = list(self._subscribers.values())
        self._fan_out(subscribers, (event,))
        return event

    @property
    def reading(self) -> bool:
        """Whether a publish now builds an event: a subscriber is
        attached or a :func:`recording` block is open."""
        return bool(self._subscribers or _recording)

    def count(self, source: str, n: int) -> None:
        """Count ``n`` events of ``source`` in one step, exactly as ``n``
        publishes that nothing reads would (see :attr:`reading`)."""
        if n:
            with self._lock:
                self._counts[source] += n

    @staticmethod
    def _fan_out(subscribers: Sequence[tuple],
                 events: Sequence[Event]) -> None:
        """Deliver ``events`` to each matching subscriber, in order."""
        for event in events:
            for callback, kinds, sources in subscribers:
                if kinds is not None and event.kind not in kinds:
                    continue
                if sources is not None and event.source not in sources:
                    continue
                callback(event)

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
        """Events currently held in the ring buffer (recorded ones)."""
        return len(self._buffer)

    def events(self, kind: Optional[str] = None,
               source: Optional[str] = None) -> List[Event]:
        """Buffered events, oldest first, optionally filtered (empty
        unless they were published inside :func:`recording`)."""
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
        """Buffer already-stamped events (e.g. shipped from a worker
        process) preserving their original timestamps while recording,
        and fan them out to subscribers like a live publish.

        ``counts`` (the shipping bus's :meth:`counts_by_source`) replaces
        the per-source count of ``events`` when given, so events the
        shipping ring evicted still count; ``dropped`` (its ring
        evictions) adds into :attr:`dropped`.
        """
        if counts is None:
            counts = Counter(event.source for event in events)
        with self._lock:
            if _recording:
                for event in events:
                    self._append(event)
            self._counts.update(counts)
            self.dropped += dropped
            subscribers = list(self._subscribers.values())
        self._fan_out(subscribers, events)

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
