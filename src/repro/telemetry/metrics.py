"""Process-wide metrics: exact counters.

The registry is the quantitative half of the telemetry subsystem (events
are the qualitative half): hot paths record *how often* and *how much*
into named counters, and operators read one snapshot at the end.  A
counter is an exact sum, never a sample: it merges across pool workers
by addition, and it counts whether or not spans are being recorded.
Host wall time is not a metric: spans (:mod:`repro.telemetry.tracing`)
are its only clock.  A level or a distribution (queue depth, batch
duration) is not a metric either: the event that reports it
(``admission_decision``, ``batch_complete``) carries the exact value.

Counter names follow the ``layer.component.metric`` convention
(``runtime.controller.runs``, ``manager.admission.admitted``); families
may carry labels (``experiments.grid.cells{policy=MixedAdaptive}``).
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping

__all__ = [
    "Counter",
    "MetricsRegistry",
    "metric_key",
]


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{k=v,...}`` key for one family member."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, items, watts summed)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(
                "counters only go up; report a level in an event payload"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class MetricsRegistry:
    """Get-or-create home for every counter in the process.

    :meth:`counter` is idempotent: the first call with a given
    ``(name, labels)`` creates the counter, later calls return the same
    object, so instrumentation sites never need set-up code.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def reset(self) -> None:
        """Drop every counter (a fresh registry without re-wiring)."""
        with self._lock:
            self._counters.clear()

    def __len__(self) -> int:
        """Counters registered."""
        return len(self._counters)

    # -- cross-process merging -----------------------------------------
    def state(self) -> Dict[str, Dict[str, float]]:
        """Mergeable ``{"counters": {key: value}}`` dump (picklable and
        JSON-able, so worker processes can ship it back to the parent)."""
        with self._lock:
            counters = dict(self._counters)
        return {"counters": {k: c.value for k, c in counters.items()}}

    def merge_state(self, state: Mapping[str, Mapping[str, float]]) -> None:
        """Fold another registry's :meth:`state` into this one: counters
        add, so the merged value is exact whatever the order."""
        for key, value in state.get("counters", {}).items():
            with self._lock:
                counter = self._counters.setdefault(key, Counter())
            counter.inc(float(value))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Point-in-time ``{"counters": {key: value}}``, keys sorted."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
        }
