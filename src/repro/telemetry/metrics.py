"""Process-wide metrics: counters, gauges, and streaming histograms.

The registry is the quantitative half of the telemetry subsystem (events
are the qualitative half): hot paths record *how often* and *how much*
into named metric families, and operators read one snapshot at the end.
Host wall time is not a metric: spans (:mod:`repro.telemetry.tracing`)
are its only clock.  Metric names follow the ``layer.component.metric``
convention (``runtime.controller.epochs``, ``manager.admission.admitted``);
families may carry labels (``experiments.grid.cells{policy=MixedAdaptive}``).

Histograms are streaming and dependency-free: exact count/mean/min/max
plus quantile estimates from a fixed-size reservoir (Vitter's algorithm
R with a seeded RNG, so snapshots are deterministic for a given
observation sequence).  Reservoir elements are real observations, so
every quantile estimate is guaranteed to lie within the true
``[min, max]`` of the stream — the property the test suite pins down.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
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
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class Gauge:
    """A point-in-time level (queue depth, utilisation fraction)."""

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the level."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the level up (or down with a negative ``amount``)."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current level."""
        return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable roll-up of one histogram at snapshot time."""

    count: int
    mean: float
    p50: float
    p95: float
    min: float
    max: float

    def as_dict(self) -> Dict[str, float]:
        """Flat dict (export/report friendly)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """Streaming distribution sketch with reservoir quantiles.

    Parameters
    ----------
    reservoir_size:
        Observations kept for quantile estimation.  512 bounds the
        p50/p95 error well below what scheduling decisions care about
        while keeping ``observe`` O(1).
    seed:
        Reservoir-replacement RNG seed (deterministic by default).
    """

    def __init__(self, reservoir_size: int = 512, seed: int = 0x5EED) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact running mean (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation over the
        reservoir); raises ``ValueError`` when empty or ``q`` is outside
        ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            sample = sorted(self._reservoir)
        if not sample:
            raise ValueError("cannot take a quantile of an empty histogram")
        if len(sample) == 1:
            return sample[0]
        position = q * (len(sample) - 1)
        low = int(position)
        high = min(low + 1, len(sample) - 1)
        frac = position - low
        value = sample[low] * (1.0 - frac) + sample[high] * frac
        # The interpolation can round one ulp outside its bracket for
        # near-equal endpoints; clamp so estimates are always within the
        # observed range (the documented guarantee).
        return min(max(value, sample[low]), sample[high])

    def snapshot(self) -> HistogramSnapshot:
        """Current roll-up (all-zero when no observations)."""
        if not self._count:
            return HistogramSnapshot(count=0, mean=0.0, p50=0.0, p95=0.0,
                                     min=0.0, max=0.0)
        return HistogramSnapshot(
            count=self._count,
            mean=self.mean,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            min=self._min,
            max=self._max,
        )

    # -- cross-process merging -----------------------------------------
    def state(self) -> Dict[str, object]:
        """Full mergeable state (exact stats + the reservoir sample).

        Unlike :meth:`snapshot` this is lossless enough to combine two
        histograms: worker processes ship their state to the parent and
        :meth:`merge_state` folds it in.
        """
        with self._lock:
            return {
                "count": self._count,
                "total": self._total,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "reservoir": list(self._reservoir),
            }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Count, total, min, and max merge exactly.  The reservoirs are
        concatenated; when the union overflows the capacity it is
        down-sampled to evenly spaced order statistics (deterministic,
        quantile-preserving), so merged p50/p95 estimates remain within
        the true observed range.
        """
        count = int(state["count"])
        if count == 0:
            return
        with self._lock:
            self._count += count
            self._total += float(state["total"])
            self._min = min(self._min, float(state["min"]))
            self._max = max(self._max, float(state["max"]))
            combined = self._reservoir + [float(v) for v in state["reservoir"]]
            if len(combined) > self._reservoir_size:
                combined.sort()
                last = max(self._reservoir_size - 1, 1)
                positions = [
                    round(i * (len(combined) - 1) / last)
                    for i in range(self._reservoir_size)
                ]
                combined = [combined[p] for p in positions]
            self._reservoir = combined


class MetricsRegistry:
    """Get-or-create home for every metric family in the process.

    All three accessors are idempotent: the first call with a given
    ``(name, labels)`` creates the instrument, later calls return the
    same object, so instrumentation sites never need set-up code.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        #: Bumped by :meth:`reset`: callers that hold metric handles
        #: across calls re-fetch them when it changes.
        self.generation = 0

    # -- accessors -----------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge()
            return self._gauges[key]

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for ``name`` (+labels), created on first use."""
        key = metric_key(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram()
            return self._histograms[key]

    def counter_values(self) -> Dict[str, float]:
        """Current value of every counter, keyed by canonical name.

        A cheap point-in-time copy (no histogram sorting); the tracing
        layer snapshots this at span entry/exit to attribute counter
        deltas to subtrees.
        """
        with self._lock:
            return {k: c.value for k, c in self._counters.items()}

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Drop every metric (a fresh registry without re-wiring)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.generation += 1

    def __len__(self) -> int:
        """Total metric families registered."""
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- cross-process merging -----------------------------------------
    def state(self) -> Dict[str, Dict[str, object]]:
        """Mergeable dump of every metric (see :meth:`merge_state`).

        Counters and gauges export their values; histograms export the
        lossless :meth:`Histogram.state` including the reservoir.  The
        result is picklable/JSON-able, so worker processes can ship it
        back to the parent.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in counters.items()},
            "gauges": {k: g.value for k, g in gauges.items()},
            "histograms": {k: h.state() for k, h in histograms.items()},
        }

    def merge_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters add, gauges keep the **peak** of the existing and
        incoming levels, and histograms merge count/total/min/max
        exactly with reservoir union.  Used by the parallel runner to
        surface per-worker telemetry in the parent process.

        Gauges merge as a maximum because per-worker levels (e.g.
        ``runtime.controller.batch_active_runs``) are concurrent: the
        workers' final values all describe the same instant of the
        parallel run, so "last state shipped wins" would silently report
        an arbitrary worker.  The peak is the one order-independent
        roll-up that is honest for occupancy-style gauges; a merged
        gauge therefore reads "highest level any process reached".
        """
        for key, value in state.get("counters", {}).items():
            with self._lock:
                counter = self._counters.setdefault(key, Counter())
            counter.inc(float(value))
        for key, value in state.get("gauges", {}).items():
            with self._lock:
                gauge = self._gauges.get(key)
                if gauge is None:
                    gauge = self._gauges.setdefault(key, Gauge())
                    gauge.set(float(value))
                else:
                    gauge.set(max(gauge.value, float(value)))
        for key, hist_state in state.get("histograms", {}).items():
            with self._lock:
                histogram = self._histograms.setdefault(key, Histogram())
            histogram.merge_state(hist_state)

    # -- reading back --------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy of every metric, keyed by canonical name.

        Returns ``{"counters": {key: value}, "gauges": {key: value},
        "histograms": {key: snapshot-dict}}``.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {
                k: h.snapshot().as_dict() for k, h in sorted(histograms.items())
            },
        }
