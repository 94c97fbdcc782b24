"""Renderable roll-up of the telemetry state: the report's last section.

:class:`TelemetrySummary` freezes the registry's counters, the tracer's
exact per-span-name totals, the event bus's per-source counts and the
event and span rings' drop counts into a plain dataclass that renders
as the fixed-width tables the rest of the reporting layer uses.  Every
figure in it is exact: nothing is sampled.  The counts and totals are
kept on every run; the rings, and so their drop counts, only while
recording (:func:`repro.telemetry.recording`).  The grid report appends
one; the ``repro telemetry`` CLI command prints one; ``--telemetry-out``
writes one next to the JSONL event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.render import render_table
from repro.telemetry import context
from repro.telemetry.events import EventBus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer, get_tracer

__all__ = ["TelemetrySummary"]


@dataclass(frozen=True)
class TelemetrySummary:
    """Point-in-time summary of counters, span totals and event counts.

    ``counters``, ``span_totals`` and ``event_counts`` are exact over
    the whole run; ``events_dropped`` / ``spans_dropped`` count what the
    bounded event and span rings evicted while recording: nonzero means
    the events and spans left (and any span-tree analysis over them)
    cover only the recent tail.
    """

    counters: Dict[str, float]
    span_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    events_dropped: int = 0
    spans_dropped: int = 0

    @classmethod
    def capture(
        cls,
        registry: Optional[MetricsRegistry] = None,
        bus: Optional[EventBus] = None,
        tracer: Optional[Tracer] = None,
    ) -> "TelemetrySummary":
        """Snapshot the given (default: global) registry, bus and tracer."""
        registry = registry if registry is not None else context.get_registry()
        bus = bus if bus is not None else context.get_bus()
        tracer = tracer if tracer is not None else get_tracer()
        return cls(
            counters=registry.snapshot()["counters"],
            span_totals=tracer.totals(),
            event_counts=bus.counts_by_source(),
            events_dropped=bus.dropped,
            spans_dropped=tracer.dropped,
        )

    @property
    def empty(self) -> bool:
        """True when nothing was recorded (telemetry off or unused)."""
        return not (self.counters or self.span_totals or self.event_counts
                    or self.events_dropped or self.spans_dropped)

    def rows(self) -> List[List[str]]:
        """Every counter as a ``[metric, value]`` table row."""
        return [[name, f"{value:g}"] for name, value in self.counters.items()]

    def render(self) -> str:
        """The counters, spans and events-by-source tables."""
        if self.empty:
            return "(no telemetry recorded)"
        parts = [render_table(
            ["metric", "value"],
            self.rows(),
            title="Metrics snapshot",
        )]
        if self.span_totals:
            parts.append(render_table(
                ["name", "count", "wall_s", "self_s", "cpu_s"],
                [[name, row["count"], f"{row['wall_s']:.4f}",
                  f"{row['self_s']:.4f}", f"{row['cpu_s']:.4f}"]
                 for name, row in self.span_totals.items()],
                title="Spans",
            ))
        if self.event_counts:
            parts.append(render_table(
                ["source", "events"],
                [[s, n] for s, n in sorted(self.event_counts.items())],
                title="Events by source",
            ))
        if self.events_dropped or self.spans_dropped:
            parts.append(render_table(
                ["ring", "dropped"],
                [["events", self.events_dropped],
                 ["spans", self.spans_dropped]],
                title="Evicted by full rings (oldest first)",
            ))
        return "\n\n".join(parts)
