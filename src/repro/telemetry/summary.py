"""Renderable roll-up of the telemetry state: the report's last section.

:class:`TelemetrySummary` freezes a registry snapshot (and optionally
the event bus's per-source counts and the event and span rings' drop
counts) into a plain dataclass that renders
as the fixed-width tables the rest of the reporting layer uses.  The
grid report appends one; the ``repro telemetry`` CLI command prints one;
``--telemetry-out`` writes one next to the JSONL event log.
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
    """Point-in-time summary of metrics plus event-volume counts.

    ``events_dropped`` / ``spans_dropped`` count what the bounded event
    and span rings evicted: nonzero means the events and spans left (and
    any span-tree analysis over them) cover only the recent tail.
    """

    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, Dict[str, float]]
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
        snap = registry.snapshot()
        return cls(
            counters=snap["counters"],
            gauges=snap["gauges"],
            histograms=snap["histograms"],
            event_counts=bus.counts_by_source(),
            events_dropped=bus.dropped,
            spans_dropped=tracer.dropped,
        )

    @property
    def empty(self) -> bool:
        """True when nothing was recorded (telemetry off or unused)."""
        return not (self.counters or self.gauges or self.histograms
                    or self.event_counts or self.events_dropped
                    or self.spans_dropped)

    def rows(self) -> List[List[str]]:
        """All metrics as ``[metric, kind, value, mean, p50, p95, max]``
        table rows (counters/gauges leave the distribution columns
        blank)."""
        out: List[List[str]] = []
        for name, value in self.counters.items():
            out.append([name, "counter", f"{value:g}", "", "", "", ""])
        for name, value in self.gauges.items():
            out.append([name, "gauge", f"{value:g}", "", "", "", ""])
        for name, snap in self.histograms.items():
            out.append([
                name, "histogram", f"{snap['count']:g}",
                f"{snap['mean']:.6g}", f"{snap['p50']:.6g}",
                f"{snap['p95']:.6g}", f"{snap['max']:.6g}",
            ])
        return out

    def render(self) -> str:
        """The metrics table plus the events-by-source table."""
        if self.empty:
            return "(no telemetry recorded)"
        parts = [render_table(
            ["metric", "kind", "count/value", "mean", "p50", "p95", "max"],
            self.rows(),
            title="Metrics snapshot",
        )]
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
