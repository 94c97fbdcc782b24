"""Unified telemetry: structured events, metrics, and hierarchical spans.

The paper's central claim is that power-management quality is a function
of *what telemetry a layer can see*; this subsystem makes the
reproduction itself observable with the same discipline.  Three pieces,
one pipeline:

* :mod:`repro.telemetry.events` — a structured :class:`EventBus`
  (``Event(ts, source, kind, payload)``, subscriber API, exact
  per-source counts; a ring buffer with JSONL/CSV export while
  recording) in the spirit of NRM's upstream pub/sub API;
* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of exact
  counters that merge across pool workers by addition (a level or a
  duration rides in the payload of the event that reports it);
* :mod:`repro.telemetry.tracing` — :func:`span` scopes in a call tree,
  the only wall-time clock, with exact per-name totals (count, wall,
  self and CPU seconds) on the :class:`Tracer`.

Every layer records through the process-global context
(:func:`get_registry` / :func:`get_bus` / :func:`emit`), switchable with
:func:`set_enabled`; :class:`TelemetrySummary` rolls the state up for
reports and the CLI.  History — the event ring and the span tree — is
kept only inside a :func:`recording` block.  Metric names follow
``layer.component.metric``; event sources follow ``layer.component``.

Quick tour::

    from repro import telemetry

    telemetry.reset()
    token = telemetry.get_bus().subscribe(print, kinds=["cell_complete"])
    ...  # run anything in the stack
    print(telemetry.TelemetrySummary.capture().render())
    telemetry.get_bus().unsubscribe(token)
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "context": ("disabled", "emit", "enabled", "get_bus", "get_registry",
                "isolate", "reset", "set_enabled"),
    "events": ("Event", "EventBus", "is_recording", "recording"),
    "metrics": ("Counter", "MetricsRegistry", "metric_key"),
    "provenance": ("PROVENANCE_SCHEMA", "capture_ledger", "load_ledger",
                   "validate_ledger", "write_ledger"),
    "profiling": ("profile_command", "write_profile"),
    "summary": ("TelemetrySummary",),
    "tracing": ("Span", "Tracer", "current_span", "get_tracer", "set_tracing",
                "span", "span_forest", "tracing_enabled",
                "validate_span_tree"),
})
