"""The process-wide telemetry context: one registry, one bus, one switch.

Instrumentation sites across the stack need a zero-configuration place
to record into; this module holds it.  :func:`get_registry` and
:func:`get_bus` return the shared :class:`~repro.telemetry.metrics.MetricsRegistry`
and :class:`~repro.telemetry.events.EventBus`; :func:`set_enabled`
flips the whole subsystem off (instrumented code keeps running, records
nothing — the overhead benchmark's baseline); :func:`emit` is the
publish helper every layer uses, which honours the switch.

By default the pipeline keeps exact aggregates only: counters, the
bus's per-source event counts and the tracer's per-name span totals,
and events reach live subscribers.  History (the event ring and the
span tree) is kept only while recording, inside
:func:`~repro.telemetry.events.recording`; ``--telemetry-out`` runs its
command that way.

The context is deliberately process-global, like logging's root logger:
the stack's layers must share one pipeline for the grid report to see
runtime, manager, and experiments telemetry together.  Tests that need
isolation call :func:`reset` (or construct private registries/buses).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.events import Event, EventBus
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "enabled",
    "set_enabled",
    "get_registry",
    "get_bus",
    "emit",
    "reset",
    "isolate",
    "disabled",
]

_enabled: bool = True
_registry = MetricsRegistry()
_bus = EventBus()


def enabled() -> bool:
    """Whether the global telemetry pipeline is recording."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Switch global recording on/off; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager that suspends global recording inside the block."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def get_bus() -> EventBus:
    """The process-wide event bus."""
    return _bus


def emit(source: str, kind: str, **payload: object) -> Optional[Event]:
    """Publish one event to the global bus — or nothing when disabled.

    Returns the event, or ``None`` when disabled or when nothing reads
    it (no subscriber and no :func:`~repro.telemetry.events.recording`
    block; the bus then only counts it).

    This is the helper instrumented layers call; components that must
    always record (e.g. an explicitly attached trace writer) publish to
    a bus directly instead.
    """
    if not _enabled:
        return None
    return _bus._publish(source, kind, payload)


def reset() -> None:
    """Clear the global registry, the bus's events and counts, and the
    tracer's spans and totals (switches unchanged)."""
    from repro.telemetry import tracing

    _registry.reset()
    _bus.clear()
    tracing.get_tracer().clear()


def isolate() -> None:
    """Replace the global registry, bus, and tracer with fresh instances.

    Unlike :func:`reset`, this also discards subscribers and open span
    stacks — which is what a forked worker process needs: subscriptions
    (and any file handles they close over, e.g. a trace writer) belong
    to the parent and must not fire in the child, and a parent's open
    spans must not become the worker's span ancestry.
    """
    global _registry, _bus
    from repro.telemetry import tracing

    _registry = MetricsRegistry()
    _bus = EventBus()
    tracing._reset_tracer()
