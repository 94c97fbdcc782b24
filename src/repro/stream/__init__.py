"""Streaming event-driven site engine.

The long-lived service form of the site loop: a heap-ordered
discrete-event core (:mod:`repro.stream.events`), generator-fed arrival
sources (:mod:`repro.stream.arrivals`), the event engine over the shared
batch physics (:mod:`repro.stream.engine`), the versioned JSON wire
protocol (:mod:`repro.stream.messages`), and the asyncio pub/sub daemon
(:mod:`repro.stream.daemon`).

Entry points: :class:`SiteStreamEngine` sustains generator-fed load
with bounded memory (rolling admission), and :class:`SerialSiteEngine`
is its serial mode, the batch shift loop that
:func:`~repro.manager.site_simulation.run_site_simulation` runs.
:class:`~repro.stream.daemon.StreamDaemon` serves a rolling engine to
clients; it is imported from :mod:`repro.stream.daemon` so that the
engine's importers do not pay for asyncio.
"""

from repro.stream.arrivals import (
    burst_stream,
    poisson_stream,
    replay_stream,
    synthetic_job_factory,
)
from repro.stream.engine import SerialSiteEngine, SiteStreamEngine, StreamStats
from repro.stream.events import Event, EventKind, EventLoop
from repro.stream.messages import STREAM_SCHEMA

__all__ = [
    "Event",
    "EventKind",
    "EventLoop",
    "SerialSiteEngine",
    "SiteStreamEngine",
    "StreamStats",
    "STREAM_SCHEMA",
    "burst_stream",
    "poisson_stream",
    "replay_stream",
    "synthetic_job_factory",
]
