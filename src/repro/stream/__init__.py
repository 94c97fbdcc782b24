"""Streaming event-driven site engine (ROADMAP item 1).

The long-lived service form of the site loop: a heap-ordered
discrete-event core (:mod:`repro.stream.events`), generator-fed arrival
sources (:mod:`repro.stream.arrivals`), the replay/rolling engine over
the shared batch physics (:mod:`repro.stream.engine`), the versioned
JSON wire protocol (:mod:`repro.stream.messages`), and the asyncio
pub/sub daemon (:mod:`repro.stream.daemon`).

Entry points: :func:`stream_site_simulation` replays a pre-built arrival
list through :func:`~repro.manager.site_simulation.run_site_simulation`;
:class:`SiteStreamEngine` with ``rolling=True`` sustains generator-fed
load with bounded memory; :class:`StreamDaemon` serves it to clients.
"""

from repro.stream.arrivals import (
    burst_stream,
    poisson_stream,
    replay_stream,
    synthetic_job_factory,
)
from repro.stream.daemon import StreamDaemon, run_daemon_once
from repro.stream.engine import (
    SiteStreamEngine,
    StreamStats,
    stream_site_simulation,
)
from repro.stream.events import Event, EventKind, EventLoop
from repro.stream.messages import STREAM_SCHEMA

__all__ = [
    "Event",
    "EventKind",
    "EventLoop",
    "SiteStreamEngine",
    "StreamDaemon",
    "StreamStats",
    "STREAM_SCHEMA",
    "burst_stream",
    "poisson_stream",
    "replay_stream",
    "run_daemon_once",
    "stream_site_simulation",
    "synthetic_job_factory",
]
