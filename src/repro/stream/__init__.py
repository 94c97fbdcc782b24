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
clients.

Like every package ``__init__``, this one imports nothing: each name
below resolves on first access (:mod:`repro._exports`), so importing
the engine loads neither the daemon nor asyncio.  The daemon is not
exported here; import it from :mod:`repro.stream.daemon`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "arrivals": ("poisson_stream", "replay_stream", "synthetic_job_factory"),
    "engine": ("SerialSiteEngine", "SiteStreamEngine", "StreamStats"),
    "events": ("Event", "EventKind", "EventLoop"),
    "messages": ("STREAM_SCHEMA",),
})
