"""Asyncio daemon around the rolling site engine (NRM's ``nrmd`` shape).

One TCP listener, newline-delimited ``repro.stream.v1`` JSON frames
(:mod:`repro.stream.messages`).  Clients *submit* jobs upstream and
receive *acks*, *stats*, and a pub/sub *event* feed downstream — the
latter bridged straight off the process telemetry
:class:`~repro.telemetry.events.EventBus`, so every instrumented layer of
the stack (admission decisions, batch completions, engine ticks) is
visible to a subscribed client without bespoke plumbing.

Concurrency model: the simulation itself is synchronous and
deterministic.  Client handlers serialise engine access behind one
``asyncio.Lock``; each upstream frame is applied to the engine and the
timeline is pumped to quiescence before the reply is written (simulated
time is free — a day of site operation drains in milliseconds of wall
time).  Subscriber fan-out is backpressured per client: a bounded buffer
drops the oldest events past ``max_backlog`` and counts the drops, so one
slow reader never stalls the engine or other clients.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.stream import messages as msg
from repro.stream.engine import SiteStreamEngine
from repro.telemetry import enabled, get_bus, get_registry, span

__all__ = ["StreamDaemon"]


class _Subscriber:
    """Per-client event buffer (bounded, drop-oldest)."""

    def __init__(self, kinds: Optional[List[str]], max_backlog: int) -> None:
        self.kinds = set(kinds) if kinds is not None else None
        self.max_backlog = max_backlog
        # A deque keeps drop-oldest eviction O(1); a list.pop(0) here
        # costs O(max_backlog) per frame once a slow client saturates.
        self.buffer: Deque[Dict[str, object]] = deque()
        self.dropped = 0

    def offer(self, source: str, kind: str, payload: Dict[str, object]) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        if len(self.buffer) >= self.max_backlog:
            self.buffer.popleft()
            self.dropped += 1
            # Backpressure drops must be observable, not silent: the
            # per-flush error frame only reaches the slow client itself,
            # while this counter surfaces the drop rate to operators.
            if enabled():
                get_registry().counter(
                    "stream.daemon.frames_dropped"
                ).inc()
        self.buffer.append(msg.event_message(source, kind, payload))


class StreamDaemon:
    """Serve one rolling :class:`SiteStreamEngine` to local clients.

    Parameters
    ----------
    engine:
        A rolling engine; the daemon owns its timeline.
    host / port:
        Bind address; port 0 (default) lets the OS choose — read the
        bound address from :attr:`address` after :meth:`start`.
    max_backlog:
        Per-subscriber event buffer bound (drop-oldest past it).
    """

    def __init__(self, engine: SiteStreamEngine, host: str = "127.0.0.1",
                 port: int = 0, max_backlog: int = 256) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.max_backlog = max_backlog
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = asyncio.Lock()
        self._subscribers: Dict[int, _Subscriber] = {}
        self._next_client = 0
        self._bus_token = None
        self._stopping = asyncio.Event()
        self._client_tasks: set = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and bridge the telemetry bus; returns the
        bound address."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self._bus_token = get_bus().subscribe(self._on_bus_event)
        return self.address

    async def stop(self) -> None:
        """Stop serving and detach from the telemetry bus."""
        self._stopping.set()
        if self._bus_token is not None:
            get_bus().unsubscribe(self._bus_token)
            self._bus_token = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap handler tasks still blocked on idle clients, so loop
        # teardown never reports an un-retrieved cancellation.
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks,
                                 return_exceptions=True)
            self._client_tasks.clear()

    async def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or :meth:`stop`)."""
        await self._stopping.wait()
        await self.stop()

    # ------------------------------------------------------------------
    def _on_bus_event(self, event) -> None:
        # Runs synchronously inside engine pumps; buffers only.
        for sub in self._subscribers.values():
            sub.offer(event.source, event.kind, dict(event.payload))

    async def _flush_subscriber(self, client_id: int,
                                writer: asyncio.StreamWriter) -> None:
        sub = self._subscribers.get(client_id)
        if sub is None or not sub.buffer:
            return
        buffered = list(sub.buffer)
        sub.buffer.clear()
        if sub.dropped:
            buffered.insert(0, msg.error_message(
                "subscriber backlog overflow", dropped=sub.dropped,
            ))
            sub.dropped = 0
        for frame in buffered:
            writer.write(msg.encode_message(frame))
        await writer.drain()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        client_id = self._next_client
        self._next_client += 1
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                reply = await self._dispatch(client_id, line)
                # Events generated while dispatching precede the reply
                # on the wire, so a client that reads to its ack has
                # already seen everything its request caused.
                await self._flush_subscriber(client_id, writer)
                writer.write(msg.encode_message(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Cancelled by stop(); finish normally — a handler task left
            # in the cancelled state trips the 3.11 streams callback's
            # unguarded task.exception() at loop teardown.
            pass
        finally:
            self._subscribers.pop(client_id, None)
            if task is not None:
                self._client_tasks.discard(task)
            with contextlib.suppress(asyncio.CancelledError, Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, client_id: int,
                        line: bytes) -> Dict[str, object]:
        try:
            message = msg.decode_message(line)
        except ValueError as exc:
            return msg.error_message(str(exc))
        problems = msg.validate_upstream(message)
        if problems:
            return msg.error_message("; ".join(problems))
        op = message["op"]
        if op in ("subscribe", "unsubscribe", "shutdown"):
            # Control ops never touch the engine; span them outside the
            # lock (the handlers are synchronous).
            with span("stream.daemon.dispatch", op=op, client=client_id):
                if op == "subscribe":
                    self._subscribers[client_id] = _Subscriber(
                        message.get("kinds"), self.max_backlog
                    )
                elif op == "unsubscribe":
                    self._subscribers.pop(client_id, None)
                else:
                    self._stopping.set()
                return msg.ack_message(op)

        async with self._lock:
            # The span opens after the lock is held: everything inside
            # is synchronous (no awaits), so the trace context cannot
            # interleave with another client's handler.
            with span("stream.daemon.dispatch", op=op, client=client_id):
                return self._dispatch_engine_op(op, message)

    def _dispatch_engine_op(self, op: str,
                            message: Dict[str, object]) -> Dict[str, object]:
        engine = self.engine
        if op == "submit":
            job = message["job"]
            try:
                request = msg.job_request_from_payload(job)
                if engine.max_pending is not None and \
                        engine.queue.pending_count() >= engine.max_pending:
                    # Surface backpressure as a reply, not a silent
                    # drop: the engine would reject it anyway.
                    return msg.error_message(
                        "queue full", name=request.name,
                        max_pending=engine.max_pending,
                    )
                time_s = engine.submit(request, job.get("time_s"))
                # Pump inside the guard: a domain error surfacing
                # mid-timeline (duplicate name, bad spec) becomes an
                # error reply, not a dropped connection.
                engine.run()
            except (ValueError, KeyError) as exc:
                return msg.error_message(str(exc))
            return msg.ack_message(
                "submit", name=request.name, time_s=time_s,
            )
        if op == "set_budget":
            try:
                time_s = engine.set_budget(float(message["budget_w"]))
            except ValueError as exc:
                return msg.error_message(str(exc))
            engine.run()
            return msg.ack_message(
                "set_budget", budget_w=float(message["budget_w"]),
                time_s=time_s,
            )
        if op == "stats":
            engine.stats.clock_s = engine.clock
            return msg.stats_reply(engine.stats.snapshot())
        return msg.error_message(f"unhandled op {op!r}")

