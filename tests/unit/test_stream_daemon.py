"""Unit tests: the asyncio stream daemon (plain ``asyncio.run`` — no
pytest-asyncio dependency)."""

import asyncio
import json

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.stream import SiteStreamEngine, synthetic_job_factory
from repro.stream import messages as msg
from repro.stream.daemon import StreamDaemon


def _engine(**kwargs):
    return SiteStreamEngine(
        Cluster(node_count=12, variation=None, seed=0),
        create_policy("StaticCaps"), 2500.0, **kwargs
    )


class _Client:
    """Line-framed test client that siphons pub/sub frames aside."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.events = []

    @classmethod
    async def connect(cls, host, port):
        return cls(*await asyncio.open_connection(host, port))

    async def rpc(self, message):
        self.writer.write(msg.encode_message(message))
        await self.writer.drain()
        while True:
            frame = json.loads(await self.reader.readline())
            if frame.get("type") == "event":
                self.events.append(frame)
                continue
            return frame

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


async def _with_daemon(engine, body):
    daemon = StreamDaemon(engine)
    host, port = await daemon.start()
    client = await _Client.connect(host, port)
    try:
        return await body(daemon, client)
    finally:
        await client.close()
        await daemon.stop()


class TestDaemon:
    def test_submit_runs_jobs_and_acks(self):
        async def body(daemon, client):
            factory = synthetic_job_factory(prefix="d")
            for i in range(3):
                reply = await client.rpc(msg.submit_message(factory(i)))
                assert reply["type"] == "ack"
                assert reply["name"] == f"d-{i}"
            reply = await client.rpc(msg.stats_message())
            assert reply["stats"]["jobs_completed"] == 3
            return reply

        asyncio.run(_with_daemon(_engine(), body))

    def test_pub_sub_delivers_bus_events(self):
        async def body(daemon, client):
            reply = await client.rpc(
                msg.subscribe_message(kinds=["batch_complete"])
            )
            assert reply["type"] == "ack"
            factory = synthetic_job_factory(prefix="s")
            await client.rpc(msg.submit_message(factory(0)))
            assert client.events
            frame = client.events[0]
            assert msg.validate_downstream(frame) == []
            assert frame["kind"] == "batch_complete"

        asyncio.run(_with_daemon(_engine(), body))

    def test_unsubscribe_stops_the_feed(self):
        async def body(daemon, client):
            await client.rpc(msg.subscribe_message())
            await client.rpc(msg.unsubscribe_message())
            client.events.clear()
            factory = synthetic_job_factory(prefix="u")
            await client.rpc(msg.submit_message(factory(0)))
            assert client.events == []

        asyncio.run(_with_daemon(_engine(), body))

    def test_malformed_and_invalid_frames_get_errors(self):
        async def body(daemon, client):
            client.writer.write(b"{broken\n")
            await client.writer.drain()
            frame = json.loads(await client.reader.readline())
            assert frame["type"] == "error"
            reply = await client.rpc(
                {"schema": msg.STREAM_SCHEMA, "op": "reboot"}
            )
            assert reply["type"] == "error"
            assert "unknown op" in reply["reason"]

        asyncio.run(_with_daemon(_engine(), body))

    def test_duplicate_name_is_an_error_not_a_crash(self):
        async def body(daemon, client):
            factory = synthetic_job_factory(prefix="dup")
            first = await client.rpc(msg.submit_message(factory(0)))
            assert first["type"] == "ack"
            again = await client.rpc(msg.submit_message(factory(0)))
            assert again["type"] == "error"
            # The daemon is still serving.
            reply = await client.rpc(msg.stats_message())
            assert reply["type"] == "stats"

        asyncio.run(_with_daemon(_engine(), body))

    def test_backpressure_surfaces_queue_full(self):
        engine = _engine(max_pending=1)
        # Occupy the queue before the daemon pumps: the daemon must
        # refuse further submissions with an error reply rather than
        # acking a job the engine would silently reject.
        factory = synthetic_job_factory(prefix="pre")
        engine.queue.submit(factory(0))

        async def body(daemon, client):
            reply = await client.rpc(msg.submit_message(factory(1)))
            assert reply["type"] == "error"
            assert reply["reason"] == "queue full"
            assert reply["max_pending"] == 1

        asyncio.run(_with_daemon(engine, body))

    def test_set_budget_round_trip(self):
        async def body(daemon, client):
            reply = await client.rpc(msg.set_budget_message(1200.0))
            assert reply["type"] == "ack"
            assert daemon.engine.budget_w == 1200.0

        asyncio.run(_with_daemon(_engine(), body))

    def test_shutdown_op_stops_serving(self):
        async def body():
            daemon = StreamDaemon(_engine())
            host, port = await daemon.start()
            serve = asyncio.create_task(daemon.serve_until_shutdown())
            client = await _Client.connect(host, port)
            reply = await client.rpc(msg.shutdown_message())
            assert reply["type"] == "ack"
            await asyncio.wait_for(serve, timeout=5.0)
            await client.close()

        asyncio.run(body())

    def test_two_clients_serialise_on_one_engine(self):
        async def body():
            daemon = StreamDaemon(_engine())
            host, port = await daemon.start()
            a = await _Client.connect(host, port)
            b = await _Client.connect(host, port)
            factory = synthetic_job_factory(prefix="pair")
            ra, rb = await asyncio.gather(
                a.rpc(msg.submit_message(factory(0))),
                b.rpc(msg.submit_message(factory(1))),
            )
            assert ra["type"] == "ack" and rb["type"] == "ack"
            reply = await a.rpc(msg.stats_message())
            assert reply["stats"]["arrivals"] == 2
            await a.close()
            await b.close()
            await daemon.stop()

        asyncio.run(body())


class TestObservability:
    def test_drop_oldest_increments_frames_dropped_counter(self):
        from repro.stream.daemon import _Subscriber
        from repro.telemetry import get_registry, reset

        reset()
        try:
            sub = _Subscriber(None, max_backlog=2)
            for i in range(5):
                sub.offer("src", "kind", {"i": i})
            assert sub.dropped == 3
            assert len(sub.buffer) == 2
            counters = get_registry().snapshot()["counters"]
            assert counters["stream.daemon.frames_dropped"] == 3.0
        finally:
            reset()

    def test_drop_oldest_eviction_order(self):
        # Regression for the O(max_backlog)-per-drop list.pop(0) path:
        # the deque must still evict strictly oldest-first, keep exactly
        # the newest max_backlog frames in arrival order, and count
        # every drop.
        from repro.stream.daemon import _Subscriber
        from repro.telemetry import get_registry, reset

        reset()
        try:
            sub = _Subscriber(None, max_backlog=3)
            for i in range(8):
                sub.offer("src", "kind", {"i": i})
            assert sub.dropped == 5
            kept = [frame["payload"]["i"] for frame in sub.buffer]
            assert kept == [5, 6, 7]
            counters = get_registry().snapshot()["counters"]
            assert counters["stream.daemon.frames_dropped"] == 5.0
            # Filtered-out kinds are never buffered, so they neither
            # evict nor count as drops.
            picky = _Subscriber(["wanted"], max_backlog=2)
            for i in range(4):
                picky.offer("src", "ignored", {"i": i})
            assert picky.dropped == 0
            assert len(picky.buffer) == 0
        finally:
            reset()

    def test_dispatch_emits_tracing_spans(self):
        from repro.telemetry import get_tracer, recording, set_tracing

        async def body():
            async def inner(daemon, client):
                factory = synthetic_job_factory(prefix="traced")
                assert (await client.rpc(
                    msg.submit_message(factory(0))
                ))["type"] == "ack"
                assert (await client.rpc(
                    msg.stats_message()
                ))["type"] == "stats"

            await _with_daemon(_engine(), inner)

        previous = set_tracing(True)
        get_tracer().clear()
        try:
            with recording():  # the spans' attributes are read back
                asyncio.run(body())
            dispatches = get_tracer().finished("stream.daemon.dispatch")
            ops = [s.attributes["op"] for s in dispatches]
            assert "submit" in ops and "stats" in ops
        finally:
            set_tracing(previous)
            get_tracer().clear()
