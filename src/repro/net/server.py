"""The asyncio ingestion server: many sockets in, one engine, matches out.

Architecture — four cooperating task kinds on one event loop:

* **Reader tasks** (one per connection) parse length-prefixed frames
  (:func:`~repro.runtime.frames.frame_length` validates the prefix before
  the body is read, so an oversized frame never allocates) and admit work
  into the shared ingest queue.
* **One driver task** owns the engine.  It drains whatever is queued — up
  to ``max_batch`` tuples — into a single ``ingest_batch`` call (one
  eviction sweep per batch, the `drive_batch` seam), fans the matches out,
  and acks.  It blocks on an event when the queue is empty: the coalescer
  is adaptive by construction — batch size is whatever accumulated while
  the engine was busy — and it never busy-waits.  An ingest frame is queued
  as **one entry** holding its decoded columns
  (:class:`~repro.runtime.frames.IngestBatch`); at drain time the driver
  asks the engine which relations it watches and builds tuples only for
  those — the rest of the batch is the gaps of a
  :class:`~repro.runtime.SparseBatch`, crossed by position alone and
  counted as ``unwatched``.
* **Writer tasks** (one per connection) flush that connection's outbox
  FIFO with ``await drain()``, so kernel-level TCP backpressure propagates
  to slow readers without blocking anyone else.

Flow control, both directions, hard-bounded:

* **Ingest backpressure**: the queue admits at most ``max_queue`` tuples.
  A reader whose frame does not fit *stops reading its socket* until the
  driver drains — the client's sends then fill the kernel buffers and
  block, which is the backpressure signal.  Nothing server-side grows past
  the cap (``peak_queue_depth`` is tracked and test-asserted).
* **Subscriber shedding**: each connection's outbox holds at most
  ``max_outbox`` encoded frames.  When a match frame would exceed it the
  subscriber is shed per ``shed_policy`` — ``"disconnect"`` (default:
  drop the whole connection; a consumer that cannot keep up should not
  silently lose data) or ``"drop"`` (drop that match frame, keep the
  connection).  Either way ``repro_net_shed_total`` counts it.  Control
  frames (acks, replies) bypass the cap with a runaway backstop at
  ``4 × max_outbox``.

Determinism: the driver is the only task touching the engine, and
register/unregister ride the ingest queue as control entries, so the total
operation order is exactly the queue admission order — which per-connection
FIFO acks expose to clients (`ack` ⇒ every earlier match already sent).
The watched relations are read when a batch is drained, after every control
entry queued before it, so a subscription watches exactly the tuples
admitted after it.
The differential tests rebuild that order and verify bit-identical outputs
against a direct in-process engine.

Matches shared by multiple subscribers are encoded **once**
(:func:`~repro.runtime.frames.encode_match_frames`, straight from the
engine's unread output containers: the server builds no valuation) and the
same bytes are queued to every subscriber.  A handle's batch past the
codec's table or element caps goes out as several frames, in stream order,
all before the ack; a batch that cannot be encoded stops the server with
``driver_error`` set, as an engine failure does.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple as Tup

from repro.net import protocol
from repro.runtime import SparseBatch
from repro.runtime.frames import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    FrameProtocolError,
    IngestBatch,
    decode_body,
    encode_frame,
    encode_match_frames,
    frame_length,
)

#: Control frames may exceed ``max_outbox`` by this factor before the
#: connection is dropped outright (a peer that never reads its socket).
_CONTROL_BACKSTOP = 4

#: Seconds a kicked connection gets to flush its outbox (error frame last),
#: and a closed one to finish its close handshake, before the transport is
#: aborted.
_KICK_GRACE_S = 0.5


class _Subscription:
    """One engine-side registration, shared by its subscribers (refcounted)."""

    __slots__ = ("key", "handle", "subscribers")

    def __init__(self, key, handle, subscribers=None) -> None:
        self.key = key
        self.handle = handle
        self.subscribers: Set[_Client] = subscribers if subscribers is not None else set()


class _Frame:
    """One admitted ingest frame in the queue: its decoded columns, how many
    of its tuples earlier batches already drained, and whom to ack."""

    __slots__ = ("batch", "drained", "client", "seq")

    def __init__(self, batch: IngestBatch, client: "_Client", seq: int) -> None:
        self.batch = batch
        self.drained = 0
        self.client = client
        self.seq = seq


class _Client:
    """Per-connection state: reader/writer tasks and the bounded outbox."""

    __slots__ = (
        "id",
        "reader",
        "writer",
        "outbox",
        "outbox_event",
        "reader_task",
        "writer_task",
        "closing",
        "closed",
        "shed",
        "subs",
    )

    def __init__(self, client_id: int, reader, writer) -> None:
        self.id = client_id
        self.reader = reader
        self.writer = writer
        self.outbox: Deque[bytes] = deque()
        self.outbox_event = asyncio.Event()
        self.reader_task: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None
        self.closing = False  # no new frames accepted; outbox flushes then closes
        self.closed = False  # fully cleaned up
        self.shed = 0
        self.subs: Dict[int, _Subscription] = {}


class IngestServer:
    """One engine served over TCP — see the module docstring for the design.

    Parameters
    ----------
    engine:
        The :class:`~repro.multi.engine.MultiQueryEngine` to serve (or
        anything with its feed surface: ``register`` / ``unregister`` /
        ``ingest_batch`` / ``watched_relations`` / ``position`` /
        ``attach_observer``).
    max_batch:
        Most tuples the driver feeds the engine per batch (and per
        eviction sweep).
    max_queue:
        Hard bound on queued-but-unprocessed tuples across all
        connections; admission past it stops reading the sender's socket.
    max_outbox:
        Hard bound on encoded frames queued to one subscriber.
    shed_policy:
        ``"disconnect"`` or ``"drop"`` — what happens to a subscriber
        whose outbox is full when a match frame arrives.
    observer:
        Optional :class:`repro.obs.Observer`; the server binds its
        instruments in the observer's registry (one Prometheus exposition
        covers engine and server) and attaches it to the engine so
        ``batch`` spans and engine gauges flow.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 512,
        max_queue: int = 8192,
        max_outbox: int = 1024,
        shed_policy: str = "disconnect",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        observer=None,
        exit_after_clients: Optional[int] = None,
        sndbuf: Optional[int] = None,
        write_buffer_limit: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_outbox < 1:
            raise ValueError("max_outbox must be >= 1")
        if shed_policy not in ("disconnect", "drop"):
            raise ValueError(f"unknown shed policy {shed_policy!r}")
        self.engine = engine
        self.host = host
        self.port = port  # rebound to the real port by start()
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.max_outbox = max_outbox
        self.shed_policy = shed_policy
        self.max_frame_bytes = max_frame_bytes
        self.exit_after_clients = exit_after_clients
        # Test/tuning knobs: shrink the kernel send buffer and the transport
        # write buffer so slow-subscriber backpressure (and therefore the
        # shedding policy) engages at small data volumes.
        self.sndbuf = sndbuf
        self.write_buffer_limit = write_buffer_limit

        # _Frame ingest entries and (client, message) control entries, in
        # admission order; only the frames' tuples count toward max_queue.
        self._queue: Deque[Any] = deque()
        # Which relations the engine reads (None: it cannot say, so all).
        self._watched = engine.watched_relations
        self._queued_tuples = 0
        self._not_empty = asyncio.Event()
        self._not_full = asyncio.Event()
        self._not_full.set()

        self._clients: Dict[int, _Client] = {}
        self._next_client_id = 0
        self._subs: Dict[Tup, _Subscription] = {}  # (query, window) → subscription
        self._subs_by_handle: Dict[int, _Subscription] = {}

        self._server: Optional[asyncio.AbstractServer] = None
        self._driver_task: Optional[asyncio.Task] = None
        self._running = False
        self._stopping = False
        self._stopped = asyncio.Event()

        self.observer = observer
        registry = observer.metrics if observer is not None else None
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        self._m_tuples = registry.counter("repro_ingest_tuples_total")
        self._m_frames = registry.counter("repro_ingest_frames_total")
        self._m_unwatched = registry.counter("repro_ingest_unwatched_total")
        self._m_queue_depth = registry.gauge("repro_ingest_queue_depth")
        self._m_shed = registry.counter("repro_net_shed_total")
        self._m_coalesce = registry.histogram("repro_ingest_batch_tuples")
        self._m_clients = registry.gauge("repro_net_clients")
        self._m_subs = registry.gauge("repro_net_subscriptions")
        self._m_egress_frames = registry.counter("repro_net_egress_frames_total")
        self._m_egress_bytes = registry.counter("repro_net_egress_bytes_total")
        if observer is not None:
            engine.attach_observer(observer)

        # Totals surfaced by observe() / the CLI "# net:" stats line.
        self.clients_served = 0
        self.frames_in = 0
        self.tuples_in = 0
        self.unwatched = 0
        self.batches = 0
        self.match_frames_out = 0
        self.acks_out = 0
        self.shed_total = 0
        self.protocol_errors = 0
        self.peak_queue_depth = 0
        self.peak_outbox = 0
        self.driver_error: Optional[BaseException] = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listening socket and launch the driver."""
        self._running = True
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._driver_task = asyncio.ensure_future(self._drive())

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or the ``exit_after_clients`` budget)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, flush nothing further, tear everything down."""
        if self._stopping:
            return
        self._stopping = True
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wake every waiter so tasks observe the stop.
        self._not_empty.set()
        self._not_full.set()
        if self._driver_task is not None and self._driver_task is not asyncio.current_task():
            await asyncio.gather(self._driver_task, return_exceptions=True)
        pending: List[asyncio.Task] = []
        for client in list(self._clients.values()):
            for task in (client.reader_task, client.writer_task):
                if task is not None and task is not asyncio.current_task():
                    pending.append(task)
            await self._cleanup(client)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._stopped.set()

    def observe(self) -> Dict[str, object]:
        """Point-in-time server counters (the ``# net:`` stats surface)."""
        return {
            "host": self.host,
            "port": self.port,
            "clients": len(self._clients),
            "clients_served": self.clients_served,
            "subscriptions": len(self._subs),
            "frames_in": self.frames_in,
            "tuples_in": self.tuples_in,
            "unwatched": self.unwatched,
            "batches": self.batches,
            "queue_depth": self._queued_tuples,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_outbox": self.peak_outbox,
            "match_frames_out": self.match_frames_out,
            "acks_out": self.acks_out,
            "shed": self.shed_total,
            "protocol_errors": self.protocol_errors,
            "position": self.engine.position,
        }

    # ----------------------------------------------------------- connections
    async def _on_connection(self, reader, writer) -> None:
        if self.sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf)
        if self.write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(high=self.write_buffer_limit)
        client = _Client(self._next_client_id, reader, writer)
        self._next_client_id += 1
        self._clients[client.id] = client
        self.clients_served += 1
        self._m_clients.set(len(self._clients))
        client.writer_task = asyncio.ensure_future(self._write_loop(client))
        client.reader_task = asyncio.ensure_future(self._read_loop(client))

    async def _read_loop(self, client: _Client) -> None:
        reader = client.reader
        try:
            while self._running and not client.closing:
                header = await reader.readexactly(HEADER_SIZE)
                length = frame_length(header, self.max_frame_bytes)
                body = await reader.readexactly(length)
                message = protocol.validate_client_message(decode_body(body))
                self.frames_in += 1
                await self._handle(client, message)
        except (asyncio.IncompleteReadError, ConnectionError):
            # EOF or reset: a clean (or at least unilateral) disconnect.
            await self._disconnect(client)
        except FrameProtocolError as exc:
            self.protocol_errors += 1
            self._kick(client, str(exc))
        except asyncio.CancelledError:
            raise

    async def _handle(self, client: _Client, message: Tup) -> None:
        command = message[0]
        if command == "ingest":
            await self._admit(client, message[1], message[2])
        elif command in ("subscribe", "unsubscribe"):
            # Control entries ride the queue so the engine sees them in
            # admission order relative to tuples — the one total order the
            # differential tests replay.
            self._queue.append((client, message))
            self._not_empty.set()
        elif command == "ping":
            self._enqueue(
                client, encode_frame(protocol.pong(message[1], self.engine.position))
            )
        elif command == "hello":
            if message[1] == protocol.PROTOCOL_VERSION:
                reply = protocol.welcome(type(self.engine).__name__)
            else:
                reply = protocol.refused(
                    f"this server speaks protocol version {protocol.PROTOCOL_VERSION}, "
                    f"the client said hello with version {message[1]}"
                )
            self._enqueue(client, encode_frame(reply))

    async def _admit(self, client: _Client, seq: int, tuples: IngestBatch) -> None:
        count = len(tuples)
        if count > self.max_queue:
            raise FrameProtocolError(
                f"ingest frame of {count} tuples exceeds the queue bound "
                f"({self.max_queue}); split the batch"
            )
        # Backpressure: stop consuming this socket until the batch fits.
        while (
            self._queued_tuples + count > self.max_queue
            and self._running
            and not client.closing
        ):
            self._not_full.clear()
            await self._not_full.wait()
        if not self._running or client.closing:
            return
        self._queue.append(_Frame(tuples, client, seq))
        self._queued_tuples += count
        if self._queued_tuples > self.peak_queue_depth:
            self.peak_queue_depth = self._queued_tuples
        self.tuples_in += count
        self._m_tuples.inc(count)
        self._m_frames.inc()
        self._m_queue_depth.set(self._queued_tuples)
        self._not_empty.set()

    # ---------------------------------------------------------------- driver
    async def _drive(self) -> None:
        queue = self._queue
        while self._running:
            if not queue:
                self._not_empty.clear()
                self._m_queue_depth.set(0)
                await self._not_empty.wait()
                continue
            if type(queue[0]) is tuple:
                try:
                    self._control(*queue.popleft())
                except Exception as exc:  # not a refusal: the engine's state is unknown
                    self._fail(exc)
                    return
                continue
            # Adaptive coalescing: drain whatever ingest frames are
            # contiguous at the head, up to max_batch tuples (a frame that
            # does not fit is drained across batches).  Only tuples of a
            # watched relation are built.
            watched = self._watched()
            batch = SparseBatch()
            offsets: List[int] = []
            finished: List[Tup] = []  # (frame, tuples of the batch up to its last)
            span = 0
            while queue and type(queue[0]) is _Frame and span < self.max_batch:
                frame = queue[0]
                start = frame.drained
                stop = min(len(frame.batch), start + self.max_batch - span)
                picked, tuples = frame.batch.select(watched, start, stop)
                batch += tuples
                offsets += [index + span - start for index in picked]
                span += stop - start
                if stop == len(frame.batch):
                    queue.popleft()
                    finished.append((frame, span))
                else:
                    frame.drained = stop
            batch.span = span
            skipped = span - len(batch)
            if skipped:
                batch.offsets = offsets
                self.unwatched += skipped
                self._m_unwatched.inc(skipped)
            self._queued_tuples -= span
            self._m_queue_depth.set(self._queued_tuples)
            try:
                base, outputs = self.engine.ingest_batch(batch)
                self.batches += 1
                self._m_coalesce.record(span)
                self._fan_out(base, zip(offsets, outputs), finished)
            except Exception as exc:
                # The engine is the shared resource: if it fails mid-batch,
                # position continuity is gone and serving on is unsound.  A
                # batch whose matches cannot be sent must not be acked either.
                self._fail(exc)
                return
            self._not_full.set()
            # Yield once per batch so readers refill the queue (and writers
            # flush) while the next batch accumulates.
            await asyncio.sleep(0)

    def _fail(self, exc: Exception) -> None:
        """Stop serving: the engine failed, and ``driver_error`` says how."""
        self.driver_error = exc
        self._running = False
        asyncio.ensure_future(self.stop())

    def _control(self, client: _Client, message: Tup) -> None:
        if client.closed:
            return
        if message[0] == "subscribe":
            self._subscribe(client, message[1], message[2], message[3])
        else:
            self._unsubscribe(client, message[1])

    def _subscribe(self, client, query, window, name) -> None:
        key = (query, window)
        sub = self._subs.get(key)
        if sub is None:
            try:
                handle = self.engine.register(query, window, name=name)
            except (ValueError, TypeError) as exc:
                # register's documented refusals: parse, hierarchy and pattern
                # errors are ValueErrors, a non-equality join a TypeError.
                self._enqueue(client, encode_frame(protocol.refused(str(exc))))
                return
            sub = _Subscription(key, handle)
            self._subs[key] = sub
            self._subs_by_handle[handle.id] = sub
        if client in sub.subscribers:
            self._enqueue(
                client,
                encode_frame(protocol.refused(f"already subscribed to handle {sub.handle.id}")),
            )
            return
        sub.subscribers.add(client)
        client.subs[sub.handle.id] = sub
        self._m_subs.set(len(self._subs))
        self._enqueue(
            client,
            encode_frame(
                protocol.subscribed(sub.handle.id, sub.handle.name, sub.handle.window)
            ),
        )

    def _unsubscribe(self, client: _Client, handle_id: int) -> None:
        sub = client.subs.pop(handle_id, None)
        if sub is None:
            self._enqueue(
                client, encode_frame(protocol.refused(f"not subscribed to handle {handle_id}"))
            )
            return
        self._release(sub, client)
        self._enqueue(client, encode_frame(protocol.unsubscribed(handle_id)))

    def _release(self, sub: _Subscription, client: _Client) -> None:
        sub.subscribers.discard(client)
        if not sub.subscribers:
            del self._subs[sub.key]
            del self._subs_by_handle[sub.handle.id]
            try:
                self.engine.unregister(sub.handle)
            except KeyError:
                pass
        self._m_subs.set(len(self._subs))

    def _fan_out(self, base: int, outputs, finished) -> None:
        """Send one batch's matches, then the acks of the frames it finished.

        ``outputs`` yields ``(offset in the batch, {handle_id: valuations})``;
        ``finished`` lists ``(frame, tuples of the batch up to its last)``.
        """
        # Group this batch's matches per handle, in stream order.
        per_handle: Dict[int, List[Tup]] = {}
        for offset, matches in outputs:
            if not matches:
                continue
            position = base + offset
            for handle_id, valuations in matches.items():
                if valuations:
                    per_handle.setdefault(handle_id, []).append((position, valuations))
        for handle_id, batch in per_handle.items():
            sub = self._subs_by_handle.get(handle_id)
            if sub is None or not sub.subscribers:
                continue
            # Encode once, in as many frames as the codec's caps need.
            for frame in encode_match_frames(handle_id, batch):
                for subscriber in list(sub.subscribers):
                    if self._enqueue_match(subscriber, frame):
                        self.match_frames_out += 1
        # Acks strictly after this batch's matches: per-connection FIFO then
        # guarantees the ack is a barrier for everything it covers.
        for frame, end in finished:
            origin = frame.client
            if origin.closed or origin.closing:
                continue
            count = len(frame.batch)
            self._enqueue(
                origin, encode_frame(protocol.ack(frame.seq, base + end - count, count))
            )
            self.acks_out += 1

    # ---------------------------------------------------------------- egress
    def _enqueue_match(self, client: _Client, frame: bytes) -> bool:
        """Queue a (sheddable) match frame; apply the shedding policy at cap."""
        if client.closed or client.closing:
            return False
        if len(client.outbox) >= self.max_outbox:
            self.shed_total += 1
            client.shed += 1
            self._m_shed.inc()
            if self.shed_policy == "disconnect":
                self._kick(client, "slow subscriber: outbox full")
            return False  # "drop": this match frame is shed, connection lives
        self._push(client, frame)
        return True

    def _enqueue(self, client: _Client, frame: bytes) -> None:
        """Queue a control frame (ack/reply); bypasses the cap with a backstop."""
        if client.closed or client.closing:
            return
        if len(client.outbox) >= self.max_outbox * _CONTROL_BACKSTOP:
            self._kick(client, "peer is not reading its socket")
            return
        self._push(client, frame)

    def _push(self, client: _Client, frame: bytes) -> None:
        client.outbox.append(frame)
        if len(client.outbox) > self.peak_outbox:
            self.peak_outbox = len(client.outbox)
        client.outbox_event.set()

    async def _write_loop(self, client: _Client) -> None:
        writer = client.writer
        try:
            while True:
                if not client.outbox:
                    if client.closing or not self._running:
                        break
                    client.outbox_event.clear()
                    await client.outbox_event.wait()
                    continue
                frame = client.outbox.popleft()
                writer.write(frame)
                await writer.drain()
                self._m_egress_frames.inc()
                self._m_egress_bytes.inc(len(frame))
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            await self._cleanup(client)

    # ----------------------------------------------------------- termination
    def _kick(self, client: _Client, reason: str) -> None:
        """Protocol-error or shed close: error frame, bounded flush, disconnect."""
        if client.closing or client.closed:
            return
        client.outbox.append(encode_frame(protocol.error(reason)))
        client.closing = True
        client.outbox_event.set()
        if (
            client.reader_task is not None
            and client.reader_task is not asyncio.current_task()
        ):
            client.reader_task.cancel()
        # A peer that stopped reading parks the write loop in ``drain()``,
        # where ``closing`` is never re-checked: the error frame is
        # best-effort, the disconnect is not.
        asyncio.get_running_loop().call_later(_KICK_GRACE_S, self._abort, client)

    def _abort(self, client: _Client) -> None:
        """Kick grace expired with the outbox unflushed: drop the connection."""
        if client.closed:
            return
        client.writer.transport.abort()
        if client.writer_task is not None:
            client.writer_task.cancel()

    async def _disconnect(self, client: _Client) -> None:
        """Peer went away: no error frame, just flush and clean up."""
        if client.closing or client.closed:
            return
        client.closing = True
        client.outbox_event.set()

    async def _cleanup(self, client: _Client) -> None:
        if client.closed:
            return
        client.closed = True
        client.closing = True
        self._clients.pop(client.id, None)
        for sub in list(client.subs.values()):
            self._release(sub, client)
        client.subs.clear()
        client.outbox.clear()
        for task in (client.reader_task, client.writer_task):
            if task is not None and task is not asyncio.current_task():
                task.cancel()
        client.outbox_event.set()
        try:
            client.writer.close()
            await asyncio.wait_for(client.writer.wait_closed(), timeout=_KICK_GRACE_S)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            try:
                client.writer.transport.abort()
            except (OSError, RuntimeError):  # the transport or its loop is gone
                pass
        self._m_clients.set(len(self._clients))
        # Unblock an admission wait that belonged to this client.
        self._not_full.set()
        if (
            self.exit_after_clients is not None
            and self.clients_served >= self.exit_after_clients
            and not self._clients
            and self._running
        ):
            asyncio.ensure_future(self.stop())


class ServerThread:
    """Run an :class:`IngestServer` on a background event loop.

    The synchronous harness the tests, the benchmark, and the CLI smoke
    share: enter the context, connect :class:`~repro.net.client.IngestClient`
    instances to ``.port``, exit to stop.  The engine must only be touched
    by the server loop while the context is open.
    """

    def __init__(self, engine, **kwargs) -> None:
        self._engine = engine
        self._kwargs = kwargs
        self.server: Optional[IngestServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = IngestServer(self._engine, **self._kwargs)
        loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            loop.run_until_complete(self.server.serve_forever())
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-ingest", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("ingest server failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return
        if self._thread is not None and self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            self._thread.join(timeout=30)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the server to exit on its own (``exit_after_clients``)."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
