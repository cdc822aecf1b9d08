"""A blocking (synchronous) client for the ingest server.

One socket, one :class:`~repro.runtime.frames.FrameAssembler`, and a small
pump: every receive dispatches matches and acks into local buffers, so a
caller can interleave pushes and waits however it likes.  Concurrency is a
thread-per-client affair — the tests and the benchmark run many of these
against one server.

The ack contract (see :mod:`repro.net.protocol`) makes this client enough
to reconstruct global order: ``wait_ack(seq)`` returns the
``(base_position, count)`` the server assigned to that ingest frame, and
every match at covered positions for this client's subscriptions has
already been delivered when it returns.
"""

from __future__ import annotations

import itertools
import socket
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple as Tup

from repro.net import protocol
from repro.runtime.frames import FrameAssembler, FrameProtocolError, encode_frame


class NetClientError(RuntimeError):
    """The server refused a request, errored the connection, or went away."""


class IngestClient:
    """Synchronous framed client; see the module docstring.

    Matches accumulate in :attr:`matches` — ``{handle_id: [(position,
    Sequence[Valuation]), ...]}`` in delivery order, each sequence an unread
    :class:`~repro.valuation.PackedValuations`, one position possibly in several
    entries when its matches spanned frames — and acks in :attr:`acks`
    (``{seq: (base_position, count)}``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        rcvbuf: Optional[int] = None,
    ) -> None:
        if rcvbuf is None:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        else:
            # A receive buffer must be shrunk before connecting (window
            # scaling is negotiated at the handshake) — the slow-subscriber
            # tests use this to make backpressure bite at small volumes.
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
            self._sock.settimeout(timeout)
            self._sock.connect((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._assembler = FrameAssembler()
        self._inbox: Deque[Tup] = deque()  # decoded but undelivered messages
        self._seq = itertools.count()
        self.matches: Dict[int, List[Tup]] = {}
        self.acks: Dict[int, Tup] = {}
        self.errors: List[str] = []
        self.closed = False

    # ------------------------------------------------------------------ I/O
    def _send(self, message: Tup) -> None:
        try:
            self._sock.sendall(encode_frame(message))
        except OSError as exc:
            raise NetClientError(f"send failed: {exc}") from exc

    def _recv_message(self) -> Tup:
        while not self._inbox:
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout as exc:
                raise NetClientError("timed out waiting for the server") from exc
            except OSError as exc:
                raise NetClientError(f"receive failed: {exc}") from exc
            if not chunk:
                raise NetClientError("server closed the connection")
            try:
                self._inbox.extend(self._assembler.feed(chunk))
            except FrameProtocolError as exc:
                raise NetClientError(f"bad frame from server: {exc}") from exc
        return self._inbox.popleft()

    def _dispatch(self, message: Tup) -> None:
        kind = message[0]
        if kind == "matches":
            self.matches.setdefault(message[1], []).extend(message[2])
        elif kind == "ack":
            self.acks[message[1]] = (message[2], message[3])
        elif kind == "error":
            self.errors.append(message[1])
            raise NetClientError(f"server error: {message[1]}")

    def _pump_until(self, *kinds: str) -> Tup:
        """Dispatch messages until one of ``kinds`` arrives; return it."""
        while True:
            message = self._recv_message()
            if message[0] in kinds:
                return message
            self._dispatch(message)

    # ------------------------------------------------------------- requests
    def hello(self) -> Tup:
        """Handshake; returns ``(version, engine_kind)``."""
        self._send(("hello", protocol.PROTOCOL_VERSION))
        reply = self._pump_until("welcome", "refused")
        if reply[0] == "refused":
            raise NetClientError(f"hello refused: {reply[1]}")
        return reply[1], reply[2]

    def subscribe(self, query: str, window: int, name: Optional[str] = None) -> Tup:
        """Register + subscribe; returns ``(handle_id, name, window)``."""
        self._send(("subscribe", query, window, name))
        reply = self._pump_until("subscribed", "refused")
        if reply[0] == "refused":
            raise NetClientError(f"subscribe refused: {reply[1]}")
        return reply[1], reply[2], reply[3]

    def unsubscribe(self, handle_id: int) -> None:
        self._send(("unsubscribe", handle_id))
        reply = self._pump_until("unsubscribed", "refused")
        if reply[0] == "refused":
            raise NetClientError(f"unsubscribe refused: {reply[1]}")

    def ingest(self, tuples: Sequence[Any], seq: Optional[int] = None) -> int:
        """Push one ingest frame; returns its ``seq`` (ack arrives later)."""
        if seq is None:
            seq = next(self._seq)
        self._send(("ingest", seq, list(tuples)))
        return seq

    def wait_ack(self, seq: int) -> Tup:
        """Block until ``seq``'s ack; returns ``(base_position, count)``.

        All matches covering this frame's positions (for this client's
        subscriptions) have been dispatched into :attr:`matches` when this
        returns — the ack is a match barrier.
        """
        while seq not in self.acks:
            self._dispatch(self._recv_message())
        return self.acks[seq]

    def ingest_all(
        self, tuples: Sequence[Any], frame_size: int = 256, pipeline: int = 32
    ) -> Tup:
        """Push ``tuples`` in ``frame_size`` chunks, at most ``pipeline``
        frames outstanding; wait for every ack.

        The pipeline bound matters: a sender that never reads while pushing
        lets its own acks pile up server-side until the control backstop
        kicks it.  Returns the last frame's ``(base_position, count)``.
        """
        items = list(tuples)
        if not items:
            raise ValueError("no tuples to ingest")
        outstanding: Deque[int] = deque()
        ack = None
        for start in range(0, len(items), frame_size):
            if len(outstanding) >= pipeline:
                ack = self.wait_ack(outstanding.popleft())
            outstanding.append(self.ingest(items[start : start + frame_size]))
        for seq in outstanding:
            ack = self.wait_ack(seq)
        return ack

    def ping(self) -> int:
        """Round-trip barrier; returns the engine's stream position."""
        token = f"ping-{next(self._seq)}"
        self._send(("ping", token))
        while True:
            message = self._pump_until("pong")
            if message[1] == token:
                return message[2]

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "IngestClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
