"""The shard pipes: length-prefixed **pickled** frames between a coordinator
and the worker processes it spawned.

Worker commands carry arbitrary query objects (parsed queries, DSL patterns,
compiled automata) and whole engine snapshots, which no closed tag set
covers — and both ends of a ``multiprocessing`` pipe are this program's own
processes, so the bytes unpickled here were pickled by this program.  That
is the only place pickle is acceptable, which is why these helpers carry it
in their names and live under :mod:`repro.shard`: nothing under
:mod:`repro.net` or :mod:`repro.runtime` imports :mod:`pickle`, and no byte
read from a socket reaches it (the TCP codec is
:mod:`repro.runtime.frames`).

A pipe frame is ``4-byte big-endian body length | pickle.dumps(message,
HIGHEST_PROTOCOL)`` — the same length prefix as the TCP frames.  A
``multiprocessing`` connection delivers whole frames, so the prefix is
*verified* on receipt: a mismatch means a torn or corrupted frame and raises
:class:`~repro.runtime.frames.FrameProtocolError` instead of unpickling
garbage.  :meth:`FrameChannel.send_raw`/:meth:`recv_raw` expose the
encoded-bytes layer so a broadcast frame is pickled **once** and the same
bytes written to every worker.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Tuple

from repro.runtime.frames import FrameProtocolError, frame_body

#: Pipe frames are pickled with the highest protocol available — both ends
#: are the same interpreter, and protocol 5 keeps large snapshot buffers as
#: single contiguous writes.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

_LENGTH = struct.Struct("!I")


class WorkerDied(RuntimeError):
    """The peer end of a shard channel is gone (EOF / broken pipe)."""


def pickle_frame(message: Any) -> bytes:
    """One length-prefixed pickled frame for ``message``."""
    try:
        body = pickle.dumps(message, protocol=PICKLE_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise FrameProtocolError(f"message is not picklable: {exc}") from exc
    return _LENGTH.pack(len(body)) + body


def unpickle_frame(frame: bytes) -> Any:
    """Unpickle one whole frame read from a worker pipe, verifying the
    length prefix against the body first."""
    body = frame_body(frame)
    try:
        return pickle.loads(body)
    except Exception as exc:  # unpickling raises a zoo of exception types
        raise FrameProtocolError(f"frame body does not unpickle: {exc}") from exc


class FrameChannel:
    """Framed messaging over one ``multiprocessing`` pipe connection.

    Counts frames and bytes in both directions (the coordinator surfaces
    the totals through ``observe()`` / ``--stats``).
    """

    __slots__ = ("connection", "frames_sent", "frames_received", "bytes_sent", "bytes_received")

    def __init__(self, connection) -> None:
        self.connection = connection
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------- raw layer
    def send_raw(self, frame: bytes) -> None:
        """Write an already-encoded frame (broadcast path: encode once)."""
        try:
            self.connection.send_bytes(frame)
        except (BrokenPipeError, ConnectionResetError, OSError, EOFError) as exc:
            raise WorkerDied(f"peer is gone: {exc!r}") from exc
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def recv_raw(self) -> bytes:
        """Block for the next frame's raw bytes (prefix not yet verified)."""
        try:
            frame = self.connection.recv_bytes()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise WorkerDied(f"peer is gone: {exc!r}") from exc
        self.frames_received += 1
        self.bytes_received += len(frame)
        return frame

    # --------------------------------------------------------- message layer
    def send(self, message: Any) -> None:
        self.send_raw(pickle_frame(message))

    def recv(self) -> Any:
        return unpickle_frame(self.recv_raw())

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a frame is ready (never blocks past ``timeout``)."""
        try:
            return self.connection.poll(timeout)
        except (BrokenPipeError, ConnectionResetError, OSError, EOFError):
            return False

    def close(self) -> None:
        try:
            self.connection.close()
        except OSError:
            pass

    def counters(self) -> Tuple[int, int, int, int]:
        return (self.frames_sent, self.frames_received, self.bytes_sent, self.bytes_received)

    def __repr__(self) -> str:
        return (
            f"FrameChannel(sent={self.frames_sent}/{self.bytes_sent}B, "
            f"received={self.frames_received}/{self.bytes_received}B)"
        )
