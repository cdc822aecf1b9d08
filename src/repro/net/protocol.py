"""The ingest wire protocol: message shapes and their bytes.

Transport framing and the codec are :mod:`repro.runtime.frames`: a 4-byte
big-endian length prefix, then a body whose first byte names its kind.
Every message is a plain tuple ``(command, *args)``.

Client → server
---------------
``("hello", version)``
    Optional handshake; the server replies ``("welcome", version, engine)``
    when ``version`` is the one it speaks (:data:`PROTOCOL_VERSION`) and
    ``("refused", reason)`` otherwise.
``("subscribe", query, window, name)``
    Register a query and subscribe to its matches.  ``query`` is a query
    string and ``window`` a positive int (a message with another type there
    is a protocol error).  Reply: ``("subscribed", handle_id, name,
    window)`` — or ``("refused", reason)`` for a well-formed request the
    engine rejects (unparseable query, bad window).  Subscribing a
    ``(query, window)`` pair another client already registered shares the
    engine-side handle (refcounted); matches are encoded once and the same
    frame bytes fan out to every subscriber.
``("unsubscribe", handle_id)``
    Drop this client's subscription.  Reply ``("unsubscribed", handle_id)``
    or ``("refused", reason)``.  The engine unregisters the query when its
    last subscriber leaves (riding the incremental merged-index patch).
``("ingest", seq, tuples)``
    Push a batch of :class:`~repro.cq.schema.Tuple` into the stream.
    ``seq`` is a client-chosen cookie echoed in the ack.  Reply (after the
    engine batch containing the frame's **last** tuple): ``("ack", seq,
    base_position, count)`` where ``base_position`` is the global stream
    position assigned to the frame's first tuple.  Every tuple takes a
    position, whether or not any subscription watches its relation.
    Per-connection FIFO guarantees every match produced at positions ≤
    ``base_position + count - 1`` for this client's subscriptions is
    delivered *before* the ack — the ack is a match barrier, which is how
    the differential tests and the benchmark reconstruct the exact
    interleaved order.
``("ping", token)``
    Reply ``("pong", token, position)``; a flush barrier past everything
    already enqueued for this client.

Server → client
---------------
``("matches", handle_id, batch)``
    ``batch`` is ``[(position, Sequence[Valuation]), ...]`` — every match the
    last engine batch produced for that handle, in stream order; it arrives
    as one unread :class:`~repro.valuation.PackedValuations` per position.
    A batch past the codec's caps comes in several frames, all before the
    ack, and a position's matches may then span several of them.
``("error", reason)``
    Protocol violation (malformed frame, unknown command, bad argument
    shapes, oversized frame, a version-1 pickle body).  The server closes
    this connection after sending it; other clients and the stream position
    are unaffected.

Bytes
-----
All integers of a body are little-endian (the length prefix alone is
big-endian).  ``value`` below is one tagged value; ``text`` is a ``u32`` byte
length and that many UTF-8 bytes.

**Value tree** — the body *is* one ``value`` — carries every message but the
two below.  A value is a tag byte and its payload:

====  ===========  ========================================================
tag   type         payload
====  ===========  ========================================================
0x00  None         —
0x01  False        —
0x02  True         —
0x03  int          ``i64``
0x04  int (big)    ``u32`` byte length, two's-complement little-endian bytes
0x05  float        IEEE-754 ``f64``
0x06  str          ``text``
0x07  bytes        ``u32`` length, the bytes
0x08  tuple        ``u32`` count, that many values
0x09  list         ``u32`` count, that many values
0x0A  dict         ``u32`` count, that many (key value, item value) pairs
0x0B  frozenset    ``u32`` count, that many values
0x0C  Tuple        ``text`` relation, a tuple value (the data values)
0x0D  Valuation    ``u32`` count, that many (label value, frozenset of ints)
0x0E  Atom         ``text`` relation, a tuple value (the terms)
0x0F  Variable     ``text`` name
====  ===========  ========================================================

**Ingest** (kind ``0x49``, ``"I"``), for ``("ingest", seq, tuples)``::

    0x49 | seq value
         | u32 names | u32 name_bytes | u32 tuples | u32 values | u32 escapes
         | u16 × names          code points of each relation name
         | name_bytes           the names, concatenated, as UTF-8
         | u16 × tuples         relation id of each tuple (index into the names)
         | u16 × tuples         arity of each tuple
         | i64 × values         every tuple's data values, in order
         | u32 × escapes        value-column indexes, strictly increasing
         | value × escapes      what stands at those indexes

A data value that is a plain ``int`` within ``i64`` lives in the value
column; anything else (``str``, ``float``, ``None``, ``bool``, a nested
tuple, a bigger int) leaves a zero there and travels tagged in the escape
column, so value *and* type survive.  Escaped values must be hashable.  The
name table is per frame: a frame needs nothing from any earlier one.

**Matches** (kind ``0x4D``, ``"M"``), for ``("matches", handle_id, batch)``::

    0x4D | handle value
         | u32 sets | u32 groups | u32 valuations | u32 entries
         | value × sets         the label sets (each a frozenset value)
         | i64 × groups         stream position of each (position, [..]) group
         | u32 × groups         valuations in each group
         | u32 × valuations     record entries in each valuation
         | u16 × entries        label-set id of each record entry
         | i64 × entries        stream position of each record entry

The entry columns are the arena's packed ``(label_id, position)*`` records
with the ids renumbered into the frame's own label-set table: they are
written from an unread output container without building a valuation, and
each group arrives as an unread container over the frame's label sets.  A
read valuation is cut into one entry per position.  The encoder splits a
batch whose table or columns would pass the limits below into several
frames (:func:`~repro.runtime.frames.encode_match_frames`).

Limits (all checked by the decoder before it allocates): a table holds at
most 65 536 entries, a container or column at most 1 048 576 elements, a
value tree nests at most 32 deep, and every count must fit in the bytes
that remain.

Security note: decoding executes nothing.  The codec knows a closed set of
types and builds only those; no byte of a frame is ever treated as a name
to import, a class to instantiate or a callable to call, and a body that is
a pickle (what protocol version 1 sent) is refused on its first byte.  A
hostile peer can therefore make the server do exactly three things: spend
CPU and memory proportional to the bytes it sends (bounded per frame by
``max_frame_bytes``, per queue by ``max_queue``), insert tuples into the
stream, and register queries it is allowed to write down as a string —
which is what the protocol is for.  It cannot make the server run code,
touch files, grow without bound or fail for other clients: anything
malformed ends in ``FrameProtocolError`` → ``error`` frame → that one
connection closed.  There is no authentication or encryption, so whoever
can reach the port can do those three things; bind to loopback or a private
network unless that is what you want.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple as Tup

from repro.runtime.frames import WIRE_VERSION, FrameProtocolError, IngestBatch

#: Protocol version spoken by this build (echoed in ``welcome``).  Version 1
#: framed pickles; version 2 is the typed codec of :mod:`repro.runtime.frames`.
PROTOCOL_VERSION = WIRE_VERSION

#: Commands a client may send.
CLIENT_COMMANDS = frozenset({"hello", "subscribe", "unsubscribe", "ingest", "ping"})


def validate_client_message(message: Any) -> Tup:
    """Check shape and argument types of an inbound client message.

    ``message`` is what :func:`~repro.runtime.frames.decode_body` returned.
    Returns it when well-formed; raises
    :class:`~repro.runtime.frames.FrameProtocolError` otherwise.  This is
    the server's single admission gate — everything past it may assume the
    documented shapes.
    """
    if not isinstance(message, tuple) or not message:
        raise FrameProtocolError(f"message is not a command tuple: {message!r:.80}")
    command = message[0]
    if not isinstance(command, str) or command not in CLIENT_COMMANDS:
        raise FrameProtocolError(f"unknown command {command!r:.80}")
    if command == "hello":
        if len(message) != 2 or not isinstance(message[1], int):
            raise FrameProtocolError("hello expects (hello, version:int)")
    elif command == "subscribe":
        if len(message) != 4:
            raise FrameProtocolError("subscribe expects (subscribe, query, window, name)")
        _, query, window, name = message
        if not isinstance(query, str):
            raise FrameProtocolError("subscribe query must be a string")
        if isinstance(window, bool) or not isinstance(window, int):
            raise FrameProtocolError("subscribe window must be an int")
        if name is not None and not isinstance(name, str):
            raise FrameProtocolError("subscribe name must be a string or None")
    elif command == "unsubscribe":
        if len(message) != 2 or isinstance(message[1], bool) or not isinstance(message[1], int):
            raise FrameProtocolError("unsubscribe expects (unsubscribe, handle_id:int)")
    elif command == "ingest":
        if len(message) != 3:
            raise FrameProtocolError("ingest expects (ingest, seq, tuples)")
        _, seq, tuples = message
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise FrameProtocolError("ingest seq must be an int")
        # The decoder built the batch, which makes every tuple in it
        # well-formed (string relation, hashable values) by construction.
        if not isinstance(tuples, IngestBatch) or not len(tuples):
            raise FrameProtocolError("ingest tuples must be a non-empty batch of repro Tuple")
    elif command == "ping":
        if len(message) != 2:
            raise FrameProtocolError("ping expects (ping, token)")
    return message


# ----------------------------------------------------------- reply builders
def welcome(engine_kind: str) -> Tup:
    return ("welcome", PROTOCOL_VERSION, engine_kind)


def subscribed(handle_id: int, name: str, window: Optional[int]) -> Tup:
    return ("subscribed", handle_id, name, window)


def unsubscribed(handle_id: int) -> Tup:
    return ("unsubscribed", handle_id)


def refused(reason: str) -> Tup:
    return ("refused", reason)


def ack(seq: int, base_position: int, count: int) -> Tup:
    return ("ack", seq, base_position, count)


def pong(token: Any, position: int) -> Tup:
    return ("pong", token, position)


def error(reason: str) -> Tup:
    return ("error", reason)
