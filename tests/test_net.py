"""The network ingestion layer (`repro.net`).

Covers, per the serving contract:

* the wire codec (`repro.runtime.frames`) — typed, bounded and stateless:
  arbitrary message trees round-trip with value and type, every prefix,
  truncation and mutation of a frame decodes or raises `FrameProtocolError`,
  counts are refused before anything is allocated, a pickle is never read,
  and the byte-stream reassembler rejects oversized prefixes *before*
  buffering a body;
* differential serving — a served `MultiQueryEngine` is bit-identical to
  direct `process_many` on the same interleaved tuple order (of a multi
  engine, and for one query of a `StreamingEvaluator`), including mid-stream
  subscribe/unsubscribe
  churn and clients disconnecting with unflushed subscriptions;
* protocol robustness — truncated, oversized, garbage and malformed
  frames close that client with a protocol-error reply and never kill the
  server or desync other clients (hypothesis-fuzzed);
* flow control — the ingest queue and per-subscriber outboxes stay at
  their configured caps under pressure (hard bounds, not averages), with
  shedding counted and the configured policy applied;
* observability — the `repro_ingest_*` / `repro_net_*` series and `batch`
  spans surface through the standard `Observer`, including `--metrics-file`
  under the `serve` CLI.
"""

from __future__ import annotations

import gc
import io
import logging
import pickle
import re
import socket
import struct
import threading
import time
import tracemalloc
from collections import deque
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import (
    build_net_client_parser,
    build_serve_parser,
    main,
    run_multi,
    run_net_client,
)
from repro.core.evaluation import StreamingEvaluator
from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.multi import MultiQueryEngine, compile_query
from repro.net import IngestClient, IngestServer, NetClientError, ServerThread
from repro.net.protocol import PROTOCOL_VERSION, validate_client_message
from repro.runtime.frames import (
    MAX_DEPTH,
    MAX_ELEMENTS,
    MAX_TABLE,
    FrameAssembler,
    FrameProtocolError,
    HEADER_SIZE,
    IngestBatch,
    decode_body,
    decode_frame,
    encode_frame,
    encode_match_frames,
    frame_length,
)
from repro.valuation import PackedValuations, Valuation

from helpers import count_valuation_constructions

QUERY_A = "QA(x, y) <- T(x), S(x, y), R(x, y)"
QUERY_B = "QB(x) <- T(x), R(x, 1)"
WINDOW = 16


def star_stream(length: int, seed: int = 11, domain: int = 5):
    """A deterministic mixed T/S/R stream that produces matches."""
    import random

    rng = random.Random(seed)
    stream = []
    for _ in range(length):
        relation = rng.choice(("T", "S", "R"))
        if relation == "T":
            stream.append(Tuple("T", (rng.randrange(domain),)))
        else:
            stream.append(Tuple(relation, (rng.randrange(domain), rng.randrange(domain))))
    return stream


def output_digest(per_tuple_outputs, base: int = 0) -> str:
    """The canonical digest the benchmarks use: position|qid|sorted(vals)."""
    digest = sha256()
    for offset, outputs in enumerate(per_tuple_outputs):
        for qid in sorted(outputs):
            valuations = outputs[qid]
            if valuations:
                digest.update(
                    f"{base + offset}|{qid}|{sorted(map(str, valuations))}".encode()
                )
    return digest.hexdigest()


def matches_digest(matches) -> str:
    """Same digest computed from a client's ``{handle: [(pos, vals)]}`` (a
    position's matches may arrive split over several frames)."""
    merged = {}
    for qid, batches in matches.items():
        for position, valuations in batches:
            merged.setdefault((position, qid), []).extend(valuations)
    flat = [
        (position, qid, sorted(map(str, valuations)))
        for (position, qid), valuations in merged.items()
        if valuations
    ]
    digest = sha256()
    for position, qid, rendered in sorted(flat):
        digest.update(f"{position}|{qid}|{rendered}".encode())
    return digest.hexdigest()


def direct_digest(queries, stream, window: int = WINDOW) -> str:
    """Digest of a direct in-process MultiQueryEngine run over ``stream``."""
    engine = MultiQueryEngine()
    for query in queries:
        engine.register(query, window)
    return output_digest(engine.process_many(stream))


# --------------------------------------------------------------------------
class TestSharedCodec:
    def test_assembler_reassembles_odd_chunks(self):
        messages = [("a", 1), ("b", list(range(50))), ("c", None)]
        blob = b"".join(encode_frame(m) for m in messages)
        for chunk_size in (1, 3, 7, len(blob)):
            assembler = FrameAssembler()
            decoded = []
            for start in range(0, len(blob), chunk_size):
                decoded.extend(assembler.feed(blob[start : start + chunk_size]))
            assert decoded == messages
            assert assembler.frames_received == len(messages)
            assert assembler.bytes_received == len(blob)
            assert assembler.pending() == 0

    def test_assembler_rejects_oversize_before_buffering_body(self):
        assembler = FrameAssembler(max_frame_bytes=64)
        header = struct.pack("!I", 1 << 20)
        with pytest.raises(FrameProtocolError, match="exceeds the cap"):
            list(assembler.feed(header))
        # Nothing of the claimed megabyte was buffered (just the header).
        assert assembler.pending() <= HEADER_SIZE

    def test_assembler_rejects_garbage_body(self):
        frame = struct.pack("!I", 4) + b"\xde\xad\xbe\xef"
        with pytest.raises(FrameProtocolError, match="unknown value tag 0xde"):
            list(FrameAssembler().feed(frame))

    def test_frame_length_validates_header_size(self):
        with pytest.raises(FrameProtocolError):
            frame_length(b"\x00")
        assert frame_length(struct.pack("!I", 17)) == 17

    def test_match_frames_carry_unread_valuations_compactly(self):
        """A matches frame is written from each position's unread container
        (each label set once per frame): encoding reads nothing, and the
        matches arrive as unread containers of unread valuations, equal and
        with equal hashes."""
        engine = MultiQueryEngine()
        handle = engine.register(QUERY_A, WINDOW)
        batch = [
            (position, outputs[handle.id])
            for position, outputs in enumerate(engine.process_many(star_stream(400)))
            if outputs
        ]
        assert all(type(group) is PackedValuations for _, group in batch)
        assert sum(map(len, (group for _, group in batch))) >= 40
        frame = encode_frame(("matches", handle.id, batch))
        assert all(group.records() is not None for _, group in batch)  # encoding reads nothing
        (message,) = FrameAssembler().feed(frame)
        assert [position for position, _ in message[2]] == [position for position, _ in batch]
        assert all(type(group) is PackedValuations for _, group in message[2])
        # Forwarding a received frame unread re-encodes to the same bytes.
        assert encode_frame(message) == frame
        received = [valuation for _, group in message[2] for valuation in group]
        assert all(v._mapping is None for v in received)
        valuations = [valuation for _, group in batch for valuation in group]
        assert received == valuations
        assert list(map(hash, received)) == list(map(hash, valuations))
        # Now read: the same matches still travel in the columnar shape, cut
        # back into one record entry per position, and arrive equal.
        reread = decode_frame(encode_frame(("matches", handle.id, batch)))
        assert [valuation for _, group in reread[2] for valuation in group] == valuations

    def test_a_batch_past_the_caps_is_cut_into_frames_in_stream_order(self, monkeypatch):
        """``encode_match_frames`` cuts where the element or the table cap would
        be passed, mid-position if need be, and never leaves a position with no
        match in a frame; ``encode_frame`` refuses what does not fit one."""
        table = [frozenset({f"l{n}"}) for n in range(6)]
        runs = [[(n % 6, n, (n + 1) % 6, n + 1) for n in range(start, start + 3)] for start in (0, 10)]

        def batch():
            return [(7, PackedValuations(table, [runs[0]])), (9, PackedValuations(table, [runs[1]]))]

        wanted = [(position, valuation) for position, group in batch() for valuation in group]
        # Two-entry matches: four entries per frame, or one label-set table of
        # three, counted as if every entry of the next match were new.
        for elements, labels, shape in [(4, 8, [[2], [1, 1], [2]]), (8, 3, [[1]] * 6)]:
            monkeypatch.setattr("repro.runtime.frames.MAX_ELEMENTS", elements)
            monkeypatch.setattr("repro.runtime.frames.MAX_TABLE", labels)
            with pytest.raises(FrameProtocolError, match="split the batch"):
                encode_frame(("matches", 5, batch()))
            got = [decode_frame(frame) for frame in encode_match_frames(5, batch())]
            assert all(message[:2] == ("matches", 5) for message in got)
            assert [[len(group) for _, group in message[2]] for message in got] == shape
            assert [
                (position, valuation) for message in got for position, group in message[2] for valuation in group
            ] == wanted
        monkeypatch.setattr("repro.runtime.frames.MAX_ELEMENTS", 1)
        with pytest.raises(FrameProtocolError, match="one match exceeds"):
            encode_match_frames(5, [(0, [Valuation({"a": {1}, "b": {2}})])])

    def test_serving_a_match_builds_no_valuation(self, monkeypatch):
        """The server encodes a batch's matches straight from the engine's
        containers and the client receives containers: no ``Valuation`` is
        built until the subscriber reads one; the codec reads no valuation
        internals."""
        source = (Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime" / "frames.py").read_text()
        assert not re.search(r"_records_of|_tables|_packed", source)
        built = count_valuation_constructions(monkeypatch)
        stream = star_stream(300)
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                client.ingest_all(stream, frame_size=64)
                assert st.server.match_frames_out and built[0] == 0
                delivered = [group for batches in client.matches.values() for _, group in batches]
        assert all(type(group) is PackedValuations for group in delivered)
        total = sum(map(len, delivered))
        assert total >= 40 and built[0] == 0
        assert matches_digest(client.matches) == direct_digest([QUERY_A], stream)
        assert built[0] >= 2 * total  # the subscriber's read and the direct run's

    def test_truncated_frame_stays_pending(self):
        frame = encode_frame(("hello", 1))
        assembler = FrameAssembler()
        assert list(assembler.feed(frame[:-2])) == []
        assert assembler.pending() == len(frame) - HEADER_SIZE - 2
        assert list(assembler.feed(frame[-2:])) == [("hello", 1)]


# --------------------------------------------------------------------------
# The codec under hypothesis.  No test here fixes ``max_examples``: tier-1 runs
# the default budget, CI's ``net`` job the ``fuzz`` profile (conftest.py).
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
)
HASHABLES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
EVENTS = st.builds(Tuple, st.text(max_size=4), st.lists(HASHABLES, max_size=4).map(tuple))
READ_VALUATIONS = st.dictionaries(
    st.text(max_size=3), st.frozensets(st.integers(0, 40), max_size=4), max_size=3
).map(Valuation)
ATOMS = st.builds(
    Atom,
    st.text(max_size=3),
    st.lists(st.builds(Variable, st.text(max_size=2)) | st.integers(0, 5), max_size=3).map(tuple),
)
TREES = st.recursive(
    SCALARS | EVENTS | READ_VALUATIONS | ATOMS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(HASHABLES, inner, max_size=3),
    max_leaves=10,
)
INGESTS = st.tuples(
    st.just("ingest"), st.integers(-(2**70), 2**70), st.lists(EVENTS, min_size=1, max_size=8)
)


@st.composite
def unread_valuations(draw):
    """What the arena enumerates: a packed record over a label table, unread."""
    label_table = draw(st.lists(st.frozensets(st.text(max_size=2), max_size=2), min_size=1, max_size=4))
    entries = draw(st.lists(
        st.tuples(st.integers(0, len(label_table) - 1), st.integers(0, 60)), min_size=1, max_size=5
    ))
    return Valuation._from_packed((label_table, {}), sum(entries, ()))


MATCHES = st.tuples(
    st.just("matches"),
    st.integers(0, 99),
    st.lists(
        st.tuples(st.integers(0, 2**40), st.lists(unread_valuations() | READ_VALUATIONS, max_size=3)),
        max_size=4,
    ),
)


def typed(value):
    """``value`` with every node's type spelled out, so ``1``, ``True`` and
    ``1.0`` (equal, and equal hashes) compare different."""
    if isinstance(value, (list, tuple, IngestBatch, PackedValuations)):
        lazy = isinstance(value, (IngestBatch, PackedValuations))
        return ("list" if lazy else type(value).__name__, [typed(v) for v in value])
    if isinstance(value, frozenset):
        return ("frozenset", sorted(repr(typed(v)) for v in value))
    if isinstance(value, dict):
        return ("dict", sorted((repr(typed(k)), repr(typed(v))) for k, v in value.items()))
    if isinstance(value, Tuple):
        return ("Tuple", value.relation, typed(value.values))
    if isinstance(value, Valuation):
        return ("Valuation", typed(value.as_dict()))
    if isinstance(value, Atom):
        return ("Atom", value.relation, typed(value.terms))
    if isinstance(value, Variable):
        return ("Variable", value.name)
    return (type(value).__name__, repr(value))


def read_everything(message):
    """Force what a decoded message leaves lazy: batches built, valuations read."""
    if isinstance(message, tuple) and len(message) == 3:
        if isinstance(message[2], IngestBatch):
            assert len(list(message[2])) == len(message[2])
            assert all(hash(tup) is not None for tup in message[2])
        elif message[0] == "matches" and isinstance(message[2], list):
            for _, valuations in message[2]:
                assert len(list(valuations)) == len(valuations)
                for valuation in valuations:
                    valuation.as_dict()


def decodes_or_refuses(body: bytes) -> None:
    """``body`` decodes (and can be read in full) or raises FrameProtocolError;
    any other exception escapes and fails the test."""
    try:
        message = decode_body(body)
    except FrameProtocolError:
        return
    read_everything(message)


class TestCodecFuzz:
    @settings(deadline=None)
    @given(message=TREES | INGESTS | MATCHES)
    def test_message_trees_round_trip_with_value_and_type(self, message):
        frame = encode_frame(message)
        decoded = decode_frame(frame)
        # Forwarding what arrived, unread, costs what sending it did.
        assert len(encode_frame(decoded)) == len(frame)
        assert typed(decoded) == typed(message)
        assert decoded == message

    def test_escape_column_keeps_value_and_type(self):
        values = ("s", 1.5, None, True, False, (1, ("n", 2)), 2**63, -(2**63) - 1, 2**63 - 1, -(2**63), 0)
        stream = [Tuple("R", values), Tuple("R", (7,)), Tuple("é", ())]
        seq, batch = decode_frame(encode_frame(("ingest", 2**65, stream)))[1:]
        assert seq == 2**65
        assert list(batch) == stream and batch[0].values == values
        assert [type(v) for v in batch[0].values] == [type(v) for v in values]
        assert batch[-1] == stream[-1] and len(batch) == 3
        # Only what is in the closed tag set travels, as itself: no coercion.
        with pytest.raises(FrameProtocolError, match="tag set"):
            encode_frame(("ingest", 0, [Tuple("R", (bytearray(b"x"),))]))
        with pytest.raises(FrameProtocolError, match="tag set"):
            encode_frame(("config", {1, 2}))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(message=TREES | INGESTS | MATCHES, flips=st.lists(st.integers(0, 255), min_size=3, max_size=3))
    def test_prefixes_truncations_and_mutations_decode_or_refuse(self, message, flips):
        frame = encode_frame(message)
        body = frame[HEADER_SIZE:]
        for cut in range(len(frame)):
            with pytest.raises(FrameProtocolError):  # the prefix no longer fits the body
                decode_frame(frame[:cut])
            decodes_or_refuses(body[:cut])
        for index, byte in enumerate(body):
            for replacement in {0x00, 0xFF, byte ^ 0x80, (byte + 1) & 0xFF, *flips} - {byte}:
                decodes_or_refuses(body[:index] + bytes([replacement]) + body[index + 1 :])

    @pytest.mark.parametrize(
        "body, reason",
        [
            # a list of 2**32 - 1 elements in a six-byte body
            (b"\x09" + struct.pack("<I", 0xFFFFFFFF), "exceeds the cap"),
            # under the cap, but more elements than bytes remain
            (b"\x09" + struct.pack("<I", 1000) + b"\x00\x00\x00", "remain"),
            (b"\x06" + struct.pack("<I", 1 << 20) + b"abc", "remain"),
            (b"\x0a" + struct.pack("<I", 3) + b"\x00\x00\x00\x00\x00", "remain"),
            # ingest: a name table past the cap; a million tuples in forty bytes
            (b"I\x00" + struct.pack("<IIIII", MAX_TABLE + 1, 0, 0, 0, 0), "cap"),
            (b"I\x00" + struct.pack("<IIIII", 1, 1, MAX_ELEMENTS, 0, 0) + b"\x00" * 16, "remain"),
            (b"I\x00" + struct.pack("<IIIII", 1, 1, MAX_ELEMENTS + 1, 0, 0), "cap"),
            # matches: label sets / entries that cannot fit
            (b"M\x00" + struct.pack("<IIII", MAX_TABLE + 1, 0, 0, 0), "cap"),
            (b"M\x00" + struct.pack("<IIII", 1, 0, 0, MAX_ELEMENTS) + b"\x00" * 16, "remain"),
        ],
    )
    def test_counts_are_refused_before_anything_is_allocated(self, body, reason):
        tracemalloc.start()
        try:
            with pytest.raises(FrameProtocolError, match=reason):
                decode_body(body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024  # the exception and its message, not a column

    def test_nesting_is_capped_both_ways(self):
        nested = []
        for _ in range(MAX_DEPTH + 4):
            nested = [nested]
        with pytest.raises(FrameProtocolError, match="nests deeper"):
            encode_frame(nested)
        body = (b"\x09" + struct.pack("<I", 1)) * (MAX_DEPTH + 4) + b"\x00"
        with pytest.raises(FrameProtocolError, match="nests deeper"):
            decode_body(body)
        fits = None
        for _ in range(MAX_DEPTH):
            fits = [fits]
        assert decode_frame(encode_frame(fits)) == fits

    def test_the_encoder_refuses_what_the_decoder_refuses(self, monkeypatch):
        """A frame the decoder would refuse is never written: a container
        over the element cap or a body over the size cap fails at encode."""
        at_cap = [None] * MAX_ELEMENTS
        assert decode_frame(encode_frame(at_cap)) == at_cap
        for over in (at_cap + [None], tuple(at_cap + [None])):
            with pytest.raises(FrameProtocolError, match=f"count {MAX_ELEMENTS + 1} exceeds the cap"):
                encode_frame(over)
        del at_cap, over
        monkeypatch.setattr("repro.runtime.frames.MAX_ELEMENTS", 4)
        for over in (dict.fromkeys(range(5)), frozenset(range(5)), Valuation({n: {n} for n in range(5)})):
            with pytest.raises(FrameProtocolError, match="count 5 exceeds the cap of 4"):
                encode_frame(("config", over))
        monkeypatch.setattr("repro.runtime.frames.MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameProtocolError, match="exceeds the cap of 64"):
            encode_frame(b"x" * 64)
        assert decode_body(encode_frame(b"x" * 58)[HEADER_SIZE:]) == b"x" * 58

    def test_a_pickle_body_is_refused_by_name_and_never_read(self, tmp_path):
        canary = tmp_path / "decoded-a-pickle"
        body = pickle.dumps(_Touch(str(canary)), protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(FrameProtocolError, match="protocol version 1"):
            decode_body(body)
        assert not canary.exists()


class _Touch:
    """Unpickling an instance creates the file it names."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "message",
        [
            "not a tuple",
            (),
            ("launch", 1),
            ("subscribe", 7, 10, None),
            ("subscribe", "Q(x) <- A(x)", "big", None),
            ("subscribe", "Q(x) <- A(x)", 10, 4),
            ("unsubscribe", "zero"),
            ("unsubscribe", True),
            ("ingest", "s", [Tuple("A", (1,))]),
            ("ingest", 0, []),
            ("ingest", 0, [("A", (1,))]),
            ("ingest", 0, [Tuple("A", ([1, 2],))]),
            ("ping",),
            ("hello", "one"),
            ("subscribe", None, None, None),  # the retired single-query form
            ("subscribe", "Q(x) <- A(x)", None, None),
            ("subscribe", "Q(x) <- A(x)", True, None),
        ],
    )
    def test_malformed_messages_rejected(self, message):
        """Whatever a peer encodes, the decoder or the admission gate refuses
        it (an ingest item that is not a well-formed Tuple never decodes to
        an ingest batch)."""
        with pytest.raises(FrameProtocolError):
            validate_client_message(decode_frame(encode_frame(message)))

    def test_wellformed_messages_pass(self):
        for message in (
            ("hello", 1),
            ("subscribe", QUERY_A, 10, "qa"),
            ("subscribe", QUERY_A, 10, None),
            ("unsubscribe", 3),
            ("ingest", 0, [Tuple("A", (1, "x"))]),
            ("ping", "token"),
        ):
            assert validate_client_message(decode_frame(encode_frame(message))) == message
        # Only what the decoder built is admitted as an ingest batch.
        with pytest.raises(FrameProtocolError, match="non-empty batch"):
            validate_client_message(("ingest", 0, [Tuple("A", (1, "x"))]))


# --------------------------------------------------------------------------
class TestRoundTrip:
    def test_subscribe_ingest_ack_matches(self):
        stream = star_stream(200)
        engine = MultiQueryEngine()
        with ServerThread(engine) as st:
            with IngestClient(st.host, st.port) as client:
                version, kind = client.hello()
                assert version == PROTOCOL_VERSION == 2 and kind == "MultiQueryEngine"
                handle_id, name, window = client.subscribe(QUERY_A, WINDOW, name="qa")
                assert (handle_id, name, window) == (0, "qa", WINDOW)
                seq = client.ingest(stream)
                base, count = client.wait_ack(seq)
                assert (base, count) == (0, len(stream))
                assert client.ping() == len(stream) - 1
                served = matches_digest(client.matches)
        assert served == direct_digest([QUERY_A], stream)

    def test_acks_reconstruct_interleaved_order(self):
        stream = star_stream(100)
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                seqs = [client.ingest(stream[i : i + 7]) for i in range(0, 100, 7)]
                acks = [client.wait_ack(seq) for seq in seqs]
        # Frames were assigned contiguous, ordered position ranges.
        expected_base = 0
        for (base, count), start in zip(acks, range(0, 100, 7)):
            assert base == expected_base
            assert count == len(stream[start : start + 7])
            expected_base += count

    def test_deep_pipeline_of_one_tuple_frames(self):
        """Hundreds of frames in flight and as many replies buffered: both
        client-side FIFOs are deques (popping the head of a list is O(n))."""
        stream = star_stream(1500)
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                assert isinstance(client._inbox, deque)
                assert client.ingest_all(stream, frame_size=1, pipeline=700) == (1499, 1)
                assert len(client.acks) == 1500 and not client._inbox
                served = matches_digest(client.matches)
        assert served == direct_digest([QUERY_A], stream)

    def test_shared_subscription_fans_out_to_both_clients(self):
        stream = star_stream(150)
        expected = direct_digest([QUERY_A], stream)
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as a, IngestClient(st.host, st.port) as b:
                ha, _, _ = a.subscribe(QUERY_A, WINDOW)
                hb, _, _ = b.subscribe(QUERY_A, WINDOW)
                assert ha == hb  # deduped onto one engine handle
                a.ingest_all(stream, frame_size=32)
                b.ping()  # flush barrier: a's acks don't order b's matches
                assert matches_digest(a.matches) == expected
                assert matches_digest(b.matches) == expected
            # Both subscribers gone: the engine handle was released.
            time.sleep(0.2)
            assert st.server.observe()["subscriptions"] == 0

    def test_unsubscribe_stops_matches_and_releases_handle(self):
        stream = star_stream(120)
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                handle_id, _, _ = client.subscribe(QUERY_A, WINDOW)
                client.ingest_all(stream[:60], frame_size=20)
                first_half = dict(client.matches)
                client.unsubscribe(handle_id)
                client.ingest_all(stream[60:], frame_size=20)
                client.ping()
                assert client.matches == first_half  # nothing after unsubscribe
        # Unknown-handle unsubscribe is refused, not fatal.
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                with pytest.raises(NetClientError, match="refused"):
                    client.unsubscribe(99)
                client.subscribe(QUERY_A, WINDOW)  # connection still usable

    def test_bad_query_refused_without_closing(self):
        with ServerThread(MultiQueryEngine()) as st:
            with IngestClient(st.host, st.port) as client:
                with pytest.raises(NetClientError, match="refused"):
                    client.subscribe("this is not a query", 10)
                with pytest.raises(NetClientError, match="refused"):
                    client.subscribe(QUERY_A, WINDOW)
                    client.subscribe(QUERY_A, WINDOW)  # duplicate
                assert client.ping() == -1  # still connected, nothing ingested


# --------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("kind", ("single", "multi"))
    def test_served_identical_to_direct(self, kind):
        """The server serves a ``MultiQueryEngine``; one served query equals a
        direct ``StreamingEvaluator`` (``single``) and a direct multi engine."""
        stream = star_stream(300)
        with ServerThread(MultiQueryEngine(), max_batch=64) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                client.ingest_all(stream, frame_size=17)
                served = matches_digest(client.matches)
        if kind == "single":
            direct = StreamingEvaluator(compile_query(QUERY_A), window=WINDOW)
            # The one served query has handle id 0.
            expected = output_digest([{0: out} if out else {} for out in direct.process_many(stream)])
        else:
            expected = direct_digest([QUERY_A], stream)
        assert served == expected

    @pytest.mark.parametrize("kind", ("multi", "static"))
    def test_mid_stream_subscription_churn(self, kind):
        """Register/unregister mid-stream == the same churn done directly,
        whether the server coalesces frames into 32-tuple engine batches
        (``multi``) or feeds the engine one tuple per batch (``static``)."""
        stream = star_stream(240)
        max_batch = 32 if kind == "multi" else 1
        with ServerThread(MultiQueryEngine(), max_batch=max_batch) as st:
            with IngestClient(st.host, st.port) as client:
                ha, _, _ = client.subscribe(QUERY_A, WINDOW)
                client.ingest_all(stream[:80], frame_size=16)
                hb, _, _ = client.subscribe(QUERY_B, WINDOW)
                client.ingest_all(stream[80:160], frame_size=16)
                client.unsubscribe(ha)
                client.ingest_all(stream[160:], frame_size=16)
                client.ping()
                served = matches_digest(client.matches)
        direct = MultiQueryEngine()
        handle_a = direct.register(QUERY_A, WINDOW)
        outputs = direct.process_many(stream[:80])
        direct.register(QUERY_B, WINDOW)
        outputs += direct.process_many(stream[80:160])
        direct.unregister(handle_a)
        # Matches for A delivered up to the unregister; B keeps flowing.
        outputs += direct.process_many(stream[160:])
        assert served == output_digest(outputs)

    def test_concurrent_clients_reconstructed_order(self):
        """8 concurrent ingest clients; acks rebuild the interleave exactly."""
        num_clients, per_client = 8, 120
        streams = [star_stream(per_client, seed=100 + i) for i in range(num_clients)]
        engine = MultiQueryEngine()
        with ServerThread(engine, max_batch=48) as st:
            collector = IngestClient(st.host, st.port)
            collector.subscribe(QUERY_A, WINDOW)
            collector.subscribe(QUERY_B, WINDOW)
            acks_per_client = [[] for _ in range(num_clients)]
            errors = []

            def pump(index: int) -> None:
                try:
                    with IngestClient(st.host, st.port) as client:
                        seqs = [
                            client.ingest(streams[index][start : start + 10])
                            for start in range(0, per_client, 10)
                        ]
                        for frame_index, seq in enumerate(seqs):
                            base, count = client.wait_ack(seq)
                            acks_per_client[index].append((base, count, frame_index))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=pump, args=(i,)) for i in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            # Every ingester acked ⇒ every match frame is already in the
            # collector's outbox; ping flushes it through.
            collector.ping()
            served = matches_digest(collector.matches)
            collector.close()

        # Rebuild the global interleaved order from the acks.
        total = num_clients * per_client
        interleaved = [None] * total
        for index, acks in enumerate(acks_per_client):
            for base, count, frame_index in acks:
                chunk = streams[index][frame_index * 10 : frame_index * 10 + count]
                interleaved[base : base + count] = chunk
        assert None not in interleaved
        assert served == direct_digest([QUERY_A, QUERY_B], interleaved)

    def test_disconnect_with_unflushed_subscription(self):
        """A subscriber vanishing mid-stream never disturbs other clients."""
        stream = star_stream(300)
        engine = MultiQueryEngine()
        with ServerThread(engine, max_batch=32) as st:
            keeper = IngestClient(st.host, st.port)
            keeper.subscribe(QUERY_A, WINDOW)
            quitter = IngestClient(st.host, st.port)
            quitter.subscribe(QUERY_B, WINDOW)
            keeper.ingest_all(stream[:150], frame_size=25)
            # Abrupt close: no unsubscribe, matches still queued server-side.
            quitter.close()
            keeper.ingest_all(stream[150:], frame_size=25)
            keeper.ping()
            served = matches_digest(keeper.matches)
            deadline = time.time() + 5
            while time.time() < deadline and st.server.observe()["subscriptions"] > 1:
                time.sleep(0.05)
            assert st.server.observe()["subscriptions"] == 1  # B was released
        # Per-query outputs are independent, so the keeper's view equals a
        # direct single-query run regardless of the churn timing.
        assert served == direct_digest([QUERY_A], stream)


# --------------------------------------------------------------------------
class _RawConnection:
    """A bare socket speaking raw bytes at the server (for malformed input)."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10)

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def expect_error_close(self) -> str:
        """Read to EOF; assert exactly one ('error', reason) frame arrived."""
        data = b""
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        except OSError:
            pass
        messages = list(FrameAssembler().feed(data))
        assert len(messages) == 1 and messages[0][0] == "error", messages
        return messages[0][1]

    def closed_by_server(self) -> bool:
        try:
            self.sock.settimeout(5)
            while True:
                if not self.sock.recv(65536):
                    return True
        except OSError:
            return False

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class TestRobustness:
    @pytest.fixture()
    def server(self):
        with ServerThread(MultiQueryEngine(), max_frame_bytes=1 << 16) as st:
            yield st

    def _assert_still_serving(self, st) -> None:
        """The canary: a fresh client completes a full round trip.

        The engine is stateful across canary calls (the fuzz test shares one
        server), so this asserts the protocol round trip — subscribe, acked
        ingest, position barrier — not a from-scratch digest; differential
        correctness is covered on fresh servers above.
        """
        with IngestClient(st.host, st.port) as client:
            client.subscribe(QUERY_A, WINDOW)
            base, count = client.ingest_all(star_stream(30), frame_size=10)
            assert count == 10
            assert client.ping() == base + count - 1

    def test_garbage_body_closes_with_error(self, server):
        conn = _RawConnection(server.host, server.port)
        conn.send(struct.pack("!I", 8) + b"\xff" * 8)
        assert "unknown value tag 0xff" in conn.expect_error_close()
        conn.close()
        self._assert_still_serving(server)

    def test_hostile_pickle_is_error_closed_and_never_unpickled(self, server, tmp_path):
        """A version-1 peer — or an attacker — frames a pickle whose loading
        would create a file: the server names the version, closes that
        connection, creates nothing, and keeps serving."""
        canary = tmp_path / "unpickled-on-the-server"
        body = pickle.dumps(
            ("ingest", 0, [_Touch(str(canary))]), protocol=pickle.HIGHEST_PROTOCOL
        )
        conn = _RawConnection(server.host, server.port)
        conn.send(struct.pack("!I", len(body)) + body)
        reason = conn.expect_error_close()
        assert "pickle" in reason and "protocol version 1" in reason
        assert f"protocol version {PROTOCOL_VERSION}" in reason
        conn.close()
        assert not canary.exists()
        assert server.server.observe()["protocol_errors"] == 1
        self._assert_still_serving(server)
        assert not canary.exists()

    def test_hello_with_another_version_is_refused(self, server):
        with IngestClient(server.host, server.port) as client:
            client._send(("hello", 1))
            reply = client._pump_until("welcome", "refused")
            assert reply[0] == "refused" and "version 2" in reply[1] and "version 1" in reply[1]
            # Refused, not closed: the same connection can still say it right.
            assert client.hello() == (PROTOCOL_VERSION, "MultiQueryEngine")

    def test_oversized_prefix_closes_with_error(self, server):
        conn = _RawConnection(server.host, server.port)
        conn.send(struct.pack("!I", (1 << 16) + 1))
        assert "exceeds the cap" in conn.expect_error_close()
        conn.close()
        self._assert_still_serving(server)

    def test_truncated_frame_then_eof(self, server):
        conn = _RawConnection(server.host, server.port)
        conn.send(struct.pack("!I", 100) + b"only ten b")
        conn.close()  # peer vanishes mid-frame
        self._assert_still_serving(server)

    def test_unknown_command_closes_with_error(self, server):
        conn = _RawConnection(server.host, server.port)
        conn.send(encode_frame(("launch_missiles", 1, 2)))
        assert "unknown command" in conn.expect_error_close()
        conn.close()
        self._assert_still_serving(server)

    def test_non_tuple_message_closes_with_error(self, server):
        conn = _RawConnection(server.host, server.port)
        conn.send(encode_frame({"command": "ingest"}))
        assert "not a command tuple" in conn.expect_error_close()
        conn.close()
        self._assert_still_serving(server)

    def test_malformed_peer_never_desyncs_others(self, server):
        """A client's stream positions are unaffected by another's garbage."""
        with IngestClient(server.host, server.port) as client:
            client.subscribe(QUERY_A, WINDOW)
            stream = star_stream(90)
            seq = client.ingest(stream[:30])
            base, _ = client.wait_ack(seq)
            assert base == 0
            conn = _RawConnection(server.host, server.port)
            conn.send(b"\xff\xff\xff\xff")  # oversized prefix
            conn.expect_error_close()
            conn.close()
            seq = client.ingest(stream[30:])
            base, count = client.wait_ack(seq)
            assert (base, count) == (30, 60)
            assert matches_digest(client.matches) == direct_digest([QUERY_A], stream)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(blob=st.binary(min_size=1, max_size=512))
    def test_fuzzed_bytes_never_kill_the_server(self, server, blob):
        conn = _RawConnection(server.host, server.port)
        conn.send(blob)
        conn.close()
        self._assert_still_serving(server)

    @pytest.mark.parametrize(
        "query, reason",
        [
            ("Q(x <- T(x)", "refused"),  # malformed: a parse error
            ("Q(x, y) <- R(x), S(x, y), T(y)", "not hierarchical"),
        ],
        ids=["malformed", "non-hierarchical"],
    )
    def test_a_query_the_compiler_rejects_is_refused_and_serving_goes_on(self, server, query, reason):
        with IngestClient(server.host, server.port) as client:
            with pytest.raises(NetClientError, match=reason):
                client.subscribe(query, WINDOW)
            client.subscribe(QUERY_A, WINDOW)  # the same connection still works
        assert server.server.driver_error is None
        self._assert_still_serving(server)

    def test_an_unexpected_register_failure_stops_the_server(self, monkeypatch):
        """Only what ``compile_query`` documents is a refusal: any other
        failure inside the driver leaves the engine in an unknown state, so
        the server fails stop, names the error and closes the connection."""
        engine = MultiQueryEngine()

        def broken(query, window, name=None):
            raise RuntimeError("registry corrupted")

        monkeypatch.setattr(engine, "register", broken)
        st = ServerThread(engine).start()
        try:
            with IngestClient(st.host, st.port) as client:
                with pytest.raises(NetClientError, match="closed the connection"):
                    client.subscribe(QUERY_A, WINDOW)
            st.join(timeout=10)
            assert isinstance(st.server.driver_error, RuntimeError)
            assert "registry corrupted" in str(st.server.driver_error)
        finally:
            st.stop()

    def test_a_match_batch_past_the_frame_caps_is_split_and_acked(self):
        """512 closing tuples over 1100 acked arms: one engine batch of
        563 200 two-entry matches, past the codec's element cap.  The server
        sends it in several frames before the ack and keeps serving."""
        query, window = "Q(x) <- A(x), B(x)", 4000
        stream = [Tuple("A", (1,))] * 1100 + [Tuple("B", (1,))] * 512
        with ServerThread(MultiQueryEngine(), max_batch=512) as st:
            with IngestClient(st.host, st.port, timeout=30) as client:
                client.subscribe(query, window)
                client.ingest_all(stream[:1100], frame_size=512)
                frames_before = st.server.match_frames_out
                assert client.wait_ack(client.ingest(stream[1100:]))[1] == 512
                assert st.server.match_frames_out - frames_before >= 2
                assert st.server.driver_error is None
                served = matches_digest(client.matches)
                self._assert_still_serving(st)
        assert served == direct_digest([query], stream, window)

    def test_a_match_batch_that_cannot_be_encoded_stops_the_server(self, monkeypatch):
        """A batch whose matches cannot be sent is never acked: the driver
        fails stop with ``driver_error`` set, as for an engine failure."""
        def broken(handle, batch):
            raise FrameProtocolError("cannot encode")

        monkeypatch.setattr("repro.net.server.encode_match_frames", broken)
        st = ServerThread(MultiQueryEngine()).start()
        try:
            with IngestClient(st.host, st.port, timeout=10) as client:
                client.subscribe("Q(x) <- A(x), B(x)", 10)
                with pytest.raises(NetClientError, match="closed the connection"):
                    client.ingest_all([Tuple("A", (1,)), Tuple("B", (1,))])
            st.join(timeout=10)
            assert isinstance(st.server.driver_error, FrameProtocolError)
        finally:
            st.stop()

    def test_ingest_frame_bigger_than_queue_is_rejected(self):
        with ServerThread(MultiQueryEngine(), max_queue=16) as st:
            with IngestClient(st.host, st.port) as client:
                client.ingest(star_stream(17))
                with pytest.raises(NetClientError, match="queue bound"):
                    client.ping()


# --------------------------------------------------------------------------
ABC_QUERY = {name: f"Q{name}(x) <- {name}(x)" for name in "ABCDEF"}


def six_relation_stream(length: int, seed: int = 5):
    import random

    rng = random.Random(seed)
    return [Tuple(rng.choice("ABCDEF"), (rng.randrange(3),)) for _ in range(length)]


class TestAdmission:
    """Tuples no subscription watches are never built, queued or fired — and
    nothing a client can observe says so: every served run equals a direct
    ``MultiQueryEngine.process_many`` of the ack-reconstructed stream."""

    def test_five_of_six_relations_unwatched(self):
        stream = six_relation_stream(600)
        with ServerThread(MultiQueryEngine(), max_batch=64) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(ABC_QUERY["A"], 8)
                acks = [
                    client.wait_ack(client.ingest(stream[start : start + 50]))
                    for start in range(0, 600, 50)
                ]
                assert client.ping() == 599
                served = matches_digest(client.matches)
            summary = st.server.observe()
        # Positions and acks count every admitted tuple, watched or not.
        assert acks == [(start, 50) for start in range(0, 600, 50)]
        assert summary["tuples_in"] == 600 and summary["position"] == 599
        assert summary["unwatched"] == sum(1 for tup in stream if tup.relation != "A") > 400
        assert st.server.metrics.collect()["repro_ingest_unwatched_total"] == summary["unwatched"]
        assert served == direct_digest([ABC_QUERY["A"]], stream, window=8)

    def test_subscribe_makes_a_relation_watched_between_frames_of_one_burst(self):
        """frame, subscribe, frame — queued together behind a busy engine: the
        new query sees exactly the tuples admitted after it."""
        stream = six_relation_stream(240, seed=9)
        engine = _SlowFeed(MultiQueryEngine(), delay=0.1)
        with ServerThread(engine, max_batch=512) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(ABC_QUERY["A"], 8)
                seqs = [client.ingest(stream[:80]), client.ingest(stream[80:160])]
                client._send(("subscribe", ABC_QUERY["B"], 8, None))
                seqs.append(client.ingest(stream[160:]))
                client._pump_until("subscribed")
                acks = [client.wait_ack(seq) for seq in seqs]
                served = matches_digest(client.matches)
            summary = st.server.observe()
        assert acks == [(0, 80), (80, 80), (160, 80)]
        # Both later frames sat in the queue at once, the subscribe between
        # them, and the engine was handed only what each batch watched.
        assert summary["peak_queue_depth"] >= 160
        assert engine.batch_sizes[-1] == sum(1 for tup in stream[160:] if tup.relation in "AB")
        direct = MultiQueryEngine()
        direct.register(ABC_QUERY["A"], 8)
        outputs = direct.process_many(stream[:160])
        direct.register(ABC_QUERY["B"], 8)
        outputs += direct.process_many(stream[160:])
        assert served == output_digest(outputs)
        assert summary["unwatched"] == sum(1 for tup in stream[:160] if tup.relation != "A") + sum(
            1 for tup in stream[160:] if tup.relation not in "AB"
        )

    def test_unsubscribe_makes_a_relation_unwatched(self):
        stream = six_relation_stream(300, seed=3)
        with ServerThread(MultiQueryEngine(), max_batch=32) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(ABC_QUERY["A"], 8)
                handle_b, _, _ = client.subscribe(ABC_QUERY["B"], 8)
                client.ingest_all(stream[:150], frame_size=25)
                before = st.server.observe()["unwatched"]
                client.unsubscribe(handle_b)
                client.ingest_all(stream[150:], frame_size=25)
                client.ping()
                served = matches_digest(client.matches)
            summary = st.server.observe()
        assert before == sum(1 for tup in stream[:150] if tup.relation not in "AB")
        assert summary["unwatched"] - before == sum(1 for tup in stream[150:] if tup.relation != "A")
        direct = MultiQueryEngine()
        direct.register(ABC_QUERY["A"], 8)
        handle = direct.register(ABC_QUERY["B"], 8)
        outputs = direct.process_many(stream[:150])
        direct.unregister(handle)
        outputs += direct.process_many(stream[150:])
        assert served == output_digest(outputs)

    @pytest.mark.parametrize("kind", ("wildcard", "unindexed"))
    def test_engines_that_watch_everything_get_every_tuple(self, kind):
        """A wildcard transition cannot name what it reads: same call, no
        gaps.  ``unindexed`` names the retired single-query server, whose
        engine watched everything: its ``subscribe(None, None)`` is now an
        error frame for that connection, and the others are served on."""
        from repro.core.pcea import PCEA, PCEATransition
        from repro.core.predicates import LambdaUnaryPredicate

        stream = six_relation_stream(200, seed=21)
        engine = MultiQueryEngine()
        if kind == "wildcard":
            engine.register(
                PCEA(
                    states={"a"},
                    transitions=[
                        PCEATransition(set(), LambdaUnaryPredicate(lambda t: True), {}, {"w"}, "a")
                    ],
                    final={"a"},
                ),
                4,
            )
            assert engine.watched_relations() is None
        with ServerThread(engine, max_batch=64) as st:
            if kind == "unindexed":
                conn = _RawConnection(st.host, st.port)
                conn.send(encode_frame(("subscribe", None, None, None)))
                assert "subscribe query must be a string" in conn.expect_error_close()
                conn.close()
            with IngestClient(st.host, st.port) as client:
                handle_id, _, _ = client.subscribe(ABC_QUERY["A"], 8)
                client.ingest_all(stream, frame_size=40)
                assert client.ping() == 199
                served = client.matches.get(handle_id, [])
            summary = st.server.observe()
        assert summary["tuples_in"] == 200
        if kind == "wildcard":
            assert summary["unwatched"] == 0
        else:
            assert summary["protocol_errors"] == 1
        direct = MultiQueryEngine()
        handle = direct.register(ABC_QUERY["A"], 8)
        expected = [
            (position, outputs[handle.id])
            for position, outputs in enumerate(direct.process_many(stream))
            if outputs
        ]
        assert served == expected

    def test_queue_bound_counts_tuples_and_frames_drain_across_batches(self):
        """One queue entry per frame, still bounded in tuples: a frame larger
        than ``max_batch`` is drained over several batches and acked once."""
        stream = six_relation_stream(500, seed=2)
        engine = _SlowFeed(MultiQueryEngine(), delay=0.002)
        with ServerThread(engine, max_batch=32, max_queue=200) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(ABC_QUERY["A"], 8)
                client.subscribe(ABC_QUERY["D"], 8)
                seqs = [client.ingest(stream[start : start + 100]) for start in range(0, 500, 100)]
                acks = [client.wait_ack(seq) for seq in seqs]
                served = matches_digest(client.matches)
            summary = st.server.observe()
        assert acks == [(start, 100) for start in range(0, 500, 100)]
        assert summary["batches"] >= 500 // 32 and summary["acks_out"] == 5
        assert 100 <= summary["peak_queue_depth"] <= 200
        assert served == direct_digest([ABC_QUERY["A"], ABC_QUERY["D"]], stream, window=8)


# --------------------------------------------------------------------------
class _SlowFeed:
    """Wrap an engine feed so every batch takes ``delay`` seconds — lets the
    readers outrun the driver and push the ingest queue to its cap."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self.delay = delay
        self.batch_sizes = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def position(self):
        return self._inner.position

    def ingest_batch(self, tuples):
        self.batch_sizes.append(len(tuples))
        time.sleep(self.delay)
        return self._inner.ingest_batch(tuples)


class TestFlowControl:
    def test_ingest_queue_holds_its_cap(self):
        """Backpressure: the queue never exceeds max_queue, reaches it under
        pressure, and not one tuple is lost while the socket is throttled."""
        max_queue, frame_size, frames = 64, 16, 50
        stream = star_stream(frame_size * frames)
        engine = _SlowFeed(MultiQueryEngine(), delay=0.004)
        with ServerThread(engine, max_batch=32, max_queue=max_queue) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                seqs = [
                    client.ingest(stream[i * frame_size : (i + 1) * frame_size])
                    for i in range(frames)
                ]
                acks = [client.wait_ack(seq) for seq in seqs]
                served = matches_digest(client.matches)
            time.sleep(0.1)
            summary = st.server.observe()
        # Hard bound held, and genuinely exercised.
        assert summary["peak_queue_depth"] <= max_queue
        assert summary["peak_queue_depth"] > max_queue - frame_size
        # Nothing lost or reordered under throttling.
        assert acks == [(i * frame_size, frame_size) for i in range(frames)]
        assert served == direct_digest([QUERY_A], stream)

    def _shedding_run(self, policy: str):
        """One ingester + one subscriber that never reads its socket."""
        max_outbox = 16
        stream = [Tuple("A", (i % 3,)) for i in range(4000)]
        engine = MultiQueryEngine()
        st = ServerThread(
            engine,
            max_batch=4,
            max_outbox=max_outbox,
            shed_policy=policy,
            sndbuf=4096,
            write_buffer_limit=4096,
        )
        with st:
            slow = IngestClient(st.host, st.port, rcvbuf=4096)
            slow.subscribe("QS(x) <- A(x)", 4)
            with IngestClient(st.host, st.port) as feeder:
                feeder.ingest_all(stream, frame_size=4)
            deadline = time.time() + 10
            while time.time() < deadline:
                summary = st.server.observe()
                # Wait for shedding to engage and the feeder's disconnect
                # to be reaped, so ``clients`` counts only the laggard.
                if summary["shed"] > 0 and summary["clients"] <= 1:
                    break
                time.sleep(0.05)
            summary = st.server.observe()
            yield st, slow, summary, max_outbox
        slow.close()

    def test_slow_subscriber_outbox_capped_and_shed_drop(self):
        run = self._shedding_run("drop")
        st, slow, summary, max_outbox = next(run)
        assert summary["shed"] > 0
        assert summary["peak_outbox"] <= max_outbox
        # Drop policy: the connection survives the shedding.
        assert summary["clients"] == 1
        metrics = st.server.metrics.collect()
        assert metrics["repro_net_shed_total"] == summary["shed"]
        # Stopping the server cleans up a peer that never reads: the close
        # handshake gets the kick grace, not seconds.
        started = time.time()
        for _ in run:
            pass
        assert time.time() - started < 2
        assert st.server.observe()["clients"] == 0

    def test_slow_subscriber_disconnected_under_disconnect_policy(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        run = self._shedding_run("disconnect")
        st, slow, summary, max_outbox = next(run)
        assert summary["shed"] > 0
        assert summary["peak_outbox"] <= max_outbox
        # The laggard never reads, so the write loop is parked in drain():
        # the kick must still take effect within its fixed grace.
        deadline = time.time() + 2
        while time.time() < deadline and st.server.observe()["clients"] > 0:
            time.sleep(0.05)
        assert st.server.observe()["clients"] == 0  # the laggard was dropped
        assert st.server.observe()["subscriptions"] == 0
        # The server still serves new clients after shedding one.
        with IngestClient(st.host, st.port) as client:
            client.subscribe(QUERY_A, WINDOW)
            client.ingest_all(star_stream(30), frame_size=10)
        for _ in run:
            pass
        gc.collect()
        assert "Task was destroyed but it is pending" not in caplog.text


# --------------------------------------------------------------------------
class TestObservability:
    def test_net_series_and_batch_spans(self):
        from repro.obs import Observer, TraceRecorder

        observer = Observer(trace=TraceRecorder(sample_every=1), sample_every=1)
        engine = MultiQueryEngine()
        stream = star_stream(200)
        with ServerThread(engine, max_batch=32, observer=observer) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                client.ingest_all(stream, frame_size=20)
        series = observer.metrics.collect()
        assert series["repro_ingest_tuples_total"] == len(stream)
        assert series["repro_ingest_queue_depth"] == 0
        assert series["repro_net_shed_total"] == 0
        assert series["repro_net_clients"] == 0
        assert series["repro_ingest_batch_tuples"]["count"] >= 1
        assert series["repro_ingest_batch_tuples"]["sum"] == len(stream)
        # Engine-side batch instrumentation fired through the same observer.
        assert series["repro_batches_total"] >= 1
        exposition = observer.metrics.to_prometheus()
        assert "repro_ingest_tuples_total" in exposition
        assert "repro_net_shed_total" in exposition
        kinds = {span[0] for span in observer.trace.spans()}
        assert "batch" in kinds

    def test_coalescer_batches_bounded_by_max_batch(self):
        from repro.obs import Observer

        observer = Observer()
        engine = _SlowFeed(MultiQueryEngine(), delay=0.002)
        with ServerThread(engine, max_batch=16, observer=observer) as st:
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERY_A, WINDOW)
                seqs = [client.ingest(star_stream(8, seed=i)) for i in range(40)]
                for seq in seqs:
                    client.wait_ack(seq)
        # The wrapper saw every actual engine batch: coalesced past the
        # 8-tuple frames, never past max_batch.
        assert engine.batch_sizes
        assert max(engine.batch_sizes) <= 16
        assert max(engine.batch_sizes) > 8  # frames really were coalesced
        histogram = observer.metrics.histogram("repro_ingest_batch_tuples")
        assert histogram.count == len(engine.batch_sizes)
        assert histogram.sum == sum(engine.batch_sizes) == 40 * 8


# --------------------------------------------------------------------------
class TestServeCLI:
    def _serve_and_run_client(self, tmp_path, serve_flags, client_flags, events_csv):
        port_file = tmp_path / "port"
        events = tmp_path / "events.csv"
        events.write_text(events_csv)
        result = {}

        def serve():
            result["code"] = main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--port-file",
                    str(port_file),
                    "--exit-after-clients",
                    "1",
                    *serve_flags,
                ]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        deadline = time.time() + 30
        while time.time() < deadline and not port_file.exists():
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        buffer = io.StringIO()
        args = build_net_client_parser().parse_args(
            ["--port", str(port), str(events), *client_flags]
        )
        from repro.cli import read_events

        code = run_net_client(args, read_events(events_csv.splitlines()), buffer)
        thread.join(timeout=30)
        assert result["code"] == 0
        return code, buffer.getvalue()

    def test_serve_client_diff_identical_to_multi_cli(self, tmp_path, capsys):
        events_csv = "\n".join(
            f"{t.relation},{','.join(map(str, t.values))}" for t in star_stream(200)
        )
        code, client_out = self._serve_and_run_client(
            tmp_path,
            [],
            ["--query", QUERY_A, "--query", QUERY_B, "--window", str(WINDOW)],
            events_csv,
        )
        capsys.readouterr()  # the serve thread's stdout, not under test here
        assert code == 0
        # Direct multi CLI over the same events.
        from repro.cli import build_multi_parser, read_events

        args = build_multi_parser().parse_args(
            ["--query", QUERY_A, "--query", QUERY_B, "--window", str(WINDOW)]
        )
        direct = io.StringIO()
        assert run_multi(args, read_events(events_csv.splitlines()), direct) == 0
        served_lines = sorted(
            line for line in client_out.splitlines() if not line.startswith("#")
        )
        direct_lines = sorted(
            line for line in direct.getvalue().splitlines() if not line.startswith("#")
        )
        assert served_lines == direct_lines
        assert served_lines  # the workload does produce matches

    def test_metrics_file_under_serve(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.prom"
        events_csv = "\n".join(
            f"{t.relation},{','.join(map(str, t.values))}" for t in star_stream(60)
        )
        code, _ = self._serve_and_run_client(
            tmp_path,
            ["--metrics-file", str(metrics_file)],
            ["--query", QUERY_A, "--window", str(WINDOW)],
            events_csv,
        )
        capsys.readouterr()
        assert code == 0
        exposition = metrics_file.read_text()
        assert "repro_ingest_tuples_total 60" in exposition
        assert "repro_ingest_queue_depth" in exposition
        assert "repro_net_shed_total" in exposition
        assert "repro_batches_total" in exposition

    def test_serve_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.port == 0 and args.max_batch == 512
        assert args.shed_policy == "disconnect"
        assert not hasattr(args, "adaptive")
