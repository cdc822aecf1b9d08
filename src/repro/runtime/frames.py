"""The wire codec of the TCP ingest protocol: typed, bounded, stateless frames.

Every message between a network client and the ingestion server is one
**frame** — a 4-byte big-endian length prefix (covering the body only)
followed by a body this module encodes and decodes without ever executing
or importing anything the bytes name::

    +----------------+--------------------------------------+
    | length (4B !I) | kind (1B) | payload, by kind          |
    +----------------+--------------------------------------+

Three body kinds exist (byte layouts in :mod:`repro.net.protocol`):

* a **value tree** over a closed tag set — ``None``/``bool``/``int``/
  ``float``/``str``/``bytes``/``tuple``/``list``/``dict``/``frozenset`` plus
  :class:`~repro.cq.schema.Tuple`, :class:`~repro.valuation.Valuation`,
  :class:`~repro.cq.query.Atom` and :class:`~repro.cq.query.Variable` — which
  carries every small control message (``subscribe``, ``ack``, ``pong`` …);
* the columnar **ingest** shape for ``("ingest", seq, tuples)``: a per-frame
  relation-name table, a ``u16`` relation-id column, an arity column and one
  ``int64`` value column (values that are not plain in-range ``int`` ride a
  tagged escape column).  It decodes to a lazy :class:`IngestBatch` — the
  columns, validated — so a receiver builds :class:`~repro.cq.schema.Tuple`
  objects only for the tuples it goes on to read;
* the columnar **matches** shape for ``("matches", handle, batch)``: a
  per-frame label-set table, the match positions and the arena's packed
  ``(label_id, position)*`` records, written straight from each position's
  unread :class:`~repro.valuation.PackedValuations` (no valuation is built)
  and handed back as one such container per position on arrival.  A batch
  past the caps is cut into several frames by :func:`encode_match_frames`.

Tables are per frame, so a frame is self-contained, :func:`encode_frame` is
a pure function, and one encoded frame can be written to every peer (the
server's match fan-out).  Every multi-byte integer of a body is
little-endian; only the length prefix is big-endian.

Decoding is **bounded**: every count and length is checked against the bytes
that remain before anything is allocated, tables hold at most
:data:`MAX_TABLE` entries, a container or column at most
:data:`MAX_ELEMENTS`, value trees nest at most :data:`MAX_DEPTH` deep, and
whatever the bytes are the outcome is a message or a
:class:`FrameProtocolError`.  The encoder enforces the same element and
body caps, so it never writes a frame the decoder would refuse.  A body
that starts with pickle's ``PROTO`` opcode — what version 1 of the
protocol sent — is refused by name.  The same frames are the checkpoint
file format (:mod:`repro.runtime.snapshot`).

Byte streams deliver arbitrary chunks, so the prefix is the delimiter: read
4 bytes, validate the length against the cap **before** allocating or
reading the body (:func:`frame_length`), then read exactly that many bytes
and decode them (:func:`decode_body`).  :class:`FrameAssembler` is that
state machine for synchronous readers; asyncio readers use ``readexactly``
with the same two helpers.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, compress
from typing import Any, Iterator, List, Optional, Sequence, Tuple as Tup

from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.valuation import PackedValuations, Valuation

#: Version of the wire format (what ``hello`` negotiates).  Version 1 bodies
#: were pickles; they are refused, never read.
WIRE_VERSION = 2

_LENGTH = struct.Struct("!I")

#: Size in bytes of the frame length prefix.
HEADER_SIZE = _LENGTH.size

#: Maximum frame body accepted on receipt (a corrupted length prefix must
#: not trigger a multi-gigabyte allocation).
MAX_FRAME_BYTES = 1 << 30

#: Most entries of a per-frame table (relation names, label sets): ids are ``u16``.
MAX_TABLE = 1 << 16

#: Most elements of one container or column.
MAX_ELEMENTS = 1 << 20

#: Deepest nesting of a value tree.
MAX_DEPTH = 32

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# Body kinds.  0x80 is pickle's PROTO opcode, the first byte of every
# protocol-1 body.
_INGEST = 0x49  # "I"
_MATCHES = 0x4D  # "M"
_PICKLE_PROTO = 0x80

# Value tags.
(
    _NONE,
    _FALSE,
    _TRUE,
    _INT,
    _BIGINT,
    _FLOAT,
    _STR,
    _BYTES,
    _TUPLE,
    _LIST,
    _DICT,
    _FROZENSET,
    _EVENT,
    _VALUATION,
    _ATOM,
    _VARIABLE,
) = range(16)


class FrameProtocolError(RuntimeError):
    """A frame failed to encode, frame, or decode."""


# ------------------------------------------------------------------ columns
def _pack_column(code: str, values: Sequence[int]) -> bytes:
    """``values`` as one little-endian column of struct ``code`` items
    (``struct.error`` for a value that is not an int of that width)."""
    return struct.pack(f"<{len(values)}{code}", *values)


class _Reader:
    """A bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.end = len(data)

    def take(self, size: int) -> int:
        """Claim the next ``size`` bytes; returns where they start."""
        start = self.pos
        if size > self.end - start:
            raise FrameProtocolError(
                f"frame body is truncated: {size} bytes wanted, {self.end - start} remain"
            )
        self.pos = start + size
        return start

    def byte(self) -> int:
        return self.data[self.take(1)]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self.take(4))[0]

    def count(self, item_size: int, cap: int = MAX_ELEMENTS) -> int:
        """A ``u32`` element count, refused unless it is under ``cap`` and
        ``item_size`` bytes per element can still follow."""
        number = self.u32()
        if number > cap:
            raise FrameProtocolError(f"count {number} exceeds the cap of {cap}")
        if number * item_size > self.end - self.pos:
            raise FrameProtocolError(
                f"count {number} needs {number * item_size} bytes, {self.end - self.pos} remain"
            )
        return number

    def column(self, code: str, length: int) -> Tup[int, ...]:
        """The next ``length`` little-endian struct ``code`` items."""
        layout = f"<{length}{code}"
        return struct.unpack_from(layout, self.data, self.take(struct.calcsize(layout)))

    def text(self, size: int) -> str:
        start = self.take(size)
        try:
            return self.data[start : self.pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameProtocolError(f"string is not UTF-8: {exc}") from exc


# -------------------------------------------------------------- value trees
def _put_text(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _put_count(out: bytearray, count: int) -> None:
    """Append a container's element count, refused over the cap the decoder
    enforces (a frame the other side would refuse is never written)."""
    if count > MAX_ELEMENTS:
        raise FrameProtocolError(f"count {count} exceeds the cap of {MAX_ELEMENTS}")
    out += _U32.pack(count)


def _put_items(out: bytearray, tag: int, items, depth: int) -> None:
    out.append(tag)
    _put_count(out, len(items))
    for item in items:
        _put(out, item, depth)


def _put(out: bytearray, value: Any, depth: int) -> None:
    """Append ``value``'s tagged encoding.  Exact types only: a subclass is
    not in the tag set (and ``bool`` must not travel as ``int``)."""
    kind = type(value)
    if kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_INT)
            out += _I64.pack(value)
        else:
            data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
            out.append(_BIGINT)
            _put_count(out, len(data))
            out += data
    elif kind is str:
        out.append(_STR)
        _put_text(out, value)
    elif value is None:
        out.append(_NONE)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is float:
        out.append(_FLOAT)
        out += _F64.pack(value)
    elif kind is bytes:
        out.append(_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif depth >= MAX_DEPTH:
        raise FrameProtocolError(f"message nests deeper than {MAX_DEPTH} levels")
    elif kind is tuple:
        _put_items(out, _TUPLE, value, depth + 1)
    elif kind is list:
        _put_items(out, _LIST, value, depth + 1)
    elif kind is frozenset:
        _put_items(out, _FROZENSET, value, depth + 1)
    elif kind is dict:
        out.append(_DICT)
        _put_count(out, len(value))
        for key, item in value.items():
            _put(out, key, depth + 1)
            _put(out, item, depth + 1)
    elif kind is Tuple:
        out.append(_EVENT)
        _put_text(out, value.relation)
        _put_items(out, _TUPLE, value.values, depth + 1)
    elif kind is Valuation:
        out.append(_VALUATION)
        items = list(value.items())
        _put_count(out, len(items))
        for label, positions in items:
            _put(out, label, depth + 1)
            _put_items(out, _FROZENSET, positions, depth + 1)
    elif kind is Atom:
        out.append(_ATOM)
        _put_text(out, value.relation)
        _put_items(out, _TUPLE, value.terms, depth + 1)
    elif kind is Variable:
        out.append(_VARIABLE)
        _put_text(out, value.name)
    else:
        raise FrameProtocolError(f"a {kind.__name__} is not in the frame tag set")


def _get_items(reader: _Reader, depth: int) -> List[Any]:
    return [_get(reader, depth) for _ in range(reader.count(1))]


def _get_tagged(reader: _Reader, depth: int, tag: int, what: str) -> Any:
    """The next value, which must carry ``tag``."""
    if reader.byte() != tag:
        raise FrameProtocolError(f"{what} has the wrong tag")
    reader.pos -= 1
    return _get(reader, depth)


def _get(reader: _Reader, depth: int) -> Any:
    tag = reader.byte()
    if tag == _INT:
        return _I64.unpack_from(reader.data, reader.take(8))[0]
    if tag == _STR:
        return reader.text(reader.count(1, MAX_FRAME_BYTES))
    if tag == _NONE:
        return None
    if tag == _FALSE:
        return False
    if tag == _TRUE:
        return True
    if tag == _FLOAT:
        return _F64.unpack_from(reader.data, reader.take(8))[0]
    if tag == _BIGINT:
        start = reader.take(reader.count(1))
        return int.from_bytes(reader.data[start : reader.pos], "little", signed=True)
    if tag == _BYTES:
        start = reader.take(reader.count(1, MAX_FRAME_BYTES))
        return reader.data[start : reader.pos]
    if tag > _VARIABLE:
        raise FrameProtocolError(f"unknown value tag 0x{tag:02x}")
    if depth >= MAX_DEPTH:
        raise FrameProtocolError(f"message nests deeper than {MAX_DEPTH} levels")
    depth += 1
    if tag == _TUPLE:
        return tuple(_get_items(reader, depth))
    if tag == _LIST:
        return _get_items(reader, depth)
    if tag == _FROZENSET:
        items = _get_items(reader, depth)
        try:
            return frozenset(items)
        except TypeError as exc:
            raise FrameProtocolError(f"frozenset member is not hashable: {exc}") from exc
    if tag == _DICT:
        pairs = [(_get(reader, depth), _get(reader, depth)) for _ in range(reader.count(2))]
        try:
            return dict(pairs)
        except TypeError as exc:
            raise FrameProtocolError(f"dict key is not hashable: {exc}") from exc
    if tag == _EVENT:
        relation = reader.text(reader.count(1, MAX_FRAME_BYTES))
        values = _get_tagged(reader, depth, _TUPLE, "tuple values")
        return _checked_hashable(Tuple(relation, values), "tuple value")
    if tag == _VALUATION:
        mapping = {}
        for _ in range(reader.count(2)):
            label = _checked_hashable(_get(reader, depth), "valuation label")
            positions = _get_tagged(reader, depth, _FROZENSET, "valuation positions")
            if set(map(type, positions)) - {int}:
                raise FrameProtocolError("valuation positions must be ints")
            mapping[label] = positions
        return Valuation(mapping)
    if tag == _ATOM:
        relation = reader.text(reader.count(1, MAX_FRAME_BYTES))
        terms = _get_tagged(reader, depth, _TUPLE, "atom terms")
        return _checked_hashable(Atom(relation, terms), "atom term")
    return Variable(reader.text(reader.count(1, MAX_FRAME_BYTES)))


def _checked_hashable(value: Any, what: str) -> Any:
    try:
        hash(value)
    except TypeError as exc:
        raise FrameProtocolError(f"{what} is not hashable: {exc}") from exc
    return value


# ------------------------------------------------------------- ingest shape
_new = object.__new__
_set = object.__setattr__


def _event(relation: str, values: tuple) -> Tuple:
    """``Tuple(relation, values)`` for a decoded column slice: the frozen
    dataclass's two fields set directly (``values`` is a tuple by construction)."""
    event = _new(Tuple)
    _set(event, "relation", relation)
    _set(event, "values", values)
    return event


class IngestBatch:
    """The decoded columns of one ingest frame: a read-only sequence of
    :class:`~repro.cq.schema.Tuple` that builds a tuple only when it is read.

    ``relations`` is the frame's relation-name table and ``relation_ids`` the
    per-tuple index into it; tuple ``i``'s values are
    ``values[bounds[i]:bounds[i + 1]]``.  Everything was validated by the
    decoder — ids inside the table, bounds inside the value column, every
    value hashable — so any index may be built without further checks.
    """

    __slots__ = ("relations", "relation_ids", "_bounds", "_values")

    def __init__(
        self,
        relations: List[str],
        relation_ids: Tup[int, ...],
        bounds: List[int],
        values: Tup[Any, ...],
    ) -> None:
        self.relations = relations
        self.relation_ids = relation_ids
        self._bounds = bounds
        self._values = values

    def __len__(self) -> int:
        return len(self.relation_ids)

    def select(self, relations, start: int, stop: int) -> Tup[Sequence[int], List[Tuple]]:
        """The tuples at ``[start, stop)`` whose relation is in ``relations``
        (a container of names; ``None`` selects every tuple), as ``(indexes,
        tuples)``.  Tuples of other relations are never built."""
        ids = self.relation_ids
        if relations is None:
            picked: Sequence[int] = range(start, stop)
        else:
            wanted = [name in relations for name in self.relations]
            column = ids if start == 0 and stop == len(ids) else ids[start:stop]
            picked = list(compress(range(start, stop), map(wanted.__getitem__, column)))
        names, bounds, values = self.relations, self._bounds, self._values
        return picked, [
            _event(names[ids[index]], values[bounds[index] : bounds[index + 1]])
            for index in picked
        ]

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.select(None, 0, len(self))[1])

    def __getitem__(self, index: int) -> Tuple:
        size = len(self)
        if not -size <= index < size:
            raise IndexError("ingest batch index out of range")
        index %= size
        return self.select(None, index, index + 1)[1][0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (IngestBatch, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IngestBatch({len(self)} tuples, {len(self.relations)} relations)"


_INGEST_HEADER = struct.Struct("<IIIII")


def _put_ingest(out: bytearray, seq: Any, tuples: Sequence[Tuple]) -> None:
    table: dict = {}  # relation name -> frame id, in first-use order
    relation_ids = [table.setdefault(tup.relation, len(table)) for tup in tuples]
    rows = [tup.values for tup in tuples]
    flat = list(chain.from_iterable(rows))
    if len(table) > MAX_TABLE or max(len(rows), len(flat)) > MAX_ELEMENTS:
        raise FrameProtocolError("ingest frame exceeds the table or element cap; split the batch")
    escapes: List[Tup[int, Any]] = []
    values = None
    if not set(map(type, flat)) - {int}:
        try:
            values = _pack_column("q", flat)
        except struct.error:
            pass
    if values is None:
        # The escape column: whatever is not a plain in-range int travels
        # tagged, its slot in the value column zeroed.
        for index, value in enumerate(flat):
            if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
                escapes.append((index, value))
                flat[index] = 0
        values = _pack_column("q", flat)
    text = "".join(table).encode("utf-8")  # TypeError for a relation that is not a str
    out.append(_INGEST)
    _put(out, seq, 0)
    out += _INGEST_HEADER.pack(len(table), len(text), len(rows), len(flat), len(escapes))
    out += _pack_column("H", list(map(len, table)))
    out += text
    out += _pack_column("H", relation_ids)
    out += _pack_column("H", list(map(len, rows)))
    out += values
    out += _pack_column("I", [index for index, _ in escapes])
    for _, value in escapes:
        _put(out, value, 1)


def _get_ingest(reader: _Reader) -> Tup[str, Any, IngestBatch]:
    seq = _get(reader, 0)
    names_count, text_size, count, values_count, escapes_count = _INGEST_HEADER.unpack_from(
        reader.data, reader.take(_INGEST_HEADER.size)
    )
    if names_count > MAX_TABLE or max(count, values_count, escapes_count) > MAX_ELEMENTS:
        raise FrameProtocolError("ingest frame exceeds the table or element cap")
    # Everything the header promises must fit in what remains, before any
    # column is allocated (the escape values take at least a byte each).
    promised = 2 * names_count + text_size + 4 * count + 8 * values_count + 5 * escapes_count
    if promised > reader.end - reader.pos:
        raise FrameProtocolError(
            f"ingest header promises {promised} bytes, {reader.end - reader.pos} remain"
        )
    # Name lengths count code points of the one UTF-8 text they cut up.
    name_bounds = list(accumulate(reader.column("H", names_count), initial=0))
    text = reader.text(text_size)
    if name_bounds[-1] != len(text):
        raise FrameProtocolError("relation-name lengths do not add up to the name text")
    relations = [text[start:end] for start, end in zip(name_bounds, name_bounds[1:])]
    relation_ids = reader.column("H", count)
    if count and max(relation_ids) >= names_count:
        raise FrameProtocolError("relation id outside the frame's relation table")
    bounds = list(accumulate(reader.column("H", count), initial=0))
    if bounds[-1] != values_count:
        raise FrameProtocolError("tuple arities do not add up to the value column")
    values: Sequence[Any] = reader.column("q", values_count)
    if escapes_count:
        patched = list(values)
        previous = -1
        for index in reader.column("I", escapes_count):
            if not previous < index < values_count:
                raise FrameProtocolError("escape index out of order or outside the value column")
            previous = index
            patched[index] = _checked_hashable(_get(reader, 1), "tuple value")
        values = tuple(patched)
    if reader.pos != reader.end:
        raise FrameProtocolError("bytes left over after the ingest columns")
    return ("ingest", seq, IngestBatch(relations, relation_ids, bounds, values))


# ------------------------------------------------------------ matches shape
def _read_record(valuation: Valuation) -> Tup[Any, ...]:
    """A read valuation as a record over no table: one entry per position, its
    "label id" the label set itself."""
    by_position: dict = {}
    for label, positions in valuation.items():
        for position in positions:
            by_position.setdefault(position, []).append(label)
    return tuple(
        chain.from_iterable((frozenset(by_position[position]), position) for position in sorted(by_position))
    )


def _match_records(valuations: Sequence[Valuation]) -> Tup[Any, Iterator[Tup[Any, ...]]]:
    """``(label table, records)`` of one position's matches: an unread
    :class:`~repro.valuation.PackedValuations` hands over its packed records as
    they are (no valuation is built); anything else is cut up through each
    valuation's mapping, with no table (``None``)."""
    if type(valuations) is PackedValuations:
        records = valuations.records()
        if records is not None:
            return records
    return None, map(_read_record, valuations)


def _is_match_batch(batch: Any) -> bool:
    if type(batch) is not list:
        return False
    for group in batch:
        if type(group) is not tuple or len(group) != 2 or type(group[0]) is not int:
            return False
        valuations = group[1]
        if type(valuations) is PackedValuations:
            continue
        if type(valuations) is not list or set(map(type, valuations)) - {Valuation}:
            return False
    return True


_MATCHES_HEADER = struct.Struct("<IIII")


class _MatchColumns:
    """The columns of one matches frame, filled match by match."""

    __slots__ = ("table", "renumber", "positions", "counts", "sizes", "ids", "where")

    def __init__(self) -> None:
        self.table: dict = {}  # label set -> frame id
        self.renumber: dict = {None: self.table}  # id(label table) -> {its id -> frame id}
        self.positions: List[int] = []
        self.counts: List[int] = []
        self.sizes: List[int] = []
        self.ids: List[int] = []
        self.where: List[int] = []

    def local(self, label_table: Any) -> dict:
        """The frame ids of ``label_table``'s ids (of the label sets themselves for ``None``)."""
        key = None if label_table is None else id(label_table)
        local = self.renumber.get(key)
        if local is None:
            local = self.renumber[key] = {}
        return local

    def put(self, out: bytearray, handle: Any) -> None:
        out.append(_MATCHES)
        _put(out, handle, 0)
        out += _MATCHES_HEADER.pack(len(self.table), len(self.positions), len(self.sizes), len(self.ids))
        for labels in self.table:
            _put(out, labels, 1)
        out += _pack_column("q", self.positions)
        out += _pack_column("I", self.counts)
        out += _pack_column("I", self.sizes)
        out += _pack_column("H", self.ids)
        out += _pack_column("q", self.where)


def _match_columns(batch: list) -> Iterator[_MatchColumns]:
    """The columns of a matches batch, in stream order, cut into as many frames
    as :data:`MAX_TABLE` and :data:`MAX_ELEMENTS` need (a position's matches may
    span frames; a frame never ends on a position it holds no match of)."""
    columns = _MatchColumns()
    for position, valuations in batch:
        if len(columns.positions) == MAX_ELEMENTS:
            yield columns
            columns = _MatchColumns()
        columns.positions.append(position)
        columns.counts.append(0)
        label_table, records = _match_records(valuations)
        local = columns.local(label_table)
        table, sizes, ids, where = columns.table, columns.sizes, columns.ids, columns.where
        first = len(sizes)
        for record in records:
            own = record[0::2]
            size = len(own)
            if len(ids) + size > MAX_ELEMENTS or len(table) + size > MAX_TABLE or len(sizes) == MAX_ELEMENTS:
                if not sizes:
                    raise FrameProtocolError("one match exceeds the matches frame's table or element cap")
                columns.counts[-1] = len(sizes) - first
                if not columns.counts[-1]:
                    del columns.positions[-1], columns.counts[-1]
                yield columns
                columns = _MatchColumns()
                columns.positions.append(position)
                columns.counts.append(0)
                local = columns.local(label_table)
                table, sizes, ids, where = columns.table, columns.sizes, columns.ids, columns.where
                first = 0
            try:
                mapped = [local[label_id] for label_id in own]
            except KeyError:
                for label_id in own:
                    if label_id not in local:
                        labels = label_id if label_table is None else label_table[label_id]
                        local[label_id] = table.setdefault(labels, len(table))
                mapped = [local[label_id] for label_id in own]
            ids += mapped
            where += record[1::2]
            sizes.append(size)
        columns.counts[-1] = len(sizes) - first
    yield columns


def _put_matches(out: bytearray, handle: Any, batch: list) -> None:
    frames = _match_columns(batch)
    columns = next(frames)
    if next(frames, None) is not None:
        raise FrameProtocolError(
            "matches frame exceeds the table or element cap; split the batch (encode_match_frames)"
        )
    columns.put(out, handle)


def _get_matches(reader: _Reader) -> Tup[str, Any, list]:
    handle = _get(reader, 0)
    sets_count, groups, total, entries = _MATCHES_HEADER.unpack_from(
        reader.data, reader.take(_MATCHES_HEADER.size)
    )
    if sets_count > MAX_TABLE or max(groups, total, entries) > MAX_ELEMENTS:
        raise FrameProtocolError("matches frame exceeds the table or element cap")
    promised = 5 * sets_count + 12 * groups + 4 * total + 10 * entries
    if promised > reader.end - reader.pos:
        raise FrameProtocolError(
            f"matches header promises {promised} bytes, {reader.end - reader.pos} remain"
        )
    label_sets = tuple(
        _get_tagged(reader, 1, _FROZENSET, "label set") for _ in range(sets_count)
    )
    positions = reader.column("q", groups)
    counts = reader.column("I", groups)
    sizes = reader.column("I", total)
    ids = reader.column("H", entries)
    where = reader.column("q", entries)
    if reader.pos != reader.end:
        raise FrameProtocolError("bytes left over after the matches columns")
    if sum(counts) != total or sum(sizes) != entries:
        raise FrameProtocolError("matches counts do not add up to their columns")
    if entries and max(ids) >= sets_count:
        raise FrameProtocolError("label-set id outside the frame's label-set table")
    flat: List[int] = [0] * (2 * entries)
    flat[0::2] = ids
    flat[1::2] = where
    # Each position's matches arrive as one unread container over the frame's
    # label sets, as one enumeration hands them out: no valuation is built.
    records = []
    cursor = 0
    for size in sizes:
        records.append(tuple(flat[cursor : cursor + 2 * size]))
        cursor += 2 * size
    batch = []
    cursor = 0
    for position, count in zip(positions, counts):
        batch.append((position, PackedValuations(label_sets, [records[cursor : cursor + count]])))
        cursor += count
    return ("matches", handle, batch)


# ------------------------------------------------------------------- frames
def encode_frame(message: Any) -> bytes:
    """One length-prefixed frame for ``message`` (a pure function of it)."""
    out = bytearray(HEADER_SIZE)
    try:
        columnar = type(message) is tuple and len(message) == 3
        if columnar and message[0] == "ingest" and _is_tuple_batch(message[2]):
            _put_ingest(out, message[1], message[2])
        elif columnar and message[0] == "matches" and _is_match_batch(message[2]):
            _put_matches(out, message[1], message[2])
        else:
            _put(out, message, 0)
        return _framed(out)
    except (OverflowError, UnicodeEncodeError, TypeError, struct.error) as exc:
        raise FrameProtocolError(f"message cannot be encoded: {exc}") from exc


def encode_match_frames(handle: Any, batch: list) -> List[bytes]:
    """``("matches", handle, batch)`` as frames within the caps: one, or as many
    as its table and element counts need, in stream order."""
    if not _is_match_batch(batch):
        raise FrameProtocolError("a matches batch is [(position, [Valuation, ...]), ...]")
    frames = []
    try:
        for columns in _match_columns(batch):
            out = bytearray(HEADER_SIZE)
            columns.put(out, handle)
            frames.append(_framed(out))
    except (OverflowError, UnicodeEncodeError, TypeError, struct.error) as exc:
        raise FrameProtocolError(f"message cannot be encoded: {exc}") from exc
    return frames


def _framed(out: bytearray) -> bytes:
    """``out`` (a body after :data:`HEADER_SIZE` reserved bytes) with its prefix written."""
    if len(out) - HEADER_SIZE > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"frame of {len(out) - HEADER_SIZE} bytes exceeds the cap of {MAX_FRAME_BYTES}"
        )
    _LENGTH.pack_into(out, 0, len(out) - HEADER_SIZE)
    return bytes(out)


def _is_tuple_batch(tuples: Any) -> bool:
    kind = type(tuples)
    return kind is IngestBatch or (kind is list and not set(map(type, tuples)) - {Tuple})


def frame_length(header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Body length promised by a 4-byte ``header``, validated against the cap.

    Stream transports call this before reading (or allocating) the body, so
    a corrupted or hostile prefix is rejected without buffering anything.
    """
    if len(header) != HEADER_SIZE:
        raise FrameProtocolError(
            f"frame header is {len(header)} bytes, expected {HEADER_SIZE}"
        )
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise FrameProtocolError(f"frame of {length} bytes exceeds the cap")
    return length


def decode_body(body: bytes) -> Any:
    """Decode a frame body whose length was already validated.

    Returns the message or raises :class:`FrameProtocolError`; nothing in the
    body is executed, imported or looked up by name.
    """
    if not body:
        raise FrameProtocolError("frame body is empty")
    kind = body[0]
    if kind == _PICKLE_PROTO:
        raise FrameProtocolError(
            "frame body is a pickle, the wire format of protocol version 1; this "
            f"build speaks protocol version {WIRE_VERSION} and does not read it"
        )
    reader = _Reader(body)
    if kind == _INGEST:
        reader.pos = 1
        return _get_ingest(reader)
    if kind == _MATCHES:
        reader.pos = 1
        return _get_matches(reader)
    message = _get(reader, 0)
    if reader.pos != reader.end:
        raise FrameProtocolError("bytes left over after the message")
    return message


def frame_body(frame: bytes) -> bytes:
    """The body of one whole frame, its length prefix verified against it
    (a transport that delivers whole frames checks the prefix, not cuts by it)."""
    if len(frame) < HEADER_SIZE:
        raise FrameProtocolError(
            f"frame of {len(frame)} bytes is shorter than the length prefix"
        )
    (length,) = _LENGTH.unpack_from(frame)
    body = len(frame) - HEADER_SIZE
    if length != body:
        raise FrameProtocolError(
            f"frame length prefix says {length} bytes, body holds {body}"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameProtocolError(f"frame of {length} bytes exceeds the cap")
    return frame[HEADER_SIZE:]


def decode_frame(frame: bytes) -> Any:
    """Decode one whole frame, verifying the length prefix against the body."""
    return decode_body(frame_body(frame))


class FrameAssembler:
    """Reassemble frames from an arbitrary-chunked byte stream.

    Feed whatever the socket returned; iterate the decoded messages that
    completed.  The length prefix is validated as soon as its 4 bytes are
    available — an oversized frame raises :class:`FrameProtocolError`
    *before* its body is buffered, so a hostile peer cannot balloon the
    reassembly buffer past ``max_frame_bytes`` plus one socket read.

    Counts frames and bytes received.
    """

    __slots__ = ("_buffer", "_need", "max_frame_bytes", "frames_received", "bytes_received")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._need: Optional[int] = None  # body length once the header parsed
        self.max_frame_bytes = max_frame_bytes
        self.frames_received = 0
        self.bytes_received = 0

    def feed(self, chunk: bytes) -> Iterator[Any]:
        """Absorb ``chunk``; yield every message completed by it, in order."""
        self.bytes_received += len(chunk)
        self._buffer.extend(chunk)
        while True:
            if self._need is None:
                if len(self._buffer) < HEADER_SIZE:
                    return
                self._need = frame_length(
                    bytes(self._buffer[:HEADER_SIZE]), self.max_frame_bytes
                )
                del self._buffer[:HEADER_SIZE]
            if len(self._buffer) < self._need:
                return
            body = bytes(self._buffer[: self._need])
            del self._buffer[: self._need]
            self._need = None
            self.frames_received += 1
            yield decode_body(body)

    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
