"""Arena-backed ``DS_w``: flat-array node storage with window-bounded reclamation.

:class:`ArenaDataStructure` implements the same interface and the *exact same
semantics* (including enumeration order) as the object-graph
:class:`~repro.core.datastructure.DataStructure`, but represents nodes as dense
integer ids instead of GC-tracked frozen dataclass instances.

Arena layout
------------
Node ids are allocated from one global id space carved into fixed 64-node
*slots* (``slot = id >> 6``).  A slab owns a contiguous range of slots —
``capacity / 64`` of them — and every owned slot maps to the slab in the
slab table, so id-to-slab resolution is one dict lookup regardless of slab
size and the node's offset is ``id - slab.base``.  Each slab stores, per
node:

* ``pos``  — the node's stream position ``i(n)``;
* ``ms``   — ``max_start(n) = max{min(ν) | ν ∈ ⟦n⟧_prod}``;
* ``ul`` / ``ur`` — union links as node ids (``0`` = no link / ``⊥``);
* a label id: a label set's (the distinct label sets come from the compiled
  transitions, so interning makes ``extend`` free of per-call ``frozenset``
  construction), or a childless record's *label run* (below);
* the union-balancing direction bit;
* the node's product children as a tuple of node ids.  The tuple is allocated
  once per ``extend`` and *shared* by every union path copy of the node
  (copies never re-materialise their child list), so union cost stays a
  constant number of appends per copied level; a live copy keeps the
  originating slab alive transitively through the expiry argument below.

Node id ``0`` is the bottom node ``⊥`` (empty bag): it never carries links or
children and every traversal treats it as expired.

Record storage
--------------
There is one layout.  A slab packs the five int fields of a node into one
interleaved ``array('q')`` record of stride :data:`_STRIDE`: ``pos, ms, ul,
ur, meta`` at word offset ``(id - base) * 5``.  ``meta`` fuses the label id, the direction bit and the product
reference — ``(prod_ref << 32) | (label_id << 1) | direction`` — where
``prod_ref`` is 0 for childless nodes (the vast majority) and otherwise
``1 +`` an index into the slab-local ``prods`` list, which stores only the
*non-empty* child tuples.  A union copy of a prod-carrying node re-appends
the (shared) tuple into its own slab's ``prods`` — one list append, no
re-materialisation — so product data never dangles across released slabs.
A label id from :data:`_RUN_BASE` up names a *label run* (``extend_onto``).

The write path is a single :func:`struct.Struct.pack_into` call per node
(five machine words in one C call); the record array grows in
:data:`_CHUNK_NODES`-node zero chunks, and sealing trims the unused tail so
sealed slabs are exact-size.  One machine word per field, no boxed ``int``
per value: :meth:`ArenaDataStructure.resident_bytes` is the footprint
metric.  Both kernels (:mod:`repro.core.kernel`) read and write these same
buffers, and each record operation is one method for both: its python-side
work (label and label-run interning, the validation of an unhinted call, the
slab-table upkeep) runs once, then the C ``Kernel`` or the inlined python
write does the record write.  ``nodes_created`` / ``union_calls`` /
``union_copies`` count as the object structure does (a label-run record as
its chain); ``allocated``, ``live_node_count`` and ``resident_bytes`` count
the records.

Adaptive slab sizing
--------------------
Slab capacity adapts to the observed allocation rate.  When a slab seals, the
arena projects how many nodes one window's worth of stream positions
allocates (``capacity / positions-the-slab-lasted × (window + 1)``) and sizes
the next slab so that about :data:`TARGET_SLABS_PER_WINDOW` slabs cover a
window — keeping the retained-slab count O(1) per window on bursty streams
(a burst doubles capacity per seal until slabs last ``~window/8`` positions;
a lull shrinks back toward the 64-node minimum so reclamation granularity
stays tight).  Capacities are powers of two in ``[64, 65536]``; the first
slab's covers one window (``min(4096, max(64, window + 1))`` rounded up).

Slab lifecycle
--------------
Nodes are allocated by a pointer bump into the newest ("current") slab; a full
slab is *sealed* and a fresh one started, so slabs are generations bucketed by
allocation time and — because ``max_start`` of any allocatable node is within
one window of its allocation position — effectively bucketed by ``max_start``
too.  Each slab tracks ``max_ms``, the largest ``max_start`` it contains.  A
sealed slab is *released wholesale* (its arrays dropped in one dict deletion
per owned slot, O(1) amortised, no graph traversal) once it has **expired**:
``position - max_ms > window``, i.e. every node in it enumerates nothing and
is pruned by every union, forever (positions only grow).  Nothing is
counted: expiry alone makes the release safe (below).

Slabs are released strictly in allocation order; because ``max_ms`` across
slabs can lag the allocation position by at most one window, an expired slab
waits at most ``O(window)`` positions behind an unexpired predecessor,
keeping total retained storage ``O(active window)``.

Why expiry alone suffices
-------------------------
References *into* a slab come from three places; none needs a count:

* **product children of live nodes** — a product node's ``max_start`` is ≤
  every child's ``max_start``, so a live (non-expired) node implies live
  children, which implies their slabs have not expired and therefore have
  not been released.  The *tuple* holding the child ids lives in the node's
  own slab (copies re-append it, see above), so reading it never crosses
  into another slab at all;
* **union links of live nodes** — may legitimately point at expired nodes (the
  heap condition only bounds ``max_start`` from above).  Traversals read one
  level into such a subtree purely to observe "expired, prune".  These reads
  are guarded at dereference time: a missing slab *means* expired, so the
  lookup ``slabs.get(id >> 6)`` returning ``None`` takes exactly the branch
  the pruning check would have taken.  (Pinning these instead would
  chain-pin the entire history: every union top links to the previous top);
* **run-index entries** — a hash-slot entry caches its node's ``max_start``,
  and the node's slab has ``max_ms`` at least that, so the slab expires no
  earlier than the entry.  The evaluator's sweep deletes an expired entry
  when it pops the entry's key, and it releases slabs only after popping
  every bucket due, so no ``H`` entry into a released slab survives a sweep.
  A scan-slot run is anchored at its own position and may outlive its node's
  slab; every read of it asks :meth:`ArenaDataStructure.expired` first,
  which the missing slab answers "expired", as a union link's does.

Snapshot / restore
------------------
:meth:`ArenaDataStructure.snapshot` captures the complete arena state — the
retained slab set (each slab's span, ``max_ms``, filled records verbatim as
one little-endian ``bytes`` value of ``count × 40`` bytes, and ``prods``
list), the release cursor, the current slab's start, the counters and the
label table — as a plain-Python tree (dicts / lists / tuples / ints / bytes / frozensets)
that pickles directly and encodes as one wire-codec frame through
:mod:`repro.runtime.snapshot`; either kernel restores a snapshot taken under
the other.  Restore derives the rest: each slab's base (the slabs tile the
slots from the release cursor) and count (its bytes over 40), the
allocation cursor, the capacity (the current slab's) and the seal deadline
(from the current slab's start).  :meth:`ArenaDataStructure.restore`
replaces the arena's entire state in place (bound methods held by an :class:`~repro.runtime.EvictionLane`
stay valid), after which allocation, reclamation and enumeration continue
bit-identically to the snapshotted arena — the per-layer contract behind the
engines' ``snapshot()`` / ``restore()`` protocol.  A snapshot is untrusted
input: restore checks that the label table holds distinct frozensets and
the run table (key ``runs``, written only when non-empty) distinct tuples of
two or more label ids, that every scalar is an int (not a bool or a
string) in its range, that each slab holds whole records within its span,
and that every record's label id and product
reference lie inside the restored tables before any slab is registered (the
native kernel indexes ``prods`` unchecked), and that every walk terminates
and stays inside 64-bit arithmetic: links and product children point at
older nodes, and ``0 <= max_start <= position < 2**62``.

Everything the evaluator consumes (``extend`` / ``union`` / ``extend_onto`` /
``enumerate`` / ``expired`` / the validation helpers) takes and returns plain
``int`` ids; the recursive ``_union`` of the object structure becomes an
iterative descend-then-rebuild loop over the arrays, and enumeration follows
union chains in a loop (a right link waits on an explicit stack), mirroring
the object traversal order exactly so that the two representations are
interchangeable output-for-output (the differential tests in
``tests/test_arena.py`` and ``tests/test_enumeration.py`` rely on this).
``extend_onto(label_sets, position, entry)`` is ``union(entry, extend(L,
position, ()))`` for each label set ``L`` in turn: each union is
fresh-on-top, so k of them would leave a chain of k records at ``position``.
It writes one, whose label id (k >= 2) names the interned *label run* of the
k label-set ids, newest first, and whose direction bit is the chain top's;
the walk expands it into the chain's outputs, order, pruning and cut.  That
is exact where no union descends into the record, as none does into a leaf
state's entry: the fire loop's *leaf item* (the leaf runs one tuple fires
into a leaf state) is one call and one record per ``H`` entry.

Enumeration
-----------
One enumerator, :meth:`ArenaDataStructure._groups`, serves ``enumerate``,
``enumerate_all`` (horizon ``-∞``) and ``outputs`` (several final nodes) on
either kernel.  An output is one **packed record** ``(label_id, pos, label_id,
pos, …)``; the walk hands them out *factorised*, as the groups of one
:class:`~repro.valuation.PackedValuations`: leaf records in runs, and per
live product node its head pair over its children's record lists (nested
products below it expand into those lists; a product whose
children have one combination is stored as that one record).  The cross
product is taken on read, by :func:`~repro.valuation.group_records`, the one
odometer; ``check_simple`` reads through it too.  Work at update time is
linear in the children's lists (records read ≤ ``2·Σ|ν| + 2`` per call,
counted in ``tests/test_enumeration.py``) while ``len()`` is their product;
the first read expands the groups into *unread*
:class:`~repro.valuation.Valuation` objects that build their mapping on first
access.  Delivering a match reads nothing, and the wire codec encodes it from
the groups without building a valuation.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import repeat
from operator import le, lt, rshift
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as Tup

from repro.core.kernel import native_module, resolve_kernel
from repro.runtime.snapshot import SnapshotError
from repro.valuation import Group, PackedValuations, Valuation, group_records


Label = Hashable

#: ``max_start`` of the bottom node: expired relative to every position/window.
_NEVER = -(1 << 62)

#: Restored positions and ``max_start`` values lie below this, so the C
#: kernel's ``position - max_start`` never overflows.
_POSITION_END = 1 << 62

#: The bottom node ``⊥`` as an id (shared by every arena).
BOTTOM_ID = 0

#: Fixed slot granularity of the id space: ids map to slabs via ``id >> 6``.
_SLOT_BITS = 6

#: Slab capacities are powers of two within these bounds.
MIN_SLAB_CAPACITY = 1 << _SLOT_BITS
MAX_SLAB_CAPACITY = 1 << 16

#: Adaptive sizing aims for about this many slabs per window, balancing
#: reclamation granularity (more, smaller slabs) against slab-table overhead.
TARGET_SLABS_PER_WINDOW = 8

#: Interleaved record stride (words): ``pos, ms, ul, ur, meta``.
_STRIDE = 5

#: Record-array growth granularity (nodes): the current slab's array is
#: extended by zeroed chunks of this many records, so the unpacked slack is
#: bounded by one chunk while sealed slabs are trimmed exact.
_CHUNK_NODES = 256

#: ``meta`` field encoding: low 32 bits hold ``label_id << 1 | direction``,
#: the high bits ``1 + prods-index`` (0 = no children).  Keep the four
#: encode sites (``extend``, ``extend_onto`` and the two ``union`` copies)
#: in sync.
_META_LOW = 0xFFFFFFFF
_META_LABEL_DIRN = 0xFFFFFFFE

#: Label ids from here up name a *label run* (see ``extend_onto``): run
#: ``label_id - _RUN_BASE`` of the run table.  Every id below names a label set.
_RUN_BASE = 1 << 30

#: One packed record write: five machine words in a single C call.
_PACK_RECORD = struct.Struct("5q").pack_into

#: One packed record read (the satellite of the write above): where a path
#: touches several fields of the same node, a single ``unpack_from`` boxes
#: all five words in one C call instead of paying one boxed ``array``
#: ``__getitem__`` per field.
_UNPACK_RECORD = struct.Struct("5q").unpack_from

#: Record size in bytes (pack offsets), derived from the word stride so the
#: write sites cannot drift from the word-offset reads.
_RECORD_BYTES = 8 * _STRIDE

_ZERO_CHUNK = array("q", bytes(8 * _STRIDE * _CHUNK_NODES))


def _grow_records(slab: "_Slab") -> None:
    """Extend a slab's record array by one zeroed chunk.

    Chunks are capped at the slab's own capacity so small slabs never
    over-allocate beyond the records they can hold (sealing additionally
    trims time-sealed slabs to their exact fill).
    """
    grow = (slab.span << _SLOT_BITS) - slab.avail
    if grow >= _CHUNK_NODES:
        grow = _CHUNK_NODES
        slab.data.extend(_ZERO_CHUNK)
    else:
        slab.data.extend(_ZERO_CHUNK[: grow * _STRIDE])
    slab.avail += grow


class _Slab:
    """One generation of nodes: packed records plus release accounting.

    ``data`` is the interleaved stride-5 record array, ``prods`` the
    slab-local non-empty child tuples.
    """

    __slots__ = ("base", "span", "data", "avail", "prods", "count", "max_ms")

    def __init__(self, base: int, span: int) -> None:
        self.base = base
        self.span = span  # owned 64-node slots (capacity == span << 6)
        self.avail = 0  # records allocated in ``data`` (growth cursor)
        self.data = array("q")
        self.prods: List[Tup[int, ...]] = []
        self.count = 0
        self.max_ms = _NEVER


def _round_capacity(value: float) -> int:
    """The smallest valid power-of-two capacity covering ``value``."""
    capacity = MIN_SLAB_CAPACITY
    while capacity < value and capacity < MAX_SLAB_CAPACITY:
        capacity <<= 1
    return capacity


#: The arena counters a snapshot carries, in the order restore assigns them.
_COUNTERS = ("nodes_created", "union_calls", "union_copies", "released_slabs", "released_nodes")


class _KernelCounter:
    """An arena counter the record operations bump: the python kernel's
    hot path bumps the plain attribute ``_<name>``; the C kernel keeps it as
    word ``index`` of ``Kernel.counters()``.  (``getattr``/``setattr``, not
    ``__dict__``: reading an instance's ``__dict__`` turns its inline
    attribute values into a dict and slows every hot-path attribute access.)"""

    __slots__ = ("index", "store")

    def __init__(self, index: int) -> None:
        self.index = index

    def __set_name__(self, owner: type, name: str) -> None:
        self.store = "_" + name

    def __get__(self, arena: Optional["ArenaDataStructure"], owner: Optional[type] = None):
        if arena is None:
            return self
        nk = arena._nk
        return getattr(arena, self.store) if nk is None else nk.counters()[self.index]

    def __set__(self, arena: "ArenaDataStructure", value: int) -> None:
        nk = arena._nk
        if nk is None:
            setattr(arena, self.store, value)
        else:
            words = list(nk.counters())
            words[self.index] = value
            nk.set_counters(*words)


def _int(value: object, name: str, low: int, high: int) -> int:
    """A snapshot scalar that must be an int — not a bool, a float or a
    string — in ``[low, high)``, else ``SnapshotError``."""
    if type(value) is not int or not low <= value < high:
        raise SnapshotError(f"snapshot {name} {value!r} is not an int in [{low}, {high})")
    return value


#: A restored release cursor lies below this: the slabs after it (at most a
#: frame's element cap of them, each a bounded span) keep node ids in a word.
_SLOT_END = _POSITION_END >> _SLOT_BITS


def _restored_slab(snap: Dict[str, object], slot: int, label_count: int, run_count: int) -> _Slab:
    """A snapshot slab rebuilt at ``slot`` — its base, since retained slabs
    tile the slots — with its record bytes taken verbatim and its record
    count read off their length, after checking what the kernels index
    without a bounds check and what makes an enumeration walk terminate.

    ``SnapshotError`` unless the slab owns a valid span, holds whole 40-byte
    records no more than its capacity, and every record's product reference
    lies inside the slab's ``prods`` and its label id inside the label table
    (a childless record's also inside the run table);
    unless every record but the bottom sentinel (record 0 of slab 0) has
    ``0 <= max_start <= position < 2**62`` (the C kernel subtracts both from
    the stream position) and at most the slab's ``max_ms`` (else the slab is
    released while the record is live), and links and product children that are older nodes
    (``0 <= link < id``, ``0 < child < id``: a walk then always reaches older
    ids, so it cannot cycle); and unless the slab's ``max_ms`` is an int in
    ``[_NEVER, 2**62)``.
    """
    base = slot << _SLOT_BITS
    span = _int(snap["span"], f"slab {base} span", 1, (MAX_SLAB_CAPACITY >> _SLOT_BITS) + 1)
    records = snap["records"]
    count = len(records) // _RECORD_BYTES if type(records) is bytes else -1
    if not 0 <= count <= span << _SLOT_BITS or len(records) % _RECORD_BYTES:
        raise SnapshotError(f"snapshot slab at {base} does not hold whole records within its span in its record bytes")
    slab = _Slab(base, span)
    slab.max_ms = _int(snap["max_ms"], f"slab {base} max_ms", _NEVER, _POSITION_END)
    slab.data.frombytes(records)
    if sys.byteorder != "little":
        slab.data.byteswap()
    slab.prods = list(snap["prods"])
    metas = slab.data[4::_STRIDE]
    if metas and (min(metas) < 0 or max(metas) >> 32 > len(slab.prods)):
        raise SnapshotError(f"a record of snapshot slab {base} has a product reference outside its prods")
    first = 1 if base == BOTTOM_ID else 0  # the bottom sentinel is no node
    labelled = metas[first:]
    if labelled and max(map(_META_LOW.__and__, labelled)) >> 1 >= label_count:
        # Past the label table, only a childless record's label run.
        for meta in labelled:
            label_id = (meta & _META_LOW) >> 1
            if label_id >= label_count and (meta >> 32 or not 0 <= label_id - _RUN_BASE < run_count):
                raise SnapshotError(f"a record of snapshot slab {base} has a label id outside the label and run tables")
    if labelled:
        data = slab.data
        ids = range(base + first, base + count)
        offset = first * _STRIDE
        starts, positions = data[offset + 1 :: _STRIDE], data[offset::_STRIDE]
        if min(starts) < 0 or max(positions) >= _POSITION_END or not all(map(le, starts, positions)):
            raise SnapshotError(f"a record of snapshot slab {base} breaks 0 <= max_start <= position < 2**62")
        if max(starts) > slab.max_ms:
            # The slab would be released while the record is live.
            raise SnapshotError(f"a record of snapshot slab {base} has a max_start past the slab's max_ms")
        for links in (data[offset + 2 :: _STRIDE], data[offset + 3 :: _STRIDE]):
            if min(links) < 0 or not all(map(lt, links, ids)):
                raise SnapshotError(f"a record of snapshot slab {base} has a union link to a node not older than it")
        refs = list(map(rshift, labelled, repeat(32)))
        if any(refs):
            # Per prods entry its smallest and largest child, index 0 for "no children".
            lows = [1, *map(min, slab.prods)]
            highs = [0, *map(max, slab.prods)]
            if min(map(lows.__getitem__, refs)) <= 0 or not all(map(lt, map(highs.__getitem__, refs), ids)):
                raise SnapshotError(f"a record of snapshot slab {base} has a product child not older than it")
    slab.count = slab.avail = count
    return slab


class ArenaDataStructure:
    """``DS_w`` over flat arrays with O(1) amortised window-bounded reclamation.

    Drop-in replacement for :class:`~repro.core.datastructure.DataStructure`
    in which nodes are integer ids (see the module docstring for the layout
    and the release protocol).  The public surface mirrors the object
    structure: :meth:`extend`, :meth:`union`, :meth:`extend_onto`, :meth:`enumerate`,
    :meth:`enumerate_all`, :meth:`expired`, the validation helpers and the
    ``nodes_created`` / ``union_calls`` / ``union_copies`` counters, plus the
    reclamation the eviction sweep calls (:meth:`release_expired`), the snapshot protocol
    (:meth:`snapshot` / :meth:`restore`) and the memory introspection used by
    ``--stats`` and the benchmarks (:meth:`memory_stats`,
    :meth:`resident_bytes`).

    Parameters
    ----------
    window:
        The sliding-window size ``w``.
    kernel:
        Which record-operation backend runs the hot path: ``"python"``,
        ``"native"`` (the optional C extension) or ``"auto"``
        / ``None`` to defer to ``REPRO_KERNEL`` and auto-detection — see
        :mod:`repro.core.kernel` for the precedence and the backend
        contract.  Both kernels share this arena's slab buffers, so cold
        readers, snapshots and outputs are identical either way.
    """

    # Counters mirroring DataStructure (benchmark instrumentation), plus the
    # real nodes ever allocated (the bottom sentinel is not counted), which
    # :meth:`live_node_count` reads.
    nodes_created = _KernelCounter(0)
    union_calls = _KernelCounter(1)
    union_copies = _KernelCounter(2)
    allocated = _KernelCounter(3)

    def __init__(self, window: int, kernel: Optional[str] = None) -> None:
        if window < 0:
            raise ValueError("window size must be non-negative")
        self.window = window
        self.kernel = resolve_kernel(kernel)
        # One C kernel per arena, created once and *reused* across restore().
        self._nk = native_module().Kernel(window) if self.kernel == "native" else None
        if self._nk is not None:
            self._nk.set_request_slab(self._new_slab)
        self._cap = _round_capacity(min(4096, max(MIN_SLAB_CAPACITY, window + 1)))
        self._slabs: Dict[int, _Slab] = {}
        self._slab_count = 0
        self._next_slot = 0
        self._release_cursor = 0
        self._slab_start: Optional[int] = None
        # Observability hook: called with the sealed slab's fill (record
        # count) every time an allocation seals the current slab.  None (the
        # default) costs one attribute read per *seal*, never per node.
        self.on_seal: Optional[Callable[[int], None]] = None
        self._cur = self._new_slab()
        # Reserve id 0 for bottom: a sentinel that always reads as expired.
        self._append_sentinel(self._cur)
        self.nodes_created = self.union_calls = self.union_copies = self.allocated = 0
        self.released_slabs = 0
        self.released_nodes = 0
        # Label-set and label-run interning (:meth:`_intern`, :meth:`_intern_run`).
        self._label_ids: Dict[frozenset, int] = {}
        self._labels: List[frozenset] = []
        self._run_ids: Dict[Tup[frozenset, ...], int] = {}
        self._label_runs: List[Tup[int, ...]] = []

    # ---------------------------------------------------------------- slabs
    def _new_slab(self, position: Optional[int] = None) -> _Slab:
        """Seal the current slab and start a fresh one (adapting capacity).

        ``position`` is the stream position of the allocation that triggered
        the seal; it dates the sealed slab's fill time, from which the next
        capacity is projected.  Sealing trims the packed
        record array of a partially-filled (time-sealed) slab to
        its exact fill, so sealed slabs carry no chunk slack.
        """
        native = self._nk
        sealed = getattr(self, "_cur", None)
        if sealed is not None:
            if native is not None:
                # The kernel is authoritative for the fill/meta of the slab
                # it has been writing; mirror them back now — the adaptive
                # projection below reads ``count``, and the sealed values
                # never change again (release accounting and snapshots rely
                # on exactly this sync point).  The record buffer stays at
                # full capacity: it is pinned by the kernel's buffer export
                # (a trim would raise ``BufferError``), and the unfilled
                # tail is zeroed so cold readers see the same records.
                sealed.count, sealed.max_ms = native.slab_meta(sealed.base >> _SLOT_BITS)
            else:
                fill = sealed.count * _STRIDE
                if len(sealed.data) > fill:
                    del sealed.data[fill:]
                sealed.avail = sealed.count
            hook = self.on_seal
            if hook is not None:
                hook(sealed.count)
        if position is not None and self._slab_start is not None:
            elapsed = max(1, position - self._slab_start)
            # Nodes one window's worth of positions allocates at the sealed
            # slab's observed rate, spread over the target slab count.  The
            # sealed slab's actual fill (not its capacity) is what matters:
            # a time-sealed slab (see ``_seal_deadline``) is partially full,
            # and its low fill is exactly the signal to shrink.
            per_window = self._cur.count * (self.window + 1) / elapsed
            self._cap = _round_capacity(per_window / TARGET_SLABS_PER_WINDOW)
        slot = self._next_slot
        span = self._cap >> _SLOT_BITS
        self._next_slot = slot + span
        slab = _Slab(slot << _SLOT_BITS, span)
        slabs = self._slabs
        for owned in range(slot, slot + span):
            slabs[owned] = slab
        self._slab_count += 1
        self._cur = slab
        self._slab_start = position
        # Time-based seal: a slab still open after a full window of positions
        # seals at the next allocation, so a post-burst lull both shrinks the
        # capacity and keeps reclamation granularity within the window (a
        # slab can otherwise pin up to ``capacity`` nodes while it slowly
        # fills).  The first slab, started before any position, never does.
        self._seal_deadline = 1 << 62 if position is None else position + self.window + 1
        if native is not None:
            # Native slabs are born at full capacity (the exported buffer
            # cannot grow) and handed to the kernel, which allocates into
            # them until the next seal — this method is its request_slab
            # callback (the kernel ignores the returned slab).
            slab.data = array("q", bytes(_RECORD_BYTES * (span << _SLOT_BITS)))
            slab.avail = span << _SLOT_BITS
            native.register_slab(slot, span, slab.base, slab.data, slab.prods, 0, _NEVER)
            native.set_current(slot, self._seal_deadline)
        return slab

    def _append_sentinel(self, slab: _Slab) -> None:
        """Append the bottom node ``⊥`` (id 0) into a fresh slab 0."""
        if self._nk is not None:
            self._nk.write_sentinel()
            slab.count = 1
            return
        _grow_records(slab)
        _PACK_RECORD(slab.data, 0, -1, _NEVER, 0, 0, 0)
        slab.count = 1

    # ---------------------------------------------------------------- access
    def max_start_of(self, node: int) -> int:
        """``max_start`` of ``node`` (``_NEVER`` for ⊥ / released ids)."""
        slab = self._slabs.get(node >> _SLOT_BITS)
        if slab is None:
            return _NEVER
        return slab.data[(node - slab.base) * _STRIDE + 1]

    def position_of(self, node: int) -> int:
        slab = self._slabs.get(node >> _SLOT_BITS)
        if slab is None:
            return -1
        return slab.data[(node - slab.base) * _STRIDE]

    def labels_of(self, node: int) -> frozenset:
        slab = self._slabs.get(node >> _SLOT_BITS)
        if slab is None:
            return frozenset()
        label_id = self._label_id_of(slab, node - slab.base)
        if label_id >= _RUN_BASE:  # a label run reads as its chain's top
            label_id = self._label_runs[label_id - _RUN_BASE][0]
        return self._labels[label_id]

    def _label_id_of(self, slab: _Slab, index: int) -> int:
        return (slab.data[index * _STRIDE + 4] & _META_LOW) >> 1

    def _links_of(self, slab: _Slab, index: int) -> Tup[int, int]:
        """``(ul, ur)`` of a node — cold-path accessor."""
        offset = index * _STRIDE
        data = slab.data
        return data[offset + 2], data[offset + 3]

    def _prod_of(self, slab: _Slab, index: int) -> Tup[int, ...]:
        """The node's child tuple (``()`` for leaves) — cold-path accessor."""
        ref = slab.data[index * _STRIDE + 4] >> 32
        return slab.prods[ref - 1] if ref else ()

    def expired(self, node: int, position: int) -> bool:
        """Whether every valuation of ``⟦node⟧`` is out of the window at ``position``.

        A released slab certifies expiry (slabs are only released once every
        node in them has expired), so the missing-slab branch is semantically
        the same pruning decision, not an error.
        """
        if not node:
            return True
        slab = self._slabs.get(node >> _SLOT_BITS)
        if slab is None:
            return True
        return position - slab.data[(node - slab.base) * _STRIDE + 1] > self.window

    def allocated_max_start(self, node: int) -> Optional[int]:
        """``max_start`` of ``node`` if allocated (``_NEVER`` if released), else
        ``None``: what a restore checks the run index's nodes against."""
        slab = self._slabs.get(node >> _SLOT_BITS)
        if slab is None:
            return _NEVER if 0 <= node < self._release_cursor << _SLOT_BITS else None
        return slab.data[(node - slab.base) * _STRIDE + 1] if node - slab.base < slab.count else None

    # ----------------------------------------------------------------- nodes
    def _intern(self, labels: Iterable[Label]) -> int:
        """The id of the label set ``labels``, interned on first sight.

        The distinct label sets come from the compiled transitions, so the
        table stays tiny; the record operations inline the dict hit for a
        ``frozenset`` and call this only on a miss.
        """
        labels = frozenset(labels)
        label_id = self._label_ids.get(labels)
        if label_id is None:
            label_id = self._label_ids[labels] = len(self._labels)
            self._labels.append(labels)
        return label_id

    def _intern_run(self, label_sets: Tup[Iterable[Label], ...]) -> int:
        """The id of the label run of ``label_sets`` (in ``extend_onto``'s
        order), interned on first sight: ``_RUN_BASE`` plus its index in the
        run table, which holds the runs' label ids newest first."""
        key = tuple(map(frozenset, label_sets))
        run_id = self._run_ids.get(key)
        if run_id is None:
            run_id = self._run_ids[key] = _RUN_BASE + len(self._label_runs)
            self._label_runs.append(tuple(reversed(list(map(self._intern, key)))))
        return run_id

    def extend(
        self,
        labels: Iterable[Label],
        position: int,
        children: Sequence[int],
        max_start: Optional[int] = None,
    ) -> int:
        """``extend(L, i, N)``: a fresh product node (mirrors the object version).

        Allocation is inlined (no helper-call chain): one packed-record write
        is the entire cost, which is what buys the per-tuple speedup over the
        frozen-dataclass construction of the object structure.

        ``max_start`` is the engines' fast path: they already hold every
        child's ``max_start`` in their hash-table pairs and thread the new
        node's value (``min(position, min child max_start)``) through the
        loop, so passing it skips the per-child record reads *and* the child
        validation — the caller certifies the children are live non-bottom
        nodes with strictly smaller positions (the hashed engines' in-window
        check guarantees exactly that).  Without it, the value is computed
        and the children validated here, as the object structure does.
        """
        try:
            label_id = self._label_ids[labels]
        except (KeyError, TypeError):  # not interned yet, or not a frozenset
            label_id = self._intern(labels)
        if max_start is None:
            slabs = self._slabs
            max_start = position
            for child in children:
                slab = None if not child else slabs.get(child >> _SLOT_BITS)
                if slab is None:
                    raise ValueError("product children must not be the bottom node")
                offset = (child - slab.base) * _STRIDE
                data = slab.data
                if data[offset] >= position:
                    raise ValueError(
                        "product children must have strictly smaller positions"
                    )
                child_ms = data[offset + 1]
                if child_ms < max_start:
                    max_start = child_ms
        if self._nk is not None:
            return self._nk.extend(position, max_start, label_id, children)
        # Inline allocation; keep the five allocation sites (here, the two
        # in ``extend_onto`` and the two in ``union``) in sync.
        slab = self._cur
        offset = slab.count
        if offset >= self._cap or (offset and position > self._seal_deadline):
            slab = self._new_slab(position)
            offset = 0
        data = slab.data
        if offset >= slab.avail:
            _grow_records(slab)
        if children:
            prods = slab.prods
            prods.append(tuple(children))
            meta = (len(prods) << 32) | (label_id << 1)
        else:
            meta = label_id << 1
        _PACK_RECORD(data, offset * _RECORD_BYTES, position, max_start, 0, 0, meta)
        slab.count = offset + 1
        if max_start > slab.max_ms:
            slab.max_ms = max_start
        self._nodes_created += 1
        self._allocated += 1
        return slab.base + offset

    def union(
        self,
        left: int,
        fresh: int,
        position: Optional[int] = None,
        fresh_ms: Optional[int] = None,
    ) -> int:
        """``union(n1, n2)``: persistent union, iterative path copy.

        Same algorithm as ``DataStructure._union`` — expired-subtree pruning,
        fresh-on-top when its ``max_start`` dominates, direction-bit balancing
        — as a descend-then-rebuild loop instead of recursion, so union chains
        of any depth cannot overflow the interpreter stack.

        ``position`` / ``fresh_ms`` are the engines' fast path: ``fresh`` is
        a node they just built at the current position with a ``max_start``
        they already hold, so passing both skips re-reading (and validating)
        the fresh record — the caller certifies ``fresh`` is a live,
        link-free product node.  Without them, the record is read and the
        freshness validated here, as the object structure does.
        """
        slabs = self._slabs
        fresh_slab = slabs.get(fresh >> _SLOT_BITS) if fresh else None
        if fresh_slab is None:
            raise ValueError("the second argument of union must be a live product node")
        fresh_word = (fresh - fresh_slab.base) * _STRIDE
        fresh_data = fresh_slab.data
        if position is None:
            if fresh_data[fresh_word + 2] or fresh_data[fresh_word + 3]:
                raise ValueError(
                    "the second argument of union must be a fresh product node"
                )
            position = fresh_data[fresh_word]
            fresh_ms = fresh_data[fresh_word + 1]
        if self._nk is not None:
            return self._nk.union(left, fresh, position, fresh_ms)
        self._union_calls += 1
        window = self.window
        cap = self._cap
        # Descend: copy-path frames.  The dominance test reads only the ``ms``
        # word (the fresh-on-top fast path — the common case — stays at two
        # boxed reads); a level actually descended batches the node's whole
        # record into its frame with one 5-word ``unpack_from``, so the
        # rebuild below re-reads nothing.
        path: List[Tup[_Slab, Tup[int, ...], bool]] = []
        current = left
        copies = 0
        new: int
        while True:
            slab = slabs.get(current >> _SLOT_BITS) if current else None
            if slab is None:
                # Bottom, or a released slab: everything below is expired.
                new = fresh
                break
            index = current - slab.base
            word = index * _STRIDE
            data = slab.data
            node_ms = data[word + 1]
            if position - node_ms > window:
                # Expired subtree: prune it (positions only grow).
                new = fresh
                break
            copies += 1
            if fresh_ms >= node_ms:
                # Fresh dominates: it becomes the new top, old tree below; the
                # copy shares fresh's children tuple (no re-materialisation).
                # Allocation inlined, as in ``extend``.
                target = self._cur
                offset = target.count
                if offset >= cap or (offset and position > self._seal_deadline):
                    target = self._new_slab(position)
                    offset = 0
                fresh_meta = fresh_data[fresh_word + 4]
                meta = (fresh_meta & _META_LABEL_DIRN) | (
                    0 if data[word + 4] & 1 else 1  # not old dirn
                )
                ref = fresh_meta >> 32
                if ref:
                    prods = target.prods
                    prods.append(fresh_slab.prods[ref - 1])
                    meta = (meta & _META_LOW) | (len(prods) << 32)
                target_data = target.data
                if offset >= target.avail:
                    _grow_records(target)
                _PACK_RECORD(
                    target_data, offset * _RECORD_BYTES, position, fresh_ms, current, 0, meta
                )
                target.count = offset + 1
                if fresh_ms > target.max_ms:
                    target.max_ms = fresh_ms
                new = target.base + offset
                break
            rec = _UNPACK_RECORD(data, index * _RECORD_BYTES)
            if rec[4] & 1:
                path.append((slab, rec, True))
                current = rec[2]
            else:
                path.append((slab, rec, False))
                current = rec[3]
        # Rebuild the copied path bottom-up (path copying keeps persistence).
        for slab, frame, went_left in reversed(path):
            target = self._cur
            offset = target.count
            if offset >= cap or (offset and position > self._seal_deadline):
                target = self._new_slab(position)
                offset = 0
            node_ms = frame[1]
            old_meta = frame[4]
            if went_left:
                uleft = new
                uright = frame[3]
                direction = 0
            else:
                uleft = frame[2]
                uright = new
                direction = 1
            meta = (old_meta & _META_LABEL_DIRN) | direction
            ref = old_meta >> 32
            if ref:
                prods = target.prods
                prods.append(slab.prods[ref - 1])
                meta = (meta & _META_LOW) | (len(prods) << 32)
            target_data = target.data
            if offset >= target.avail:
                _grow_records(target)
            _PACK_RECORD(
                target_data, offset * _RECORD_BYTES, frame[0], node_ms, uleft, uright, meta
            )
            target.count = offset + 1
            if node_ms > target.max_ms:
                target.max_ms = node_ms
            new = target.base + offset
        if copies:
            # One allocation per live level visited: the rebuilt path frames
            # plus the fresh-on-top copy when dominance broke the descent.
            self._union_copies += copies
            self._nodes_created += copies
            self._allocated += copies
        return new

    def extend_onto(self, label_sets: Sequence[Iterable[Label]], position: int, entry: Optional[int]) -> int:
        """``union(entry, extend(L, position, ()))`` for each label set ``L`` of
        ``label_sets`` in turn, written as one record (see the module
        docstring): ``(position, position, ul, 0, id | dirn)`` with ``ul =
        entry`` while the entry is alive, else ``0`` (expired, released,
        ``None`` / ``⊥``), ``id`` the label set's or the label run's and
        ``dirn`` the bit the chain's top record would carry.  Returns it."""
        runs = len(label_sets)
        if runs == 1:
            labels = label_sets[0]
            try:
                label_id = self._label_ids[labels]
            except (KeyError, TypeError):  # not interned yet, or not a frozenset
                label_id = self._intern(labels)
            meta = label_id << 1
        else:
            key = tuple(label_sets)
            try:
                label_id = self._run_ids[key]
            except (KeyError, TypeError):
                label_id = self._intern_run(key)
            # The chain's top record: its bit flips once per record above the first.
            meta = (label_id << 1) | ((runs - 1) & 1)
        if self._nk is not None:
            return self._nk.extend_onto(position, entry or 0, label_id, runs)
        uleft = 0
        if entry:
            self._union_calls += 1
            old = self._slabs.get(entry >> _SLOT_BITS)
            if old is not None:
                _, entry_ms, _, _, old_meta = _UNPACK_RECORD(
                    old.data, (entry - old.base) * _RECORD_BYTES
                )
                if position - entry_ms <= self.window:
                    uleft = entry
                    meta ^= ~old_meta & 1  # the first record's bit: not dirn(entry)
                    self._union_copies += 1
        # Allocation inlined, as in ``extend``.
        slab = self._cur
        offset = slab.count
        if offset >= self._cap or (offset and position > self._seal_deadline):
            slab = self._new_slab(position)
            offset = 0
        if offset >= slab.avail:
            _grow_records(slab)
        _PACK_RECORD(slab.data, offset * _RECORD_BYTES, position, position, uleft, 0, meta)
        slab.count = offset + 1
        if position > slab.max_ms:
            slab.max_ms = position
        if runs != 1:
            # Each chain record above the first is one union onto a live node.
            self._union_calls += runs - 1
            self._union_copies += runs - 1
        self._nodes_created += runs
        self._allocated += 1
        return slab.base + offset

    # ------------------------------------------------------------ reclamation
    def release_expired(self, position: int) -> int:
        """Release every leading sealed slab that expired.

        Returns the number of slabs released.  O(1) per call when nothing is
        releasable; releasing is one dict deletion per owned slot (pointer
        bump undo), never a graph traversal.  The native kernel makes the
        decisions itself (its ``max_ms`` is the canonical one while it is
        attached) and frees its buffer holds; either way the
        slab-table entries and the release counters are kept here — a sealed
        slab's ``count`` was mirrored at seal time.
        """
        slabs = self._slabs
        cursor = self._release_cursor
        nk = self._nk
        if nk is not None:
            released = nk.release_scan(cursor, position)
        else:
            released = 0
            scan = cursor
            current = self._cur
            window = self.window
            while True:
                slab = slabs.get(scan)
                if slab is None or slab is current:
                    break  # never release the unsealed current slab
                if position - slab.max_ms <= window:
                    break
                released += 1
                scan += slab.span
        if not released:
            return 0
        for _ in range(released):
            slab = slabs[cursor]
            for owned in range(cursor, cursor + slab.span):
                del slabs[owned]
            # Slab 0 holds the bottom sentinel, which allocation never counted.
            self.released_nodes += slab.count - 1 if slab.base == 0 else slab.count
            cursor += slab.span
        self._slab_count -= released
        self.released_slabs += released
        self._release_cursor = cursor
        return released

    # ---------------------------------------------------------- introspection
    def live_node_count(self) -> int:
        """Nodes currently held in retained slabs (the memory bound metric)."""
        return self.allocated - self.released_nodes

    def slab_count(self) -> int:
        return self._slab_count

    def slab_capacity(self) -> int:
        """The current slab's capacity (adapts with the allocation volume)."""
        return self._cap

    def memory_stats(self) -> Dict[str, int]:
        """Arena occupancy, shaped for the CLI ``--stats`` memory section."""
        return {
            "arena": 1,
            "native": 1 if self._nk is not None else 0,
            "slabs": self._slab_count,
            "slab_capacity": self._cap,
            "live_nodes": self.live_node_count(),
            "released_slabs": self.released_slabs,
            "released_nodes": self.released_nodes,
            "nodes_created": self.nodes_created,
        }

    def _retained_slabs(self) -> List[_Slab]:
        """The retained slabs, deduplicated (a slab owns ``span`` slots) and
        in allocation order (the current slab last)."""
        unique = {id(slab): slab for slab in self._slabs.values()}
        return sorted(unique.values(), key=lambda slab: slab.base)

    def resident_bytes(self) -> int:
        """Measured bytes of the retained slab storage (the footprint metric).

        Sums the record array and the product table of every retained slab
        plus the product child tuples (deduplicated by identity — union copies
        share them); the ints *inside* the child tuples are excluded.
        """
        getsizeof = sys.getsizeof
        seen: set = set()
        total = 0
        for slab in self._retained_slabs():
            total += getsizeof(slab.data) + getsizeof(slab.prods)
            for children in slab.prods:
                marker = id(children)
                if marker not in seen:
                    seen.add(marker)
                    total += getsizeof(children)
        return total

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> Dict[str, object]:
        """The arena's complete state as a plain-Python, picklable tree.

        A slab carries its filled records verbatim — ``count`` stride-5
        records as one little-endian ``bytes`` value — and its ``prods``
        list, so two arenas fed identical operations produce *equal*
        snapshots on either kernel.
        """
        nk = self._nk
        if nk is not None:
            # Pull the kernel-authoritative per-slab meta (the current slab's
            # fill and ``max_ms``) into the python mirrors the loop below
            # reads.  Record *data* needs no sync: the kernel writes the
            # shared buffers in place.
            for slab in self._retained_slabs():
                slab.count, slab.max_ms = nk.slab_meta(slab.base >> _SLOT_BITS)
        slabs = []
        for slab in self._retained_slabs():
            records = slab.data[: slab.count * _STRIDE]
            if sys.byteorder != "little":
                records.byteswap()
            slabs.append(
                {
                    "span": slab.span,
                    "max_ms": slab.max_ms,
                    "records": records.tobytes(),
                    "prods": list(slab.prods),
                }
            )
        tree = {
            "release_cursor": self._release_cursor,
            "slab_start": self._slab_start,
            "allocated": self.allocated,
            "labels": list(self._labels),
            "slabs": slabs,
            "counters": {name: getattr(self, name) for name in _COUNTERS},
        }
        if self._label_runs:  # an arena without runs keeps the bytes it always had
            tree["runs"] = list(self._label_runs)
        return tree

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Replace this arena's entire state with ``snapshot``'s, in place.

        In-place so bound methods (:class:`~repro.runtime.EvictionLane` binds
        ``release_expired`` and ``extend_onto`` once) stay valid.  The tree
        carries no window: that is the engine's configuration, and its lane's
        (:meth:`EvictionLane.restore <repro.runtime.EvictionLane.restore>`)
        to check.  A snapshot is untrusted input, so the label table (distinct
        frozensets), the run table (distinct tuples of two or more label
        ids), the scalars (ints in range, as :func:`_int` reads them) and
        every slab (:func:`_restored_slab`) are checked before anything is
        replaced: the native kernel never sees a record whose label id or
        product reference points outside the restored tables.
        """
        labels = list(snapshot["labels"])
        label_ids = {label_set: index for index, label_set in enumerate(labels) if type(label_set) is frozenset}
        if len(label_ids) != len(labels) or len(labels) > _RUN_BASE:
            raise SnapshotError("the label table holds an entry that is no frozenset, or one twice")
        runs = list(snapshot.get("runs", ()))
        for run in runs:
            if not (
                type(run) is tuple and len(run) >= 2
                and all(type(label_id) is int and 0 <= label_id < len(labels) for label_id in run)
            ):
                raise SnapshotError(f"the run table holds {run!r}, not two or more label ids")
        run_ids = {tuple(map(labels.__getitem__, reversed(run))): _RUN_BASE + index for index, run in enumerate(runs)}
        if len(run_ids) != len(runs) or len(runs) > _RUN_BASE:
            raise SnapshotError("the run table holds a run twice")
        release_cursor = next_slot = _int(snapshot["release_cursor"], "release_cursor", 0, _SLOT_END)
        restored: List[_Slab] = []
        for slab_snap in snapshot["slabs"]:
            # Retained slabs are released in allocation order, so they tile
            # the slots from the release cursor to the allocation cursor.
            restored.append(_restored_slab(slab_snap, next_slot, len(labels), len(runs)))
            next_slot += restored[-1].span
        if not restored:
            raise SnapshotError("snapshot holds no slabs (the current slab is never released)")
        slab_start = snapshot["slab_start"]
        if slab_start is not None:
            _int(slab_start, "slab_start", 0, _POSITION_END)
        # What ``_new_slab`` set when it opened the current slab.
        cap = restored[-1].span << _SLOT_BITS
        seal_deadline = 1 << 62 if slab_start is None else slab_start + self.window + 1
        allocated = _int(snapshot["allocated"], "allocated", 0, 1 << 63)
        counters = [_int(snapshot["counters"][name], name, 0, 1 << 63) for name in _COUNTERS]
        nk = self._nk
        if nk is not None:
            # Drop every buffer hold *before* rebuilding: restored slot
            # ranges may overlap the old ones, and releasing the views lets
            # the old arrays die with the old slab table.  The kernel object
            # itself is reused (never replaced) — the same in-place contract
            # the python path gives.
            nk.close()
            nk.set_request_slab(self._new_slab)
        self._cap = cap
        self._next_slot = next_slot
        self._release_cursor = release_cursor
        self._slab_start = slab_start
        self._seal_deadline = seal_deadline
        self._labels, self._label_ids = labels, label_ids
        self._label_runs, self._run_ids = runs, run_ids
        self._slabs = {}
        for slab in restored:
            first_slot = slab.base >> _SLOT_BITS
            for owned in range(first_slot, first_slot + slab.span):
                self._slabs[owned] = slab
        self._slab_count = len(restored)
        self._cur = current = restored[-1]
        if nk is not None:
            # Re-register the restored slabs: pad every record array back to
            # full slab capacity (the kernel's exported buffers never grow)
            # and hand the meta over — the kernel is authoritative for
            # count/max_ms again from here on.
            for slab in restored:
                capacity = slab.span << _SLOT_BITS
                slab.data.extend(array("q", bytes(_RECORD_BYTES * (capacity - slab.count))))
                slab.avail = capacity
                nk.register_slab(
                    slab.base >> _SLOT_BITS,
                    slab.span,
                    slab.base,
                    slab.data,
                    slab.prods,
                    slab.count,
                    slab.max_ms,
                )
            nk.set_current(current.base >> _SLOT_BITS, seal_deadline)
        self.allocated = allocated
        (
            self.nodes_created,
            self.union_calls,
            self.union_copies,
            self.released_slabs,
            self.released_nodes,
        ) = counters

    # ------------------------------------------------------------ enumeration
    def enumerate(self, node: int, position: int) -> PackedValuations:
        """Enumerate ``⟦node⟧^w_position`` — same pruning and order as the
        object structure's :meth:`~repro.core.datastructure.DataStructure.enumerate`."""
        return self.outputs((node,), position)

    def enumerate_all(self, node: int) -> PackedValuations:
        """Enumerate ``⟦node⟧`` ignoring the window — horizon ``-∞`` (tests; only
        meaningful while nothing reachable from ``node`` has been released)."""
        return self.enumerate(node, _NEVER + self.window)

    def outputs(self, nodes: Iterable[int], position: int) -> PackedValuations:
        """The outputs of ``nodes`` at ``position``, concatenated in order, as one
        factorised sequence over ``self._labels``: sound only because the table
        is append-only and :meth:`restore` *rebinds* it, never mutates it."""
        groups: List[Group] = []
        horizon = position - self.window
        for node in nodes:
            groups += self._groups(node, horizon)
        return PackedValuations(self._labels, groups)

    def _groups(self, node: int, horizon: int, flat: bool = False) -> list:
        """The one enumeration core: the outputs of ``⟦node⟧`` with ``min(ν) >=
        horizon``, in the object structure's order, as groups — leaf records in
        runs, a live product node as ``(head, [child record lists])`` — or, with
        ``flat`` (a product's child list), as one list of records, nested
        products spelled out.

        The union tree is walked iteratively and pruned where ``expired``
        would prune (a released slab certifies expiry); the native ``walk``
        does that walk in C and returns the surviving ``(label_id, pos,
        children)`` emissions.  A record naming a label run expands into its
        label sets' records, newest first.  A live product node has no empty child (its
        ``max_start`` is the minimum over theirs): work is linear in the
        children's lists, and their product is only taken when read.
        """
        groups: List[Group] = []
        run: List[Tup[int, ...]] = []
        append = run.append
        runs, run_base = self._label_runs, _RUN_BASE
        if self._nk is not None:
            for label_id, pos, prod in self._nk.walk(node, horizon + self.window):
                if not prod:
                    if label_id < run_base:
                        append((label_id, pos))
                    else:  # a label run: its label sets at one position
                        run += zip(runs[label_id - run_base], repeat(pos))
                    continue
                fresh = self._put_product(groups, run, (label_id, pos), prod, horizon, flat)
                if fresh is not run:
                    run = fresh
                    append = run.append
        else:
            slabs = self._slabs
            # Depth first, ``ul`` before ``ur``: a union chain is followed
            # along ``ul`` in the inner loop, and ``ur`` waits on the stack
            # only when both links are set.
            stack: List[int] = [node]
            while stack:
                current = stack.pop()
                while current:
                    slab = slabs.get(current >> _SLOT_BITS)
                    if slab is None:
                        break
                    # One batched record read (five words, one C call) instead
                    # of up to five boxed ``array`` element reads per node.
                    pos, node_ms, uleft, uright, meta = _UNPACK_RECORD(
                        slab.data, (current - slab.base) * _RECORD_BYTES
                    )
                    if node_ms < horizon:
                        break
                    label_id = (meta & _META_LOW) >> 1
                    ref = meta >> 32
                    if ref:
                        fresh = self._put_product(groups, run, (label_id, pos), slab.prods[ref - 1], horizon, flat)
                        if fresh is not run:
                            run = fresh
                            append = run.append
                    elif pos >= horizon:
                        if label_id < run_base:
                            append((label_id, pos))
                        else:
                            run += zip(runs[label_id - run_base], repeat(pos))
                    if uleft:
                        if uright:
                            stack.append(uright)
                        current = uleft
                    else:
                        current = uright
        if flat:
            return run
        if run:
            groups.append(run)
        return groups

    def _put_product(
        self, groups: List[Group], run: list, head: Tup[int, int], prod: Tup[int, ...], horizon: int, flat: bool
    ) -> list:
        """Add a live product node to a walk: spelled out into ``run`` when
        ``flat`` or when its children have one combination (every list of
        length one: its group would hold more than it spells out), else as its
        group after the run so far.  Returns the run the walk goes on with."""
        children = [self._groups(child, horizon, True) for child in prod]
        group = (head, children)
        if flat or len(children) == sum(map(len, children)):
            run += group_records(group)
            return run
        if run:
            groups.append(run)
            run = []
        groups.append(group)
        return run

    # ------------------------------------------------------------- validation
    def check_heap_condition(self, node: int) -> bool:
        """Condition (‡) below ``node``, iteratively (deep chains are fine)."""
        slabs = self._slabs
        stack: List[int] = [node] if node else []
        while stack:
            current = stack.pop()
            slab = slabs.get(current >> _SLOT_BITS)
            if slab is None:
                continue
            index = current - slab.base
            current_ms = slab.data[index * _STRIDE + 1]
            for link in self._links_of(slab, index):
                if not link:
                    continue
                # A released link reads ``_NEVER`` (and is skipped when popped).
                if self.max_start_of(link) > current_ms:
                    return False
                stack.append(link)
            stack.extend(self._prod_of(slab, index))
        return True

    def check_simple(self, node: int) -> bool:
        """Whether the bag rooted at ``node`` is *simple* (no overlapping products).

        Exponential in general; tests/debug only, iterative like the object
        version.  Only meaningful while nothing reachable from ``node`` has
        been released.
        """
        slabs = self._slabs
        worklist: List[int] = [node] if node else []
        while worklist:
            current = worklist.pop()
            slab = slabs.get(current >> _SLOT_BITS)
            if slab is None:
                continue
            index = current - slab.base
            node_position = slab.data[index * _STRIDE]
            prod = self._prod_of(slab, index)
            if prod:
                # Simple: no (label, position) pair twice, i.e. size = Σ entry sizes.
                labels = self._labels
                head = (self._label_id_of(slab, index), node_position)
                children = [self._groups(child, _NEVER, True) for child in prod]
                for packed in group_records((head, children)):
                    pairs = sum(len(labels[label_id]) for label_id in packed[0::2])
                    if Valuation._from_packed((labels, {}), packed).size() != pairs:
                        return False
            worklist.extend(prod)
            for link in self._links_of(slab, index):
                if link:
                    worklist.append(link)
        return True

    def union_depth(self, node: int) -> int:
        """Depth of the union tree hanging at ``node`` (instrumentation)."""
        slabs = self._slabs
        best = 0
        stack: List[Tup[int, int]] = [(node, 1)] if node else []
        while stack:
            current, depth = stack.pop()
            slab = slabs.get(current >> _SLOT_BITS)
            if slab is None:
                continue
            if depth > best:
                best = depth
            for link in self._links_of(slab, current - slab.base):
                if link:
                    stack.append((link, depth + 1))
        return best

    def __repr__(self) -> str:
        return (
            f"ArenaDataStructure(window={self.window}, slabs={self._slab_count}, "
            f"cap={self._cap}, live={self.live_node_count()}, "
            f"released={self.released_nodes})"
        )
