"""`StreamRuntime` / `EvictionLane`: the cross-cutting per-tuple machinery.

See the package docstring (:mod:`repro.runtime`) for the architecture.  The
contract with the engine (:class:`~repro.multi.engine.MultiQueryEngine`,
whose one update loop is :func:`~repro.runtime.fire.fire`):

* every entry the engine stores in a lane's ``hash`` maps a key to a
  ``(value, max_start)`` pair whose second element is the cached expiry
  anchor.  A hash probe's runs are keyed by ``(slot, join key)`` — one entry
  per run set, however many transitions read it, anchored at the stored
  node's ``max_start`` — and a fresh leaf run is written straight onto its
  entry through the lane's bound ``extend_onto``.  A scanned state's runs
  are keyed by ``(scan slot, sequence number)`` — one entry per run,
  anchored at the run's own position — and also listed, oldest first, in the
  lane's ``scans`` (see :class:`EvictionLane`);
* when the engine *creates* a key it appends the *flat pair*
  ``lane.lane_id, key`` (two plain appends, no per-entry tuple) to
  ``buckets[max_start + lane.window + 1]`` (the absolute position at which
  the entry expires unless written again) — the lines
  :func:`~repro.runtime.fire.fire` inlines, everything else lives here.
  :meth:`StreamRuntime.register_entry` is the reference implementation of
  one ``(lane, key, expiry)`` registration.  A write onto a key the table
  already holds registers nothing;
* the sweep pops due buckets and, for each key still in its lane's table,
  deletes the entry iff it is out of the window *now* — and a scan-slot
  key's run from its scan slot with it — or else re-arms the key at
  ``max_start + window + 1`` of its last write: the lazy re-arm of a timing
  wheel (Varghese & Lauck, "Hashed and Hierarchical Timing Wheels").  The
  key's ``max_start`` only grows, so its one registration is never later
  than its expiry and every entry leaves ``H`` at exactly the sweep its
  last write expires at.  Pending registrations are therefore exactly the
  keys of the tables, each once (plus, for up to a window, the runs a
  leaving query's scan slots took along).

Compact bucket representation
-----------------------------
Lanes are interned to dense small ints at :meth:`StreamRuntime.add_lane`
(``lane.lane_id``), and each expiry bucket is one flat list
``[lane_id, key, lane_id, key, ...]`` instead of a list of
``(lane, key)`` tuples.  Registration therefore allocates *nothing*
beyond the (amortised) list growth — the key object already lives in the
lane's hash table — and the sweep walks the flat list with a stride-2 index
loop.  No arena reference is taken: a slab is released once it has expired,
after the sweep that deleted every ``H`` entry into it (see
:mod:`repro.core.arena`).

Expired arena slabs are released by the same sweep: popping a bucket releases
the lanes it touched, and a periodic full pass (every
:data:`RELEASE_PASS_INTERVAL` positions) covers lanes that stopped
registering entries — without it an idle lane would
retain its last ``O(window)`` of expired slabs indefinitely.

Snapshot / restore
------------------
:meth:`StreamRuntime.snapshot` / :meth:`StreamRuntime.restore` and
:meth:`EvictionLane.snapshot` / :meth:`EvictionLane.restore` are the
runtime's layers of the cross-layer checkpoint protocol (see
:mod:`repro.runtime.snapshot`): the runtime serialises the stream cursor,
the sweep cursors and the statistics; a lane — one run store — serialises
its window, its hash table — each row with its key's due position
(:meth:`StreamRuntime.dues`), from which restore rebuilds the buckets, so
each key is registered once by construction — and its enumeration
structure (the arena; the object-graph oracle has none), and a store that
has held scan slots its two scan counters (the runs are its rows under its
queries' scan slots).  The runtime's layer is read
in two steps, :meth:`StreamRuntime.parse` (every check, nothing changed)
then :meth:`StreamRuntime.restore`, so an engine can check every section of
a snapshot before it changes anything.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from time import perf_counter as _perf
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as Tup, TypeVar

from repro.cq.schema import Tuple
from repro.runtime.snapshot import SnapshotError
from repro.runtime.statistics import EngineStatistics


#: Positions between full arena-release passes over every lane.
RELEASE_PASS_INTERVAL = 256

_T = TypeVar("_T")

#: Each counter's type, read off its default (``sweep_seconds`` is the float).
_COUNTER_TYPES = {field.name: type(field.default) for field in dataclasses.fields(EngineStatistics)}


def _check_key(key, where: str) -> None:
    """A run-index key is a hashable ``(slot, key)`` pair."""
    try:
        hash(key)
    except TypeError:  # a list, or a list inside
        key = None
    if type(key) is not tuple or len(key) != 2 or type(key[0]) is not int:
        raise SnapshotError(f"{where} holds a key that is not a hashable (slot, key) pair")


def _is_word(value) -> bool:
    """A node id, ``max_start`` or position: an int in ``[0, 2**62)``."""
    return type(value) is int and 0 <= value < 1 << 62


def _cursor(snapshot: Dict[str, object], name: str, low: int) -> int:
    """The runtime section's ``name``, an int in ``[low, 2**62)``, or refused."""
    value = snapshot[name]
    if type(value) is not int or not low <= value < 1 << 62:
        raise SnapshotError(f"runtime {name} {value!r} is not an int in [{low}, 2**62)")
    return value


def _check_entry(entry, scanned: bool) -> None:
    """A lane-table entry is ``(node, max_start)``, or under a scan slot a
    ``((tuple, node), position)`` run, each int in ``[0, 2**62)``."""
    if type(entry) is tuple and len(entry) == 2 and _is_word(entry[1]):
        value = entry[0]
        if not scanned:
            if _is_word(value):
                return
        elif (
            type(value) is tuple and len(value) == 2 and isinstance(value[0], Tuple) and _is_word(value[1])
        ):
            return
    shape = "((tuple, node), position)" if scanned else "(node, max_start)"
    raise SnapshotError(f"the lane table holds {entry!r}, not a {shape} entry")


class EvictionLane:
    """One run store — a ``DS_w``, the run index ``H`` over it and the window
    both are pruned to — shared-sweep ready.  The engine keeps one per
    window, serving every query registered under that window.

    ``hash`` is the lane's run-index table (``(key) -> (value, max_start)``
    pairs); ``ds`` its enumeration structure.  ``release`` and
    ``extend_onto`` are bound once so the per-tuple loops and the sweep never
    branch on the node representation.
    ``lane_id`` is the dense int the owning runtime interned the lane to —
    the id the engines append to expiry buckets.

    A store may also hold *scan slots*: ``scans`` maps each scan slot of its
    queries to an insertion-ordered dict ``seq -> (tuple, node)`` of the
    runs stored there (``None`` while it has none).  Each run is also the
    ``hash`` entry ``(slot, seq) -> ((tuple, node), position)``, and the
    sweep pops a scan-slot key from both, so runs of a slot die in
    insertion order and a dict never holds a dead run.  ``next_seq`` numbers
    the runs and ``nodes_scanned`` counts the stored runs scan probes have
    read.
    """

    __slots__ = (
        "window",
        "ds",
        "hash",
        "active",
        "lane_id",
        "scans",
        "next_seq",
        "nodes_scanned",
        "release",
        "extend_onto",
    )

    def __init__(self, window: int, ds) -> None:
        self.window = window
        self.ds = ds
        self.hash: Dict[Hashable, Tup[object, int]] = {}
        self.active = True
        self.lane_id = -1  # assigned by StreamRuntime.add_lane
        self.scans: Optional[Dict[Hashable, Dict[int, Tup[object, object]]]] = None
        self.next_seq = 0
        self.nodes_scanned = 0
        self.release = ds.release_expired
        self.extend_onto = ds.extend_onto

    def deactivate(self) -> None:
        """Drop the lane's state immediately (unregistration).

        Stale expiry-bucket entries may still reference the lane's id for up
        to a window; the sweep skips ids that no longer resolve to an active
        lane instead of scrubbing every bucket eagerly.  Clearing the bound
        methods matters: they would otherwise pin the enumeration structure.
        """
        self.active = False
        self.hash.clear()
        self.ds = None
        self.scans = None
        self.release = None
        self.extend_onto = None

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self, dues: Dict[Hashable, int]) -> Dict[str, object]:
        """The lane's state: window, hash table — one ``(key, value, due)``
        row per entry, ``due`` its key's pending expiry position from
        ``dues`` — and enumeration structure, plus, once the store has held
        scan slots, a ``scan`` section with ``next_seq`` and
        ``nodes_scanned``.

        Requires a snapshotable enumeration structure — the arena-backed
        ``DS_w``; the object-graph oracle (``arena=False``) has no explicit
        state to capture and is rejected with a clear error.
        """
        ds = self.ds
        ds_snapshot = getattr(ds, "snapshot", None)
        if ds_snapshot is None:
            raise ValueError(
                "snapshot requires the arena-backed enumeration structure "
                "(construct the engine with arena=True)"
            )
        snapshot = {
            "window": self.window,
            "hash": [(key, value, dues[key]) for key, value in self.hash.items()],
            "ds": ds_snapshot(),
        }
        if self.scans is not None or self.next_seq:
            snapshot["scan"] = {"next_seq": self.next_seq, "nodes_scanned": self.nodes_scanned}
        return snapshot

    def restore(
        self, snapshot: Dict[str, object], position: int, swept_upto: int, scan_slots: Iterable[int] = ()
    ) -> Dict[int, List[Hashable]]:
        """Replace the lane's state with ``snapshot``'s, in place, and return
        its keys grouped by due position (what the runtime's buckets hold).
        The engine opens the lane at the snapshot's window, on an arena.

        ``position``/``swept_upto`` are the restored runtime's cursors,
        ``scan_slots`` the store's (its queries'), each one's runs rebuilt
        from its rows oldest first.  Keys must be distinct hashable ``(slot,
        key)`` pairs, entries ``(node, max_start)`` — under a scan slot
        ``(slot, seq)`` and ``((tuple, node), position)`` — with ints in
        ``[0, 2**62)``, anchored no later than ``position``, each node
        allocated and a hash entry's anchor its node's ``max_start`` (a live
        entry on a released node fails the next write onto it); each due an
        int in ``(swept_upto, max_start + window + 1]`` (a swept due never
        pops, a later one outlives the window); the scan counters ints in
        ``[0, 2**62)``, ``next_seq`` above every run's seq.
        """
        window = self.window
        runs: Dict[int, list] = {slot: [] for slot in scan_slots}
        table = {}
        pending: Dict[int, List[Hashable]] = {}
        rows = list(snapshot["hash"])
        for row in rows:
            if type(row) is not tuple or len(row) != 3:
                raise SnapshotError(f"the lane table holds {row!r}, not a (key, entry, due) row")
            key, entry, due = row
            _check_key(key, "the lane table")
            scanned = runs.get(key[0])
            _check_entry(entry, scanned is not None)
            if entry[1] > position or not (_is_word(due) and swept_upto < due <= entry[1] + window + 1):
                raise SnapshotError(
                    f"key {key!r} anchored at {entry[1]} (position {position}) is due at {due!r}, "
                    f"not an int in ({swept_upto}, {entry[1] + window + 1}]"
                )
            if scanned is not None:
                if not _is_word(key[1]):
                    raise SnapshotError(f"scan slot {key[0]} holds run {key[1]!r}, not a sequence number")
                scanned.append((key[1], entry[0]))
            table[key] = entry
            pending.setdefault(due, []).append(key)
        if len(table) != len(rows):
            raise SnapshotError("the lane table holds a key twice")
        section = snapshot.get("scan") or {"next_seq": 0, "nodes_scanned": 0}
        next_seq, read = section["next_seq"], section["nodes_scanned"]
        if not _is_word(next_seq) or not _is_word(read):
            raise SnapshotError(f"scan counters next_seq={next_seq!r}, nodes_scanned={read!r}: not ints in [0, 2**62)")
        if any(seq >= next_seq for slot_runs in runs.values() for seq, _ in slot_runs):
            raise SnapshotError(f"next_seq {next_seq} does not exceed every stored run's sequence number")
        self.ds.restore(snapshot["ds"])
        recorded = self.ds.allocated_max_start
        for key, (value, anchor) in table.items():
            if key[0] in runs:
                if recorded(value[1]) is None:
                    raise SnapshotError(f"scan run {key!r} names node {value[1]}, which is not allocated")
            elif recorded(value) != anchor:
                raise SnapshotError(f"key {key!r} is anchored at {anchor}, its node {value} is not")
        self.hash = table
        self.scans = {slot: dict(sorted(slot_runs)) for slot, slot_runs in runs.items()} if runs else None
        self.next_seq, self.nodes_scanned = next_seq, read
        return pending

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"{type(self).__name__}(window={self.window}, |H|={len(self.hash)}, {state})"


class SparseBatch(list):
    """The tuples of one engine batch that some registered query may read.

    The batch covers ``span`` consecutive stream positions; ``self[i]`` sits
    at offset ``offsets[i]`` (strictly increasing) from the first of them.
    The positions in between held tuples of relations the engine does not
    watch (:meth:`MultiQueryEngine.watched_relations
    <repro.multi.engine.MultiQueryEngine.watched_relations>`) — tuples that
    would change nothing but the position, so they were never built.
    ``offsets is None`` means no gaps: the batch is the plain list of its
    tuples, which is also how every engine reads a plain list.
    """

    __slots__ = ("offsets", "span")

    def __init__(
        self,
        tuples: Iterable[object] = (),
        offsets: Optional[Sequence[int]] = None,
        span: Optional[int] = None,
    ) -> None:
        super().__init__(tuples)
        self.offsets = offsets
        self.span = len(self) if span is None else span


class StreamRuntime:
    """The per-stream core of an engine: position, sweep, batching.

    One runtime serves one engine (which may own one lane or thousands).
    Engines advance the position with :meth:`advance`, call :meth:`sweep`
    once per sweeping update, register new keys into :attr:`buckets`
    (inlined, see the module docstring for the flat-pair protocol), and
    route their ``process_many`` through :meth:`drive_batch` so the
    one-sweep-per-batch policy exists exactly once.
    """

    __slots__ = (
        "position",
        "evicted",
        "stats",
        "count_stats",
        "buckets",
        "obs",
        "obs_arm",
        "obs_next",
        "obs_sweep_sampled",
        "_swept_upto",
        "_next_release_pass",
        "_lanes",
        "_next_lane_id",
    )

    def __init__(self) -> None:
        self.position = -1
        self.evicted = 0
        self.stats = EngineStatistics()
        # Mirror of the owning engine's ``collect_stats``: the sweep's
        # ``sweeps``/``sweep_evicted`` counters are gated on it exactly like
        # every other ``EngineStatistics`` counter (fast mode pays no
        # per-sweep attribute writes).  The engines set it at construction.
        self.count_stats = False
        # The attached repro.obs.Observer, or None.  Every observability hook
        # below hides behind an ``obs is None`` test at batch/sweep/slab
        # granularity — the per-candidate loops never see it, which is the
        # disabled-path overhead contract (tests/test_obs.py counts it).
        self.obs = None
        # Period-sampling callback: when an observer is attached, ``advance``
        # calls this at each sampled position (begin phase: stamp the clock)
        # and again one position later (finish phase: the interval is the
        # sampled update's latency).  See ``Observer._wrap_entry``.
        self.obs_arm = None
        # The absolute position at which ``advance`` calls ``obs_arm`` next
        # (-1 = never).  Maintained by the observer's period clock, so the
        # per-position cost is one slot load and one int compare — no modulo,
        # no None test — whether or not an observer is attached.
        self.obs_next = -1
        # True only between the begin and finish phases of a sampled period;
        # the sweep keys its (timed, slab-accounting) sampled branch off this
        # single flag instead of re-deriving the sampling grid.
        self.obs_sweep_sampled = False
        # Absolute expiry position -> flat [lane_id, key, ...] pairs.  Keys
        # always register (and re-arm) in strictly future buckets (a storable
        # entry satisfies max_start >= position - lane.window), so the sweep
        # can pop the dense range of newly due positions instead of scanning
        # every bucket key.
        self.buckets: Dict[int, List[object]] = {}
        self._swept_upto = -1
        self._next_release_pass = 0
        # Keyed by the dense interned lane id, which is also what the bucket
        # pairs carry — drop_lane stays O(1) (unregistration latency must
        # be independent of how many lanes are registered) and the sweep
        # resolves ids with one small-int dict lookup.
        self._lanes: Dict[int, EvictionLane] = {}
        self._next_lane_id = 0

    # ------------------------------------------------------------------ lanes
    def add_lane(self, lane: EvictionLane) -> EvictionLane:
        """Intern ``lane`` to a dense id and track it for release/reporting.

        Ids are never reused: a stale bucket pair of a dropped lane must
        not resolve to a different lane later (the one-slot-per-ever-
        registered-lane residue this avoids is the dict entry removed by
        :meth:`drop_lane`, i.e. nothing).
        """
        lane_id = self._next_lane_id
        self._next_lane_id = lane_id + 1
        lane.lane_id = lane_id
        self._lanes[lane_id] = lane
        return lane

    def drop_lane(self, lane: EvictionLane) -> None:
        """Deactivate ``lane`` and stop tracking it (unregistration, O(1))."""
        lane.deactivate()
        self._lanes.pop(lane.lane_id, None)

    def lanes(self) -> Sequence[EvictionLane]:
        return tuple(self._lanes.values())

    # --------------------------------------------------------------- position
    def advance(self) -> int:
        """Move to the next stream position and return it."""
        position = self.position + 1
        self.position = position
        if position == self.obs_next:
            self.obs_arm()
        return position

    def advance_by(self, count: int) -> int:
        """Cross ``count`` positions whose tuples no registered query reads.

        Leaves the runtime exactly as ``count`` missed updates with the sweep
        deferred would: the position moved, ``tuples_processed`` counted, the
        observer's period clock fired at every grid position inside the gap.
        The buckets that fell due are popped by the batch's closing
        :meth:`sweep_upto`, which walks the crossed range like any other.
        """
        target = self.position + count
        clock = self.obs_next
        while self.position < clock <= target:
            self.position = clock
            self.obs_arm()
            clock = self.obs_next
        self.position = target
        if self.count_stats:
            self.stats.tuples_processed += count
        return target

    # ------------------------------------------------------------ registration
    def register_entry(self, lane: EvictionLane, key: Hashable, expiry_position: int) -> None:
        """Register ``lane``'s new ``key`` for eviction at ``expiry_position``.

        The reference implementation of one ``(lane, key, expiry)``
        registration — two flat appends — which ``fire`` inlines for a key
        it creates, hash and scan slots alike (keep those copies in sync with
        this).  The sweep re-arms a key written since; nothing registers it
        again.
        """
        expiry = self.buckets.get(expiry_position)
        if expiry is None:
            self.buckets[expiry_position] = [lane.lane_id, key]
        else:
            expiry.append(lane.lane_id)
            expiry.append(key)

    # ------------------------------------------------------------------ sweep
    def sweep(self, position: int) -> None:
        """The per-tuple eviction sweep (the only implementation).

        Steady state — exactly one new bucket became due — pops that bucket;
        a gap (updates ran with the sweep deferred, or the position was
        reseated) falls back to the batched range sweep so no bucket is ever
        skipped for good.  Also runs the periodic full arena-release pass.
        The stride-2 loop over the flat bucket allocates no per-entry
        objects.
        """
        if position == self._swept_upto + 1 and not self.obs_sweep_sampled:
            self._swept_upto = position
            expired = self.buckets.pop(position, None)
            if expired:
                # The per-tuple path keeps its own copy of the drain loop:
                # calling ``_drain`` per bucket costs a call per tuple (> 2 %
                # of ``process`` on a one-leaf workload).
                evicted = 0
                touched = set()
                lanes = self._lanes
                buckets = self.buckets
                for index in range(0, len(expired), 2):
                    lane_id = expired[index]
                    lane = lanes.get(lane_id)
                    if lane is None or not lane.active:
                        continue
                    touched.add(lane)
                    key = expired[index + 1]
                    pair = lane.hash.get(key)
                    if pair is None:
                        continue  # a run its leaving query's scan slot took along
                    due = pair[1] + lane.window + 1
                    if due > position:
                        # Written since it registered: re-armed where its
                        # last write leaves the window.
                        rearm = buckets.get(due)
                        if rearm is None:
                            buckets[due] = [lane_id, key]
                        else:
                            rearm.append(lane_id)
                            rearm.append(key)
                        continue
                    del lane.hash[key]
                    evicted += 1
                    scans = lane.scans
                    if scans is not None:
                        runs = scans.get(key[0])
                        if runs is not None:
                            del runs[key[1]]
                self.evicted += evicted
                if self.count_stats:
                    stats = self.stats
                    stats.sweeps += 1
                    stats.sweep_evicted += evicted
                for lane in touched:
                    lane.release(position)
            if position >= self._next_release_pass:
                self.release_lanes(position)
        elif position > self._swept_upto:
            # A gap — or a position the observer's period clock sampled: the
            # range sweep carries the timing, released-slab accounting and
            # ``on_sweep`` span, so the steady-state loop above stays free of them.
            self.sweep_upto(position)

    def _drain(self, due: Iterable[List[object]], position: int, touched: set) -> int:
        """Retire the ``lane_id, key`` pairs of the popped buckets ``due`` at
        ``position``; returns how many entries were evicted.

        A key of an active lane goes if it is out of the window now — and a
        scan-slot key's run from its scan slot with it — and is re-armed at
        ``max_start + window + 1`` of its last write otherwise (always past
        ``position``, so never into ``due``).  Pairs of one lane tend to sit
        together, so the lane is looked up — and added to ``touched`` — once
        per run of same-lane pairs, not per pair.
        """
        evicted = 0
        lanes = self._lanes
        buckets = self.buckets
        run_id = None
        live = False
        for expired in due:
            for index in range(0, len(expired), 2):
                lane_id = expired[index]
                if lane_id != run_id:
                    run_id = lane_id
                    lane = lanes.get(lane_id)
                    live = lane is not None and lane.active
                    if live:
                        touched.add(lane)
                        table = lane.hash
                        window = lane.window
                        scans = lane.scans
                if not live:
                    continue
                key = expired[index + 1]
                pair = table.get(key)
                if pair is None:
                    continue
                rearm = pair[1] + window + 1
                if rearm > position:
                    bucket = buckets.get(rearm)
                    if bucket is None:
                        buckets[rearm] = [lane_id, key]
                    else:
                        bucket.append(lane_id)
                        bucket.append(key)
                    continue
                del table[key]
                evicted += 1
                if scans is not None:
                    runs = scans.get(key[0])
                    if runs is not None:
                        del runs[key[1]]
        return evicted

    def sweep_upto(self, position: int) -> None:
        """Pop every expiry bucket due at or before ``position`` (batch sweep).

        Iterates the dense range of positions not yet swept, so the cost is
        O(positions advanced since the last sweep), not O(live buckets) —
        unless the range is longer than the buckets pending (a restored
        ``swept_upto`` far behind its position), where it visits those.
        """
        if position <= self._swept_upto:
            return
        obs = self.obs
        start = _perf() if obs is not None else 0.0
        buckets = self.buckets
        positions = range(self._swept_upto + 1, position + 1)
        if len(positions) > len(buckets):
            positions = sorted(due for due in buckets if due <= position)
        due = [expired for expired in map(buckets.pop, positions, repeat(None)) if expired]
        swept = len(due)
        touched = set()
        evicted = self._drain(due, position, touched)
        self._swept_upto = position
        self.evicted += evicted
        if self.count_stats:
            stats = self.stats
            stats.sweeps += swept
            stats.sweep_evicted += evicted
        if obs is not None and swept:
            released = 0
            for lane in touched:
                released += lane.release(position)
            if released:
                obs.on_slab_release(released, position)
            elapsed = _perf() - start
            self.stats.sweep_seconds += elapsed
            obs.on_sweep(position, evicted, elapsed)
        else:
            for lane in touched:
                lane.release(position)
        if position >= self._next_release_pass:
            self.release_lanes(position)

    def release_lanes(self, position: int) -> None:
        """Release expired arena slabs in every active lane.

        Bucket pops release the lanes they touch immediately; this periodic
        full pass (every :data:`RELEASE_PASS_INTERVAL` positions, amortised
        O(lanes / interval) per tuple) covers lanes that stopped registering
        entries.
        """
        self._next_release_pass = position + RELEASE_PASS_INTERVAL
        obs = self.obs
        if obs is None:
            for lane in self._lanes.values():
                if lane.active:
                    lane.release(position)
            return
        released = 0
        for lane in self._lanes.values():
            if lane.active:
                released += lane.release(position)
        if released:
            obs.on_slab_release(released, position)

    # --------------------------------------------------------------- batching
    def drive_batch(
        self,
        tuples: Iterable[object],
        step: Callable[[object], _T],
    ) -> List[_T]:
        """Batched ingestion: one ``step`` per tuple, one sweep per batch.

        ``step`` must process exactly one tuple with its per-tuple sweep
        deferred (the engines pass a closure over ``update(tup, sweep=False)``
        plus their enumeration).  Deferring the sweep to the end of the batch
        only delays memory reclamation, never changes outputs, because expiry
        is re-checked at every hash lookup through the cached ``max_start``.

        A :class:`SparseBatch` with gaps gets one ``step`` per tuple it holds
        and one :meth:`advance_by` per gap; the results line up with the
        tuples it holds.
        """
        obs = self.obs
        start = _perf() if obs is not None else 0.0
        offsets = tuples.offsets if type(tuples) is SparseBatch else None
        if offsets is None:
            results = [step(tup) for tup in tuples]
            span = len(results)
        else:
            span = tuples.span
            results = []
            origin = self.position + 1
            for offset, tup in zip(offsets, tuples):
                gap = origin + offset - self.position - 1
                if gap:
                    self.advance_by(gap)
                results.append(step(tup))
            gap = origin + span - self.position - 1
            if gap:
                self.advance_by(gap)
        self.sweep_upto(self.position)
        if obs is not None:
            obs.on_batch(span, _perf() - start, self.position)
        return results

    # ------------------------------------------------------- snapshot protocol
    def dues(self) -> Dict[int, Dict[Hashable, int]]:
        """Per lane id, each registered key's pending due position: the
        buckets inverted, which is what a lane writes on its table rows.
        A pair whose key has left its table is not read there."""
        dues: Dict[int, Dict[Hashable, int]] = {lane_id: {} for lane_id in self._lanes}
        for expiry_position, entries in self.buckets.items():
            for index in range(0, len(entries), 2):
                keys = dues.get(entries[index])
                if keys is not None:
                    keys[entries[index + 1]] = expiry_position
        return dues

    def snapshot(self) -> Dict[str, object]:
        """The runtime's state: cursors and statistics (the buckets travel
        as the due position on each lane-table row)."""
        return {
            "position": self.position,
            "evicted": self.evicted,
            "swept_upto": self._swept_upto,
            "next_release_pass": self._next_release_pass,
            "stats": dataclasses.asdict(self.stats),
        }

    @staticmethod
    def parse(snapshot: Dict[str, object]) -> Dict[str, object]:
        """Read and check the runtime section of a snapshot, changing
        nothing: what :meth:`restore` then adopts.

        Every counter must have its type, and the cursors must be ints (not
        bools, not strings) in ``[0, 2**62)`` — ``position`` and
        ``swept_upto`` from ``-1``, before the first tuple — with
        ``swept_upto`` not past ``position`` (the sweep would skip the
        buckets of keys registered in between).
        """
        position, swept_upto = _cursor(snapshot, "position", -1), _cursor(snapshot, "swept_upto", -1)
        if swept_upto > position:
            raise SnapshotError(f"runtime swept_upto {swept_upto} is past the position {position}")
        evicted, next_release = _cursor(snapshot, "evicted", 0), _cursor(snapshot, "next_release_pass", 0)
        # An int stands for a float; a counter left out starts from zero.
        counters = dict(snapshot["stats"])
        for name, value in counters.items():
            kind = _COUNTER_TYPES.get(name)
            if kind is None or type(value) is not kind and (kind, type(value)) != (float, int):
                raise SnapshotError(f"statistics {name!r} = {value!r}: no such counter, or not of its type")
        return {
            "position": position,
            "evicted": evicted,
            "swept_upto": swept_upto,
            "next_release_pass": next_release,
            "stats": EngineStatistics(**counters),
        }

    def restore(
        self,
        parsed: Dict[str, object],
        lanes: Sequence[EvictionLane],
        pending: Sequence[Dict[int, List[Hashable]]],
    ) -> None:
        """Replace the runtime's state with what :meth:`parse` read, and
        rebuild the buckets: ``pending[i]`` is what restoring ``lanes[i]``
        returned, its keys grouped by due position, each registered under
        the lane's id."""
        buckets: Dict[int, List[object]] = {}
        for lane, dues in zip(lanes, pending):
            for expiry_position, keys in dues.items():
                flat = buckets.setdefault(expiry_position, [])
                for key in keys:
                    flat += (lane.lane_id, key)
        self.position = parsed["position"]
        self.evicted = parsed["evicted"]
        self._swept_upto = parsed["swept_upto"]
        self._next_release_pass = parsed["next_release_pass"]
        self.stats = parsed["stats"]
        self.buckets = buckets

    # ----------------------------------------------------------- introspection
    def hash_table_size(self) -> int:
        """Total entries across every active lane's run-index table."""
        return sum(len(lane.hash) for lane in self._lanes.values() if lane.active)

    def memory_info(self) -> Dict[str, int]:
        """Enumeration-structure occupancy aggregated across the lanes.

        The same keys as ``DS_w.memory_stats()`` so a single-lane engine
        reports exactly what its structure would; ``arena`` is 1 only when
        every lane is arena-backed (mixed or object-graph setups report 0,
        matching the ``arena`` flag the engines expose) and ``native`` only
        when every lane's hot path runs the C kernel.  ``release_interval``
        is the periodic-release cadence, :data:`RELEASE_PASS_INTERVAL`.
        """
        total = {
            "arena": 1 if self._lanes else 0,
            "native": 1 if self._lanes else 0,
            "slabs": 0,
            "slab_capacity": 0,
            "live_nodes": 0,
            "released_slabs": 0,
            "released_nodes": 0,
            "nodes_created": 0,
            "release_interval": RELEASE_PASS_INTERVAL,
        }
        for lane in self._lanes.values():
            if lane.ds is None:
                continue
            stats = lane.ds.memory_stats()
            if not stats.get("arena"):
                total["arena"] = 0
            if not stats.get("native"):
                total["native"] = 0
            for key in ("slabs", "live_nodes", "released_slabs", "released_nodes", "nodes_created"):
                total[key] += stats[key]
            total["slab_capacity"] = max(total["slab_capacity"], stats["slab_capacity"])
        return total

    def reset_statistics(self) -> None:
        """Zero the operation counters, every store's ``nodes_scanned`` and
        its ``DS_w`` counters."""
        self.stats = EngineStatistics()
        for lane in self._lanes.values():
            lane.nodes_scanned = 0
            ds = lane.ds
            if hasattr(ds, "nodes_created"):
                ds.nodes_created = ds.union_calls = ds.union_copies = 0

    def __repr__(self) -> str:
        return (
            f"StreamRuntime(position={self.position}, lanes={len(self._lanes)}, "
            f"evicted={self.evicted})"
        )

