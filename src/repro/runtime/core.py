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
* when the engine stores an entry it appends the *flat int triple*
  ``lane.lane_id, key, node`` (three plain appends, no per-entry tuple) to
  ``buckets[max_start + lane.window + 1]`` (the absolute position at which
  the entry expires) and calls ``lane.add_ref(node)`` — the lines
  :func:`~repro.runtime.fire.fire` inlines, everything else lives here.
  :meth:`StreamRuntime.register_entry` is the reference implementation;
* the sweep pops due buckets, drops the arena reference exactly once per
  registration, and deletes the hash entry iff it is genuinely out of the
  window *now* (an entry superseded by a younger node was re-registered in a
  later bucket and survives) — and a scan-slot key's run from its scan slot
  with it.

Compact bucket representation
-----------------------------
Lanes are interned to dense small ints at :meth:`StreamRuntime.add_lane`
(``lane.lane_id``), and each expiry bucket is one flat list
``[lane_id, key, node, lane_id, key, node, ...]`` instead of a list of
``(lane, key, node)`` tuples.  Registration therefore allocates *nothing*
beyond the (amortised) list growth — the key object already lives in the
lane's hash table, the node is an arena int — and the steady-state sweep
walks the flat list with a stride-3 index loop, so the dominant steady-state
allocation of the tuple layout (one 3-tuple per stored entry per window) is
gone entirely.

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
the sweep cursors, the statistics and the expiry buckets (lane ids remapped
through a dense snapshot index, because a restored engine assigns fresh lane
ids); a lane — one run store — serialises its window, its hash table and its
enumeration structure (which must expose ``snapshot``/``restore`` — the arena does, the
object-graph oracle does not), and a store with scan slots those as one
more section.  The runtime's layer is read in two steps, :meth:`StreamRuntime.parse`
(every check, nothing changed) then :meth:`StreamRuntime.restore`, so an
engine can check every section of a snapshot before it changes anything.
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
    pairs); ``ds`` its enumeration structure.  The reclamation hooks and
    ``extend_onto`` are bound once so the per-tuple loops and the sweep never
    branch on the node representation (the object-graph ``DS_w`` exposes the
    hooks as no-ops).
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
        "add_ref",
        "drop_ref",
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
        self.add_ref = ds.add_ref
        self.drop_ref = ds.drop_ref
        self.release = ds.release_expired
        self.extend_onto = ds.extend_onto

    def deactivate(self) -> None:
        """Drop the lane's state immediately (unregistration).

        Stale expiry-bucket entries may still reference the lane's id for up
        to a window; the sweep skips ids that no longer resolve to an active
        lane instead of scrubbing every bucket eagerly.  Clearing the bound
        hooks matters: they are bound methods and would otherwise pin the
        enumeration structure until the lane's last expiry bucket is popped.
        """
        self.active = False
        self.hash.clear()
        self.ds = None
        self.scans = None
        self.add_ref = None
        self.drop_ref = None
        self.release = None
        self.extend_onto = None

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> Dict[str, object]:
        """The lane's state (window, hash table, enumeration structure, and
        with scan slots a ``scan`` section: each slot's sequence numbers
        oldest first, ``next_seq`` and ``nodes_scanned``).

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
            "hash": [(key, value) for key, value in self.hash.items()],
            "ds": ds_snapshot(),
        }
        if self.scans is not None:
            snapshot["scan"] = {
                "runs": {slot: list(runs) for slot, runs in self.scans.items()},
                "next_seq": self.next_seq,
                "nodes_scanned": self.nodes_scanned,
            }
        return snapshot

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Replace the lane's state with ``snapshot``'s, in place.

        Table keys must be hashable ``(slot, key)`` pairs, entries
        ``(node, max_start)`` — under a scan slot (one the ``scan`` section
        lists) ``((tuple, node), position)`` runs — and the section must name
        exactly the table's runs, its counters be ints in ``[0, 2**62)`` and
        ``next_seq`` exceed every run's sequence number (a smaller one would
        overwrite live runs).
        """
        if snapshot["window"] != self.window:
            raise ValueError(
                f"snapshot was taken with window {snapshot['window']}, "
                f"this lane has window {self.window}"
            )
        ds_restore = getattr(self.ds, "restore", None)
        if ds_restore is None:
            raise ValueError(
                "restore requires the arena-backed enumeration structure "
                "(construct the engine with arena=True)"
            )
        section = snapshot.get("scan")
        # dict(): a file may hold any container here.
        listed = {} if section is None else dict(section["runs"])
        table = {}
        for key, entry in snapshot["hash"]:
            _check_key(key, "the lane table")
            _check_entry(entry, key[0] in listed)
            table[key] = entry
        scans = None
        next_seq = scanned = 0
        if section is not None:
            scans = {}
            for slot, seqs in listed.items():
                runs = scans[slot] = {}
                for seq in seqs:
                    entry = table.get((slot, seq)) if _is_word(seq) else None
                    if entry is None:
                        raise SnapshotError(
                            f"scan slot {slot!r} names run {seq!r}, which the lane table does not hold"
                        )
                    runs[seq] = entry[0]
            if sum(map(len, scans.values())) != sum(1 for slot, _ in table if slot in scans):
                raise SnapshotError("the lane table holds runs its scan slots do not name")
            next_seq, scanned = section["next_seq"], section["nodes_scanned"]
            if not _is_word(next_seq) or not _is_word(scanned):
                raise SnapshotError(
                    f"scan counters next_seq={next_seq!r}, nodes_scanned={scanned!r}: not ints in [0, 2**62)"
                )
            if any(seq >= next_seq for runs in scans.values() for seq in runs):
                raise SnapshotError(f"next_seq {next_seq} does not exceed every stored run's sequence number")
        ds_restore(snapshot["ds"])
        self.hash = table
        self.scans = scans
        self.next_seq, self.nodes_scanned = next_seq, scanned

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
    once per sweeping update, register stored entries into :attr:`buckets`
    (inlined, see the module docstring for the flat-triple protocol), and
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
        # Absolute expiry position -> flat [lane_id, key, node, ...] triples.
        # Entries always register in strictly future buckets (a storable
        # entry satisfies max_start >= position - lane.window), so the sweep
        # can pop the dense range of newly due positions instead of scanning
        # every bucket key.
        self.buckets: Dict[int, List[object]] = {}
        self._swept_upto = -1
        self._next_release_pass = 0
        # Keyed by the dense interned lane id, which is also what the bucket
        # triples carry — drop_lane stays O(1) (unregistration latency must
        # be independent of how many lanes are registered) and the sweep
        # resolves ids with one small-int dict lookup.
        self._lanes: Dict[int, EvictionLane] = {}
        self._next_lane_id = 0

    # ------------------------------------------------------------------ lanes
    def add_lane(self, lane: EvictionLane) -> EvictionLane:
        """Intern ``lane`` to a dense id and track it for release/reporting.

        Ids are never reused: a stale bucket triple of a dropped lane must
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
    def register_entry(self, lane: EvictionLane, key: Hashable, node: object, expiry_position: int) -> None:
        """Register a stored entry for eviction at ``expiry_position``.

        The reference implementation of the registration protocol — three
        flat appends plus the arena reference — which ``fire`` inlines for
        hash and scan probes alike (keep those copies in sync with this).
        """
        expiry = self.buckets.get(expiry_position)
        if expiry is None:
            self.buckets[expiry_position] = [lane.lane_id, key, node]
        else:
            expiry.append(lane.lane_id)
            expiry.append(key)
            expiry.append(node)
        lane.add_ref(node)

    # ------------------------------------------------------------------ sweep
    def sweep(self, position: int) -> None:
        """The per-tuple eviction sweep (the only implementation).

        Steady state — exactly one new bucket became due — pops that bucket;
        a gap (updates ran with the sweep deferred, or the position was
        reseated) falls back to the batched range sweep so no bucket is ever
        skipped for good.  Also runs the periodic full arena-release pass.
        The stride-3 loop over the flat bucket allocates no per-entry
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
                for index in range(0, len(expired), 3):
                    lane = lanes.get(expired[index])
                    if lane is None or not lane.active:
                        continue
                    key = expired[index + 1]
                    lane.drop_ref(expired[index + 2])
                    touched.add(lane)
                    pair = lane.hash.get(key)
                    # The entry may have been superseded by a younger node
                    # (re-registered in a later bucket) — only drop it if it
                    # is genuinely out of the window now.
                    if pair is not None and position - pair[1] > lane.window:
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
        """Retire the ``lane_id, key, node`` triples of the popped buckets
        ``due`` at ``position``; returns how many entries were evicted.

        Every triple of an active lane drops its arena reference; its entry
        goes only if it is genuinely out of the window now (one superseded by
        a younger node was re-registered in a later bucket and survives),
        and a scan-slot key's run from its scan slot with it.  Triples of one lane
        tend to sit together, so the lane is looked up — and added to
        ``touched`` — once per run of same-lane triples, not per triple.
        """
        evicted = 0
        lanes = self._lanes
        run_id = None
        live = False
        for expired in due:
            for index in range(0, len(expired), 3):
                lane_id = expired[index]
                if lane_id != run_id:
                    run_id = lane_id
                    lane = lanes.get(lane_id)
                    live = lane is not None and lane.active
                    if live:
                        touched.add(lane)
                        drop_ref = lane.drop_ref
                        table = lane.hash
                        window = lane.window
                        scans = lane.scans
                if not live:
                    continue
                key = expired[index + 1]
                drop_ref(expired[index + 2])
                pair = table.get(key)
                if pair is not None and position - pair[1] > window:
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
        O(positions advanced since the last sweep), not O(live buckets).
        """
        if position <= self._swept_upto:
            return
        obs = self.obs
        start = _perf() if obs is not None else 0.0
        due = [
            expired
            for expired in map(self.buckets.pop, range(self._swept_upto + 1, position + 1), repeat(None))
            if expired
        ]
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
    def snapshot(self, lane_index: Dict[int, int]) -> Dict[str, object]:
        """The runtime's state.

        ``lane_index`` maps interned lane ids to the dense indexes the caller
        assigns (the engine's lanes in snapshot order); bucket triples of
        other — or dropped — lanes are left out, the sweep would skip them.
        """
        buckets: Dict[int, List[object]] = {}
        for expiry_position, entries in self.buckets.items():
            flat: List[object] = []
            for index in range(0, len(entries), 3):
                mapped = lane_index.get(entries[index])
                if mapped is not None:
                    flat += (mapped, entries[index + 1], entries[index + 2])
            if flat:
                buckets[expiry_position] = flat
        return {
            "position": self.position,
            "evicted": self.evicted,
            "swept_upto": self._swept_upto,
            "next_release_pass": self._next_release_pass,
            # The cadence is a constant; the key stays because the
            # checkpoint format carries it.
            "release_interval": RELEASE_PASS_INTERVAL,
            "stats": dataclasses.asdict(self.stats),
            "buckets": buckets,
        }

    @staticmethod
    def parse(snapshot: Dict[str, object], lanes: int) -> Dict[str, object]:
        """Read and check the runtime section of a snapshot of ``lanes``
        stores, changing nothing: what :meth:`restore` then adopts.

        Every bucket must still be in the future — an already-swept expiry
        position would leak its entries (and their refcounts) forever — and
        hold whole ``(lane index, (slot, key), node)`` triples naming one of
        the snapshot's lanes; every counter must have its type; and the
        release-pass cadence must be :data:`RELEASE_PASS_INTERVAL`.
        """
        if snapshot["release_interval"] != RELEASE_PASS_INTERVAL:
            raise SnapshotError(
                f"release pass interval {snapshot['release_interval']!r}: this build "
                f"releases every {RELEASE_PASS_INTERVAL} positions"
            )
        swept_upto = int(snapshot["swept_upto"])
        # An int stands for a float; a counter left out starts from zero.
        counters = dict(snapshot["stats"])
        for name, value in counters.items():
            kind = _COUNTER_TYPES.get(name)
            if kind is None or type(value) is not kind and (kind, type(value)) != (float, int):
                raise SnapshotError(f"statistics {name!r} = {value!r}: no such counter, or not of its type")
        buckets: Dict[int, List[object]] = {}
        # dict(): a file may hold any container here, and only a mapping has items().
        for expiry_position, entries in dict(snapshot["buckets"]).items():
            expiry_position = int(expiry_position)
            if expiry_position <= swept_upto:
                raise ValueError(
                    f"cannot restore expiry bucket {expiry_position}: the snapshot "
                    f"was swept up to {swept_upto}"
                )
            if len(entries) % 3:
                raise ValueError(f"expiry bucket {expiry_position} does not hold whole triples")
            flat = buckets[expiry_position] = list(entries)
            for index in flat[0::3]:
                if type(index) is not int or not 0 <= index < lanes:
                    raise KeyError(f"expiry bucket {expiry_position} names lane {index!r}, not a restored one")
            for key, node in zip(flat[1::3], flat[2::3]):
                _check_key(key, f"expiry bucket {expiry_position}")
                if type(node) is not int or not 0 <= node < 1 << 62:
                    raise SnapshotError(f"expiry bucket {expiry_position} names node {node!r}")
        return {
            "position": int(snapshot["position"]),
            "evicted": int(snapshot["evicted"]),
            "swept_upto": swept_upto,
            "next_release_pass": int(snapshot["next_release_pass"]),
            "stats": EngineStatistics(**counters),
            "buckets": buckets,
        }

    def restore(self, parsed: Dict[str, object], lanes_by_index: Sequence[EvictionLane]) -> None:
        """Replace the runtime's state with what :meth:`parse` read.

        ``lanes_by_index`` positions must mirror the ``lane_index`` mapping
        the snapshot was taken with.  No arena references are taken here: the
        lanes' enumeration-structure snapshots carry their refcounts.
        """
        lane_ids = [lane.lane_id for lane in lanes_by_index]
        for flat in parsed["buckets"].values():
            flat[0::3] = [lane_ids[index] for index in flat[0::3]]
        self.position = parsed["position"]
        self.evicted = parsed["evicted"]
        self._swept_upto = parsed["swept_upto"]
        self._next_release_pass = parsed["next_release_pass"]
        self.stats = parsed["stats"]
        self.buckets = parsed["buckets"]

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

