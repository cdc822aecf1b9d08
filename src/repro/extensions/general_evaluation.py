"""Streaming evaluation of PCEA with arbitrary binary predicates.

Algorithm 1 (Section 5) hashes partial runs on equality keys, which is what
makes its update time independent of the number of live runs.  When a
transition carries a *non-equality* predicate (an inequality, a similarity
join, an arbitrary callable) no such key exists; the paper leaves this case
open (Section 6).

:class:`GeneralStreamingEvaluator` is the pragmatic fallback: it keeps the same
factorised run representation (the ``DS_w`` nodes of Section 5, so the
enumeration phase is still output-linear), but during the update phase it scans
the live nodes of every source state and filters them with the binary
predicate.  Its update time is therefore ``O(candidates · live_nodes)`` —
matching the "update time linear in the data" behaviour of the θ-join engines
discussed in the related work — while producing exactly the same outputs as
Algorithm 1 whenever both apply.

Runtime parity
--------------
This evaluator runs on the same :class:`~repro.runtime.StreamRuntime` core as
the hashed engines (it is a single :class:`~repro.runtime.EvictionLane`, like
:class:`~repro.core.evaluation.StreamingEvaluator`):

* **dispatch** — transitions are probed through the compile-once
  :class:`~repro.core.dispatch.TransitionDispatchIndex` (``indexed=False``
  restores the full per-tuple scan), so tuples of irrelevant relations cost
  one dict lookup instead of ``O(|Δ|)`` predicate evaluations;
* **eviction** — live runs are stored in the lane's table keyed by
  ``(source state id, sequence number)`` with the run's newest position as
  the expiry anchor, and reclaimed by the runtime's shared bucket sweep: a
  run whose newest tuple is older than ``w`` can never contribute an
  in-window output again, because outputs are constrained through
  ``min(ν) >= i - w`` and ``min(ν) <=`` every position of the run.  The scan
  re-checks ``ds.expired`` before touching a stored node, so entries whose
  arena slab was already released read as expired and are skipped;
* **batching / statistics / memory** — ``process_many`` rides the runtime's
  batch driver, and ``collect_stats`` / ``memory_info`` / ``dispatch_info``
  mirror the other engines (the CLI ``--stats`` output is identical across
  all three modes).

Per-state ring buffers
----------------------
The per-state index over live runs is a fixed-stride ring buffer of sequence
numbers (:class:`_SeqRing`, an ``array('q')`` circle with absolute
head/tail cursors), not a periodically-compacted Python list.  The crucial
structural fact: runs of one state die in insertion order — each ``(state,
seq)`` entry is stored exactly once with its stream position as the expiry
anchor, positions only grow, and the shared sweep pops expiry buckets in
position order — so expiry is strictly FIFO per state.  The sweep *drives*
the ring directly through the lane's ``on_evict`` hook: evicting ``(state,
seq)`` advances that state's head past every leading dead entry, so the scan
never iterates garbage and the old ``O(live)`` compaction pass (and its
``_COMPACT_INTERVAL`` tuning constant) is gone.  ``ring_capacity`` sets the
initial per-state capacity (a constructor knob; rings grow by doubling and
``memory_info`` reports their occupancy).
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple as Tup

from repro.core.arena import ArenaDataStructure
from repro.core.datastructure import DataStructure
from repro.core.dispatch import TransitionDispatchIndex, member_order
from repro.core.evaluation import NodeRef
from repro.core.pcea import PCEA
from repro.cq.schema import Tuple
from repro.runtime import EvictionLane, RuntimeBackedEngine, StreamRuntime
from repro.runtime.snapshot import SNAPSHOT_VERSION, SnapshotError, check_snapshot_header, stable_signature
from repro.valuation import Valuation


State = Hashable

#: Default initial per-state ring-buffer capacity (slots; rings double on
#: overflow, so this only sets the growth starting point).
DEFAULT_RING_CAPACITY = 64

#: Ring-head advance reads sequence numbers in batched chunks of up to this
#: many (one ``unpack_from`` call instead of one boxed ``array`` element read
#: each); small, because most sweeps advance a head by only a slot or two and
#: over-reading past the first live entry is wasted work.
_SEQ_CHUNK = 8

#: Cached per-length unpackers for the chunked reads (index = run length).
_UNPACK_SEQS = [struct.Struct(f"{n}q").unpack_from for n in range(_SEQ_CHUNK + 1)]


class _SeqRing:
    """A fixed-stride ring of sequence numbers with absolute cursors.

    ``buf`` is an ``array('q')`` whose length is a power of two; ``head`` and
    ``tail`` are absolute (monotonic) counters, so the live slice is
    ``buf[i & mask] for i in range(head, tail)`` and the ring is full when
    ``tail - head == len(buf)``.  Appending into a full ring reallocates at
    double capacity, copying the live entries in order.
    """

    __slots__ = ("buf", "mask", "head", "tail")

    def __init__(self, capacity: int) -> None:
        size = 1
        while size < capacity:
            size <<= 1
        self.buf = array("q", bytes(8 * size))
        self.mask = size - 1
        self.head = 0
        self.tail = 0

    def append(self, seq: int) -> None:
        buf = self.buf
        mask = self.mask
        tail = self.tail
        if tail - self.head > mask:  # full: grow by doubling, preserving order
            grown = array("q", bytes(16 * (mask + 1)))
            for index in range(self.head, tail):
                grown[index - self.head] = buf[index & mask]
            self.buf = buf = grown
            self.mask = mask = len(grown) - 1
            self.tail = tail = tail - self.head
            self.head = 0
        buf[tail & mask] = seq
        self.tail = tail + 1

    def __len__(self) -> int:
        return self.tail - self.head

    def live(self) -> List[int]:
        """The live sequence numbers, oldest first (snapshot/introspection)."""
        buf = self.buf
        mask = self.mask
        return [buf[index & mask] for index in range(self.head, self.tail)]

    def __repr__(self) -> str:
        return f"_SeqRing(live={len(self)}, capacity={self.mask + 1})"


class GeneralStreamingEvaluator(RuntimeBackedEngine):
    """Sliding-window evaluation of a PCEA whose predicates may be arbitrary.

    Parameters
    ----------
    pcea:
        The automaton; binary predicates only need the boolean
        ``holds(earlier, later)`` interface.
    window:
        Sliding-window size ``w``; outputs ``ν`` satisfy ``i - min(ν) <= w``.
    arena:
        With ``True`` (default) partial runs live in the arena-backed
        :class:`~repro.core.arena.ArenaDataStructure`; the shared eviction
        sweep additionally releases expired slabs, so the enumeration
        structure is window-bounded here too.  ``False`` restores the
        object-graph ``DS_w``.
    indexed:
        With ``False`` every transition is probed for every tuple (the
        pre-dispatch behaviour, kept for ablation / differential testing).
    collect_stats:
        With ``False`` the per-tuple operation counters are skipped.  The
        ``nodes_scanned`` attribute (the engine's signature linear-in-data
        cost) is maintained regardless, as it always was.
    ring_capacity:
        Initial capacity (slots) of each per-state sequence ring
        (:data:`DEFAULT_RING_CAPACITY` by default; rings grow by doubling).
    kernel:
        Record-operation backend for the arena hot path (``"python"`` /
        ``"native"`` / ``"auto"``; ``None`` defers to ``REPRO_KERNEL`` then
        auto-detection — :mod:`repro.core.kernel`).  Ignored with
        ``arena=False``.
    """

    def __init__(
        self,
        pcea: PCEA,
        window: int,
        arena: bool = True,
        indexed: bool = True,
        collect_stats: bool = True,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        kernel: Optional[str] = None,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be at least 1 slot")
        self.pcea = pcea
        self.window = window
        self.ds = ArenaDataStructure(window, kernel=kernel) if arena else DataStructure(window)
        self._runtime = StreamRuntime()
        self._lane = self._runtime.add_lane(EvictionLane(window, self.ds))
        # The lane table maps (source state id, sequence number) to
        # ``((stored tuple, node), stored position)`` — the pair's second
        # element is the expiry anchor the shared sweep checks, so a run is
        # reclaimed exactly when its newest position leaves the window.
        self._hash: Dict[Tup[int, int], Tup[Tup[Tuple, NodeRef], int]] = self._lane.hash
        if indexed:
            self._dispatch = pcea.dispatch_index()
        else:
            self._dispatch = TransitionDispatchIndex(
                pcea.transitions, indexed=False, final=pcea.final
            )
        # Per-state rings of live sequence numbers (FIFO by the expiry
        # argument in the module docstring); the sweep advances the heads
        # through the lane's eviction hook.
        self._rings: Dict[int, _SeqRing] = {}
        self._ring_capacity = ring_capacity
        self._next_seq = 0
        self._lane.on_evict = self._on_evict
        self._count_stats = collect_stats
        self._runtime.count_stats = collect_stats
        self.nodes_scanned = 0
        self._plan_for = self._dispatch.plan_for

    # -------------------------------------------------------------- main loop
    def process(self, tup: Tuple) -> List[Valuation]:
        final_nodes = self.update(tup)
        return list(self.enumerate_outputs(final_nodes))

    def run(self, stream: Iterable[Tuple], collect: bool = True) -> Dict[int, List[Valuation]]:
        results: Dict[int, List[Valuation]] = {}
        for tup in stream:
            outputs = self.process(tup)
            if collect:
                results[self.position] = outputs
        return results

    def process_many(self, tuples: Sequence[Tuple]) -> List[List[Valuation]]:
        """Batched ingestion: one shared-runtime sweep per batch.

        Semantically identical to ``[self.process(t) for t in tuples]`` (the
        scan re-checks expiry per stored run, so deferring the sweep only
        delays reclamation); the one-sweep-per-batch policy is the runtime's
        :meth:`~repro.runtime.StreamRuntime.drive_batch`.
        """
        runtime = self._runtime
        results, enumerated = runtime.drive_enumerating_batch(
            tuples, self.update, self.ds.enumerate
        )
        if self._count_stats and enumerated:
            runtime.stats.outputs_enumerated += enumerated
        return results

    # --------------------------------------------------------------- eviction
    def _on_evict(self, key: Tup[int, int]) -> None:
        """Sweep hook: advance the state's ring head past dead entries.

        Called by the shared sweep for every ``(state, seq)`` entry it
        genuinely evicts.  Expiry is FIFO per state, so the dead entries are
        exactly the leading ones; advancing past *all* leading misses (not
        just ``seq``) keeps the ring correct even across deferred batched
        sweeps that evict several runs of one state at once.
        """
        ring = self._rings.get(key[0])
        if ring is None:
            return
        state_id = key[0]
        hash_table = self._hash
        buf = ring.buf
        mask = ring.mask
        head = ring.head
        tail = ring.tail
        unpackers = _UNPACK_SEQS
        while head < tail:
            # Batched record read: one ``unpack_from`` per contiguous chunk
            # (bounded by the buffer wrap point) instead of one boxed
            # ``array`` element read per dead entry.
            start = head & mask
            run = tail - head
            if run > _SEQ_CHUNK:
                run = _SEQ_CHUNK
            wrap = mask + 1 - start
            if run > wrap:
                run = wrap
            for seq in unpackers[run](buf, start * 8):
                if (state_id, seq) in hash_table:
                    ring.head = head
                    return
                head += 1
        ring.head = head

    # ------------------------------------------------------------ update phase
    def update(self, tup: Tuple, sweep: bool = True) -> List[NodeRef]:
        runtime = self._runtime
        position = runtime.advance()
        if sweep:
            runtime.sweep(position)
        ds = self.ds
        ds_expired = ds.expired
        hash_table = self._hash
        rings = self._rings
        created: List[Tup[int, bool, NodeRef]] = []
        scanned = 0
        # One unary per predicate group (all members are pred_key-equal, so
        # the group verdict is each member's verdict), then the held
        # members' ring scans in canonical transition order.  The scans read
        # only state stored by *previous* tuples, so deciding all verdicts up
        # front cannot change any scan's view — ``created`` (and hence node
        # allocation, storage and snapshots) does not depend on plan order.
        plan = self._plan_for(tup)
        stats = None
        if self._count_stats:
            stats = runtime.stats
            stats.tuples_processed += 1
            stats.transitions_scanned += plan.total
            stats.predicate_evaluations += plan.total
        held: List = []
        for group in plan.groups:
            if group.accepts(tup):
                held.extend(group.members)
        for family in plan.families:
            held.extend(family.held(tup).members)
        if len(held) > 1:
            held.sort(key=member_order)
        for compiled in held:
            if not compiled.joins:  # initial transition: no sources to join
                node = ds.extend(compiled.labels, position, [])
                if stats is not None:
                    stats.transitions_fired += 1
                    stats.nodes_created += 1
                created.append((compiled.target_id, compiled.is_final, node))
                continue
            per_source: List[List[NodeRef]] = []
            feasible = True
            for _, source_id, predicate in compiled.joins:
                compatible: List[NodeRef] = []
                ring = rings.get(source_id)
                if ring is not None and ring.head < ring.tail:
                    holds = predicate.holds
                    buf = ring.buf
                    mask = ring.mask
                    for index in range(ring.head, ring.tail):
                        pair = hash_table.get((source_id, buf[index & mask]))
                        if pair is None:
                            continue  # evicted between hook runs (deferred sweep)
                        stored_tuple, node = pair[0]
                        scanned += 1
                        if ds_expired(node, position):
                            continue
                        if holds(stored_tuple, tup):
                            compatible.append(node)
                if not compatible:
                    feasible = False
                    break
                per_source.append(compatible)
            if not feasible:
                continue
            # Union the compatible runs of each source into one node, then take
            # the product — the same factorisation as Algorithm 1, built per
            # tuple instead of maintained per key.  Every stored node is a
            # product node (no union links), so ``DS_w.union`` applies.
            children: List[NodeRef] = []
            for compatible in per_source:
                union_node = compatible[0]
                for node in compatible[1:]:
                    union_node = ds.union(union_node, node)
                    if stats is not None:
                        stats.unions += 1
                children.append(union_node)
            node = ds.extend(compiled.labels, position, children)
            if stats is not None:
                stats.transitions_fired += 1
                stats.nodes_created += 1
            created.append((compiled.target_id, compiled.is_final, node))

        self.nodes_scanned += scanned
        if stats is not None:
            stats.hash_lookups += scanned

        # Store the new runs: lane table + per-state ring + one shared
        # expiry-bucket registration each (newest position anchors the
        # expiry, exactly the old deque eviction's timing; the flat-triple
        # protocol is StreamRuntime.register_entry, inlined).
        final_nodes: List[NodeRef] = []
        if created:
            lane = self._lane
            lane_id = lane.lane_id
            buckets = runtime.buckets
            add_ref = lane.add_ref
            ring_capacity = self._ring_capacity
            expiry_position = position + self.window + 1
            expiry = buckets.get(expiry_position)
            if expiry is None:
                expiry = buckets[expiry_position] = []
            for state_id, is_final, node in created:
                seq = self._next_seq
                self._next_seq = seq + 1
                key = (state_id, seq)
                hash_table[key] = ((tup, node), position)
                if stats is not None:
                    stats.hash_updates += 1
                ring = rings.get(state_id)
                if ring is None:
                    ring = rings[state_id] = _SeqRing(ring_capacity)
                ring.append(seq)
                expiry.append(lane_id)
                expiry.append(key)
                expiry.append(node)
                add_ref(node)
                if is_final:
                    final_nodes.append(node)
        return final_nodes

    # ------------------------------------------------------- enumeration phase
    def enumerate_outputs(self, final_nodes: Sequence[NodeRef]) -> Iterator[Valuation]:
        count_stats = self._count_stats
        stats = self._runtime.stats
        position = self.position
        for node in final_nodes:
            for valuation in self.ds.enumerate(node, position):
                if count_stats:
                    stats.outputs_enumerated += 1
                yield valuation

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> Dict[str, object]:
        """The engine's complete evaluation state (see :mod:`repro.runtime.snapshot`).

        Picklable and encodable as one wire-codec frame; restorable into a freshly
        constructed engine evaluating the same automaton with the same
        window (verified through the dispatch-index signature).
        """
        lane = self._lane
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": "general",
            "window": self.window,
            "dispatch_signature": stable_signature(self._dispatch.signature()),
            "runtime": self._runtime.snapshot({lane.lane_id: 0}),
            "lane": lane.snapshot(),
            "rings": {state_id: ring.live() for state_id, ring in self._rings.items()},
            "next_seq": self._next_seq,
            "nodes_scanned": self.nodes_scanned,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt ``snapshot``'s state; evaluation then continues bit-identically.

        The engine must have been constructed for the same automaton and
        window (and with ``arena=True``); everything else — position, stored
        runs, arena slabs, rings, statistics — is replaced.
        """
        check_snapshot_header(snapshot, "general")
        if snapshot["window"] != self.window:
            raise SnapshotError(
                f"snapshot was taken with window {snapshot['window']}, "
                f"this engine has window {self.window}"
            )
        if stable_signature(self._dispatch.signature()) != snapshot["dispatch_signature"]:
            raise SnapshotError(
                "snapshot was taken from an engine with a different automaton "
                "(dispatch-index signatures differ)"
            )
        # Bind every section before mutating: a truncated snapshot raises
        # before any state is touched, never after a half-restore.
        try:
            lane_snap = snapshot["lane"]
            runtime_snap = snapshot["runtime"]
            ring_snaps = snapshot["rings"]
            next_seq = int(snapshot["next_seq"])
            nodes_scanned = int(snapshot["nodes_scanned"])
        except KeyError as exc:
            raise SnapshotError(f"snapshot is missing the {exc} section") from exc
        self._lane.restore(lane_snap)
        self._runtime.restore(runtime_snap, [self._lane])
        rings: Dict[int, _SeqRing] = {}
        for state_id, live in dict(ring_snaps).items():  # dict(): as in StreamRuntime.restore
            ring = _SeqRing(max(self._ring_capacity, len(live)))
            for seq in live:
                ring.append(seq)
            rings[int(state_id)] = ring
        self._rings = rings
        self._next_seq = next_seq
        self.nodes_scanned = nodes_scanned

    # ------------------------------------------------------------ introspection
    def live_run_count(self) -> int:
        """Number of live partial runs currently stored (benchmark instrumentation).

        The same quantity as the inherited ``hash_table_size`` — each stored
        run is one lane-table entry — kept under this engine's historical
        name.
        """
        return len(self._hash)

    def memory_info(self) -> Dict[str, int]:
        """Runtime memory info plus the per-state ring-buffer occupancy."""
        info = self._runtime.memory_info()
        info["ring_capacity"] = self._ring_capacity
        info["ring_states"] = len(self._rings)
        info["ring_slots"] = sum(ring.mask + 1 for ring in self._rings.values())
        info["ring_live"] = sum(len(ring) for ring in self._rings.values())
        return info

    # (hash_table_size / dispatch_info / observe come from
    # RuntimeBackedEngine; this hook points them at the automaton's index.)
    def _dispatch_source(self):
        return self._dispatch

    def reset_statistics(self) -> None:
        self._runtime.reset_statistics()
        self.nodes_scanned = 0
