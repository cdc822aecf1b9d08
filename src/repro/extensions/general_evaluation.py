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
Only the update phase differs from Algorithm 1, so the evaluator *is*
:class:`~repro.core.evaluation.StreamingEvaluator` — the K=1 case of
:class:`~repro.multi.engine.MultiQueryEngine` — with one method swapped:
``_fire`` scans where the hashed engine probes ``H``.  Everything else is the
hashed engine's code: the store (one ``DS_w`` and one
:class:`~repro.runtime.EvictionLane` on the shared
:class:`~repro.runtime.StreamRuntime`), the plan lookup through the merged
index, the statistics booking (one ``predicate_evaluations`` per predicate
group or threshold family), ``process`` / ``run`` / ``process_many`` /
``update`` / ``enumerate_outputs``, and every introspection surface.  Two
things are its own: the admission step, which accepts any binary predicate
(the scan only calls ``holds``) for its one automaton, and the snapshot
kind, ``general``.

* **eviction** — live runs are stored in the store's table keyed by
  ``(source state id, sequence number)`` with the run's newest position as
  the expiry anchor, and reclaimed by the runtime's shared bucket sweep: a
  run whose newest tuple is older than ``w`` can never contribute an
  in-window output again, because outputs are constrained through
  ``min(ν) >= i - w`` and ``min(ν) <=`` every position of the run.  The scan
  re-checks ``ds.expired`` before using a stored node: a run's node can fall
  out of the window before the run's anchor does, and a batched sweep
  reclaims late.

Per-state run dicts
-------------------
The scan reads a source state's live runs from one insertion-ordered dict per
state, ``seq -> (stored tuple, node)`` (the pair the store's table holds).
Runs of one state die in insertion order — each ``(state, seq)`` entry is
stored once with its stream position as the expiry anchor, positions only
grow, and the sweep pops expiry buckets in position order — so a dict keeps
them oldest first with nothing to compact: the sweep's ``on_evict`` hook pops
each evicted run from its state's dict, the scan never meets a dead entry,
and the dicts hold exactly the store's table.  A snapshot writes each dict's
sequence numbers (the ``rings`` section, empty states included); restore
rebuilds the dicts from the table and refuses a snapshot whose rings do not
name exactly that table's runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as Tup

from repro.core.dispatch import member_order
from repro.core.evaluation import NodeRef, StreamingEvaluator
from repro.core.pcea import PCEA
from repro.cq.schema import Tuple
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    check_snapshot_header,
    stable_signature,
)


class GeneralStreamingEvaluator(StreamingEvaluator):
    """Sliding-window evaluation of a PCEA whose predicates may be arbitrary.

    Parameters
    ----------
    pcea:
        The automaton; binary predicates only need the boolean
        ``holds(earlier, later)`` interface.
    window:
        Sliding-window size ``w``; outputs ``ν`` satisfy ``i - min(ν) <= w``.
    collect_stats:
        With ``False`` the per-tuple operation counters are skipped.  The
        ``nodes_scanned`` attribute (the engine's signature linear-in-data
        cost) is maintained regardless.
    arena, kernel:
        As on :class:`~repro.core.evaluation.StreamingEvaluator`.
    """

    def __init__(
        self,
        pcea: PCEA,
        window: int,
        *,
        collect_stats: bool = True,
        arena: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        # ``_runs`` indexes the store's runs per state (module docstring).
        self._runs: Dict[int, Dict[int, Tup[Tuple, NodeRef]]] = {}
        self._next_seq = 0
        self.nodes_scanned = 0
        super().__init__(pcea, window, collect_stats=collect_stats, arena=arena, kernel=kernel)
        self._query.store.on_evict = self._on_evict

    def _admissible(self, pcea: PCEA) -> PCEA:
        """Any binary predicate is admitted — the scan only calls ``holds`` —
        but only the one automaton: ``_runs`` is keyed by its state ids."""
        if self._queries:
            raise ValueError("a general evaluator evaluates exactly one automaton")
        return pcea

    def _on_evict(self, key: Tup[int, int]) -> None:
        """Sweep hook: the run the sweep evicted leaves its state's dict."""
        self._runs[key[0]].pop(key[1])

    # ------------------------------------------------------------ update phase
    def _fire(self, tup: Tuple, sweep: bool) -> Optional[Dict[object, List[NodeRef]]]:
        """The update phase of one tuple, scanning live runs instead of probing
        ``H``: ``{query: final-state nodes}``, or ``None`` when none was reached."""
        runtime = self._runtime
        position = runtime.advance()
        if sweep:
            runtime.sweep(position)
        plan = self._merged.plan_for(tup)
        stats = None
        if self._count_stats:
            stats = runtime.stats
            evaluated = len(plan.groups) + len(plan.families)
            stats.tuples_processed += 1
            stats.transitions_scanned += plan.total
            stats.predicate_evaluations += evaluated
            stats.predicate_cache_hits += plan.total - evaluated
        # One unary per predicate group, one bisect per threshold family, then
        # the held members' run scans in canonical transition order (for K=1
        # a member's index is its transition's).  The scans read only state
        # stored by *previous* tuples, so deciding all verdicts up front
        # cannot change any scan's view — ``created`` (and hence node
        # allocation, storage and snapshots) does not depend on plan order.
        held: List = []
        for group in plan.groups:
            if group.accepts(tup):
                held.extend(group.members)
        for family in plan.families:
            held.extend(family.held(tup).members)
        if len(held) > 1:
            held.sort(key=member_order)
        store = self._query.store
        ds = store.ds
        ds_expired = ds.expired
        all_runs = self._runs
        created: List[Tup[int, bool, NodeRef]] = []
        scanned = 0
        for member in held:
            compiled = member.compiled
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
                runs = all_runs.get(source_id)
                if runs:
                    holds = predicate.holds
                    for stored_tuple, node in runs.values():
                        if ds_expired(node, position):
                            continue
                        if holds(stored_tuple, tup):
                            compatible.append(node)
                    scanned += len(runs)
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
        if not created:
            return None

        # Store the new runs: store table + per-state dict + one shared
        # expiry-bucket registration each (newest position anchors the
        # expiry; the flat-triple protocol is StreamRuntime.register_entry,
        # inlined).
        final_nodes: List[NodeRef] = []
        lane_id = store.lane_id
        hash_table = store.hash
        buckets = runtime.buckets
        add_ref = store.add_ref
        expiry_position = position + store.window + 1
        expiry = buckets.get(expiry_position)
        if expiry is None:
            expiry = buckets[expiry_position] = []
        for state_id, is_final, node in created:
            seq = self._next_seq
            self._next_seq = seq + 1
            key = (state_id, seq)
            run = (tup, node)
            hash_table[key] = (run, position)
            if stats is not None:
                stats.hash_updates += 1
            runs = all_runs.get(state_id)
            if runs is None:
                runs = all_runs[state_id] = {}
            runs[seq] = run
            expiry.append(lane_id)
            expiry.append(key)
            expiry.append(node)
            add_ref(node)
            if is_final:
                final_nodes.append(node)
        return {self._query: final_nodes} if final_nodes else None

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> Dict[str, object]:
        """The engine's complete evaluation state (see :mod:`repro.runtime.snapshot`).

        Encodable as one wire-codec frame; restorable into a freshly
        constructed engine evaluating the same automaton with the same window
        (verified through the dispatch-index signature), after which
        processing continues bit-identically.  ``rings`` lists each state's
        live runs oldest first (module docstring).
        """
        store = self._query.store
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": "general",
            "window": self.window,
            "dispatch_signature": stable_signature(self._query.dispatch.signature()),
            "runtime": self._runtime.snapshot({store.lane_id: 0}),
            "lane": store.snapshot(),
            "rings": {state_id: list(runs) for state_id, runs in self._runs.items()},
            "next_seq": self._next_seq,
            "nodes_scanned": self.nodes_scanned,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt ``snapshot``'s state; processing then continues bit-identically.

        The engine must have been constructed for the same automaton and
        window (and with ``arena=True``); everything else — position, stored
        runs, arena slabs, expiry buckets, statistics — is replaced.  Every
        section is read and checked before anything is: the rings must name
        exactly the store table's runs.
        """
        check_snapshot_header(snapshot, "general")
        if snapshot["window"] != self.window:
            raise SnapshotError(
                f"snapshot was taken with window {snapshot['window']}, "
                f"this engine has window {self.window}"
            )
        if stable_signature(self._query.dispatch.signature()) != snapshot["dispatch_signature"]:
            raise SnapshotError(
                "snapshot was taken from an engine with a different automaton "
                "(dispatch-index signatures differ)"
            )
        try:
            lane_snap = snapshot["lane"]
            runtime_snap = snapshot["runtime"]
            table = dict(lane_snap["hash"])
            rings = dict(snapshot["rings"])  # a file may hold any container here
            next_seq, nodes_scanned = int(snapshot["next_seq"]), int(snapshot["nodes_scanned"])
        except KeyError as exc:
            raise SnapshotError(f"snapshot is missing the {exc} section") from exc
        runs: Dict[int, Dict[int, Tup[Tuple, NodeRef]]] = {}
        for state_id, seqs in rings.items():
            state_id = int(state_id)
            state_runs = runs[state_id] = {}
            for seq in seqs:
                entry = table.get((state_id, seq))
                if entry is None:
                    raise SnapshotError(
                        f"snapshot rings name run {(state_id, seq)!r}, which the lane table does not hold"
                    )
                state_runs[seq] = entry[0]
        if sum(map(len, runs.values())) != len(table):
            raise SnapshotError("the snapshot's lane table holds runs its rings do not name")
        store = self._query.store
        store.restore(lane_snap)
        self._runtime.restore(runtime_snap, [store])
        self._runs, self._next_seq, self.nodes_scanned = runs, next_seq, nodes_scanned

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.nodes_scanned = 0
