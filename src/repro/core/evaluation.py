"""Streaming evaluation of unambiguous PCEA with equality predicates (Algorithm 1).

:class:`StreamingEvaluator` reads a stream tuple by tuple.  Processing one
tuple has two phases:

* **update** — fire every transition whose unary predicate holds and whose
  equality predicates find matching partial runs in the hash table ``H``
  (``FireTransitions``), then index the newly created runs so future tuples can
  join with them (``UpdateIndices``).  Partial runs are represented by nodes of
  the persistent data structure ``DS_w``.
* **enumeration** — the nodes that reached a final state represent exactly the
  new outputs; they are enumerated with output-linear delay, restricted to the
  sliding window.

With equality predicates and an unambiguous PCEA this achieves the
``O(|P|·|t| + |P|·log|P| + |P|·log w)`` update time and output-linear delay of
Theorem 5.1.  The evaluator also exposes operation counters so benchmarks can
report machine-independent costs.

Engineering on top of the paper's pseudocode (the theorem charges none of
these costs, so the implementation should not pay them either):

* **Transition dispatch index** — FireTransitions and UpdateIndices only touch
  *candidate* transitions for the incoming tuple, via the compile-once
  :class:`~repro.core.dispatch.TransitionDispatchIndex` (grouped by relation
  name extracted from the unary predicates, plus a reverse ``state ->
  consuming transitions`` map).  ``indexed=False`` restores the seed engine's
  full ``O(|Δ|)`` scans for ablation.
* **Shared runtime core** — the update procedure itself
  (:func:`repro.runtime.fire`), the stream position, the expiry-driven
  eviction sweep, the arena release protocol, batched ingestion and the
  statistics / memory introspection surface live in :mod:`repro.runtime`,
  shared verbatim with the multi-query engine; this evaluator is the K=1
  facade: one :class:`~repro.runtime.EvictionLane` owning every transition
  of the automaton's dispatch index.  Entries of ``H`` whose node fell out
  of the sliding window are dropped by a bucket-by-expiry-position sweep,
  bounding the table at ``O(active window)`` instead of ``O(stream
  length)``; the ``evicted`` counter reports the reclaimed entries,
  ``evict=False`` restores the unbounded seed behaviour.
* **One single-query engine body** — everything around ``update`` (building
  the ``DS_w``, the lane and the runtime; ``process`` / ``run`` /
  ``process_many`` / ``enumerate_outputs``; the snapshot header and the
  restore guards) is :class:`SingleLaneEngine`, which the non-equality
  fallback :class:`~repro.extensions.general_evaluation.GeneralStreamingEvaluator`
  runs on too: the two engines differ only in how the update phase finds the
  runs to join with.
* **Optional statistics** — the per-tuple operation counters are skipped
  entirely in fast mode (``collect_stats=False``, and inside
  ``run(collect=False)``), so throughput benchmarks measure the algorithm,
  not its instrumentation.
* **Arena-backed enumeration structure** — nodes of ``DS_w`` are dense
  integer ids into the flat per-slab arrays of
  :class:`~repro.core.arena.ArenaDataStructure` (the default; ``arena=False``
  restores the object graph).  The hash table stores ``(node, max_start)``
  pairs so expiry checks never dereference a node, and the eviction sweep
  doubles as the arena's reclamation driver: popping an expiry bucket drops
  the per-slab external references, after which whole expired slabs are
  released in O(1), bounding enumeration memory by the active window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.core.arena import ArenaDataStructure
from repro.core.datastructure import DataStructure, Node
from repro.core.dispatch import TransitionDispatchIndex
from repro.core.pcea import PCEA
from repro.cq.schema import Tuple
from repro.runtime import EngineStatistics, EvictionLane, RuntimeBackedEngine, StreamRuntime, fire
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    check_snapshot_header,
    stable_signature,
)
from repro.valuation import Valuation


#: A ``DS_w`` node reference: a :class:`Node` object (``arena=False``) or a
#: dense integer id into the arena's flat arrays (``arena=True``).
NodeRef = Union[Node, int]

#: Backwards-compatible name: the per-engine statistics dataclasses were
#: unified into :class:`repro.runtime.EngineStatistics`.
UpdateStatistics = EngineStatistics


class NotEqualityPredicateError(TypeError):
    """Raised when Algorithm 1 is instantiated on a PCEA with non-equality joins."""


class SingleLaneEngine(RuntimeBackedEngine):
    """One automaton over one :class:`~repro.runtime.EvictionLane`: the body
    both single-query engines share.

    It builds the ``DS_w``, the runtime and the lane, resolves the dispatch
    index, and owns everything around the update phase: :meth:`process`,
    :meth:`run`, :meth:`process_many`, :meth:`enumerate_outputs` and the
    snapshot protocol.  A subclass supplies ``update(tup, sweep=True)``,
    which returns the nodes that reached a final state, and its own snapshot
    fields through :meth:`_snapshot_fields`, :meth:`_read_fields` and
    :meth:`_adopt_fields`.  ``ENGINE_KIND`` is the ``engine`` name its
    snapshots carry.
    """

    ENGINE_KIND = ""

    def __init__(
        self,
        pcea: PCEA,
        window: int,
        *,
        datastructure: DataStructure | None = None,
        arena: bool = True,
        kernel: str | None = None,
        dispatch: TransitionDispatchIndex | None = None,
        indexed: bool = True,
        evict: bool = True,
        collect_stats: bool = True,
        audit: bool = False,
    ) -> None:
        self.pcea = pcea
        self.window = window
        if datastructure is not None:
            self.ds = datastructure
        elif arena:
            self.ds = ArenaDataStructure(window, kernel=kernel)
        else:
            self.ds = DataStructure(window)
        if self.ds.window != window:
            raise ValueError("data structure window must match the evaluator window")
        self._runtime = StreamRuntime()
        self._lane = self._runtime.add_lane(EvictionLane(window, self.ds))
        self._hash = self._lane.hash
        self.audit = audit
        self._evict = evict
        self._count_stats = collect_stats
        # Mirrored into the runtime: the sweep's counters live there and are
        # gated the same way as every other EngineStatistics counter.
        self._runtime.count_stats = collect_stats
        if dispatch is not None:
            if dispatch.final != frozenset(pcea.final):
                raise ValueError(
                    "the dispatch index was built for a different final-state set"
                )
            compiled = dispatch.all_transitions()
            if len(compiled) != len(pcea.transitions) or any(
                c.transition is not t for c, t in zip(compiled, pcea.transitions)
            ):
                raise ValueError(
                    "the dispatch index was built for a different transition list"
                )
            self._dispatch = dispatch
        elif indexed:
            self._dispatch = pcea.dispatch_index()
        else:
            self._dispatch = TransitionDispatchIndex(
                pcea.transitions, indexed=False, final=pcea.final
            )

    # -------------------------------------------------------------- main loop
    def run(self, stream: Iterable[Tuple], collect: bool = True) -> Dict[int, List[Valuation]]:
        """Process a whole (finite) stream, returning outputs per position.

        With ``collect=False`` outputs are enumerated but not stored, which is
        what the throughput benchmarks use; statistics counting is then
        disabled for the run.
        """
        previous = self._count_stats
        self._count_stats = previous and collect
        self._runtime.count_stats = self._count_stats
        try:
            results: Dict[int, List[Valuation]] = {}
            for tup in stream:
                outputs = self.process(tup)
                if collect:
                    results[self.position] = outputs
            return results
        finally:
            self._count_stats = previous
            self._runtime.count_stats = previous

    def process(self, tup: Tuple) -> List[Valuation]:
        """Process one tuple: update phase followed by eager enumeration."""
        final_nodes = self.update(tup)
        return list(self.enumerate_outputs(final_nodes))

    def process_many(self, tuples: Sequence[Tuple]) -> List[List[Valuation]]:
        """Batched ingestion: process ``tuples``, returning outputs per tuple.

        Produces exactly what ``[self.process(t) for t in tuples]`` would,
        but amortises the per-tuple Python overhead: method lookups are
        hoisted out of the loop, the eviction sweep runs once per batch
        (deferred-sweep correctness is the runtime's
        :meth:`~repro.runtime.StreamRuntime.drive_batch` contract), and the
        enumeration counter is flushed to the statistics once per batch.
        """
        if self.audit:
            # Audit mode verifies duplicate-freeness through the slow
            # enumeration path; batching stays semantically identical.
            return [self.process(tup) for tup in tuples]
        runtime = self._runtime
        update = self.update
        enumerate_node = self.ds.enumerate
        enumerated = 0

        def step(tup: Tuple) -> List[Valuation]:
            nonlocal enumerated
            final_nodes = update(tup, sweep=False)
            if not final_nodes:
                return []
            position = runtime.position
            outputs: List[Valuation] = []
            extend = outputs.extend
            for node in final_nodes:
                extend(enumerate_node(node, position))
            enumerated += len(outputs)
            return outputs

        results = runtime.drive_batch(tuples, step, sweep=self._evict)
        if self._count_stats and enumerated:
            runtime.stats.outputs_enumerated += enumerated
        return results

    # ------------------------------------------------------- enumeration phase
    def enumerate_outputs(self, final_nodes: Sequence[NodeRef]) -> Iterator[Valuation]:
        """Enumerate the outputs represented by the final-state nodes.

        Unambiguity guarantees that distinct nodes represent disjoint output
        sets, so concatenating the enumerations is duplicate-free; with
        ``audit=True`` this is verified at runtime.
        """
        seen: Optional[Set[Valuation]] = set() if self.audit else None
        count_stats = self._count_stats
        stats = self._runtime.stats
        position = self.position
        for node in final_nodes:
            for valuation in self.ds.enumerate(node, position):
                if count_stats:
                    stats.outputs_enumerated += 1
                if seen is not None:
                    if valuation in seen:
                        raise AssertionError(
                            f"duplicate output {valuation} at position {position}; "
                            "the PCEA is not unambiguous"
                        )
                    seen.add(valuation)
                yield valuation

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> Dict[str, object]:
        """The engine's complete evaluation state (see :mod:`repro.runtime.snapshot`).

        Encodable as one wire-codec frame; restorable into a freshly
        constructed engine of the same kind evaluating the same automaton
        with the same window (verified through the dispatch-index signature),
        after which processing continues bit-identically.
        """
        lane = self._lane
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": self.ENGINE_KIND,
            "window": self.window,
            "dispatch_signature": stable_signature(self._dispatch.signature()),
            "runtime": self._runtime.snapshot({lane.lane_id: 0}),
            "lane": lane.snapshot(),
            **self._snapshot_fields(),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt ``snapshot``'s state; processing then continues bit-identically.

        The engine must have been constructed for the same automaton and
        window (and with ``arena=True``); everything else — position, stored
        runs, arena slabs, expiry buckets, statistics — is replaced.
        """
        check_snapshot_header(snapshot, self.ENGINE_KIND)
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
        # Bind and check every section before mutating: a truncated or
        # inconsistent snapshot raises before any state is touched.
        try:
            lane_snap = snapshot["lane"]
            runtime_snap = snapshot["runtime"]
            fields = self._read_fields(snapshot)
        except KeyError as exc:
            raise SnapshotError(f"snapshot is missing the {exc} section") from exc
        self._lane.restore(lane_snap)
        self._runtime.restore(runtime_snap, [self._lane])
        self._adopt_fields(fields)

    def _snapshot_fields(self) -> Dict[str, object]:
        """The subclass's own snapshot entries."""
        return {}

    def _read_fields(self, snapshot: Dict[str, object]) -> object:
        """Check the subclass's own entries of ``snapshot`` before anything is
        replaced; returns what :meth:`_adopt_fields` adopts."""
        return None

    def _adopt_fields(self, fields: object) -> None:
        """Adopt what :meth:`_read_fields` returned (after the lane and runtime)."""

    # ------------------------------------------------------------ introspection
    # (hash_table_size / memory_info / dispatch_info / observe come from
    # RuntimeBackedEngine; this hook points them at the automaton's index.)
    def _dispatch_source(self):
        return self._dispatch

    def reset_statistics(self) -> None:
        self._runtime.reset_statistics()
        self.ds.nodes_created = 0
        self.ds.union_calls = 0
        self.ds.union_copies = 0


class StreamingEvaluator(SingleLaneEngine):
    """Algorithm 1: streaming evaluation of a PCEA under a sliding window.

    Parameters
    ----------
    pcea:
        The automaton to evaluate.  All binary predicates must be equality
        predicates (class ``B_eq``); the automaton should be unambiguous for
        the outputs to be duplicate-free (Theorem 5.1's hypothesis).
    window:
        The sliding-window size ``w``: at position ``i`` only valuations ``ν``
        with ``i - min(ν) <= w`` are reported.
    datastructure:
        Optional data-structure instance (object or arena flavoured),
        injectable so the ablation benchmark can swap in the naive variant;
        when given it overrides ``arena``.
    arena:
        With ``True`` (default) the enumeration structure is the arena-backed
        :class:`~repro.core.arena.ArenaDataStructure` — flat-array node
        storage whose expired slabs are released wholesale by the eviction
        sweep, bounding enumeration memory by the active window.  ``False``
        restores the persistent object-graph ``DS_w`` (the ablation baseline
        and differential-test oracle).  With ``evict=False`` the arena never
        reclaims either (no sweep runs), reproducing the unbounded seed
        behaviour in both representations.
    audit:
        When ``True``, every enumeration additionally checks that no duplicate
        valuation is produced (debug mode; adds overhead).
    dispatch:
        Optional prebuilt :class:`~repro.core.dispatch.TransitionDispatchIndex`
        (the compilers attach one to the PCEA; it is reused automatically).
    indexed:
        With ``False`` the evaluator scans the full transition list per tuple,
        reproducing the seed engine's update cost (ablation / differential
        testing).
    evict:
        With ``False`` hash-table entries are never reclaimed (the seed
        behaviour); the default sweeps expired entries so memory is bounded by
        the window, not the stream length.
    collect_stats:
        With ``False`` the per-tuple operation counters are skipped (fast
        mode for throughput benchmarks).
    kernel:
        Record-operation backend for the arena hot path: ``"python"``,
        ``"native"`` (the optional C extension) or ``"auto"`` / ``None``
        (defer to ``REPRO_KERNEL``, then auto-detect — see
        :mod:`repro.core.kernel`).  Ignored with ``arena=False`` or an
        injected ``datastructure``; :meth:`kernel_info` reports what is
        actually running.

    Examples
    --------
    >>> # See examples/quickstart.py for an end-to-end construction.
    """

    ENGINE_KIND = "streaming"

    def __init__(
        self,
        pcea: PCEA,
        window: int,
        datastructure: DataStructure | None = None,
        audit: bool = False,
        dispatch: TransitionDispatchIndex | None = None,
        indexed: bool = True,
        evict: bool = True,
        collect_stats: bool = True,
        arena: bool = True,
        kernel: str | None = None,
    ) -> None:
        if not pcea.uses_only_equality_predicates():
            raise NotEqualityPredicateError(
                "Algorithm 1 requires every binary predicate to be an equality predicate"
            )
        super().__init__(
            pcea,
            window,
            datastructure=datastructure,
            arena=arena,
            kernel=kernel,
            dispatch=dispatch,
            indexed=indexed,
            evict=evict,
            collect_stats=collect_stats,
            audit=audit,
        )
        # H (``self._hash``) maps (slot, key) to ``(node, max_start)``: a slot
        # is the dispatch index's id of one (source state, left key plan) pair,
        # the node the union of all runs that reached that state with that
        # join key — stored once, whichever transitions read it.  max_start is
        # cached in the pair so the hot expiry checks never re-read it through
        # the data structure.  The automaton's (possibly shared) index is
        # bound to this engine's lane: the plans ``fire`` consumes carry their
        # owning lane per member.
        self._plan_for = self._dispatch.bind(self._lane).plan_for

    # ------------------------------------------------------------ update phase
    def update(self, tup: Tuple, sweep: bool = True) -> List[NodeRef]:
        """The update phase (Reset + FireTransitions + UpdateIndices).

        Returns the nodes that reached a final state at the current position;
        feeding them to :meth:`enumerate_outputs` yields the new outputs.
        ``sweep=False`` skips the per-tuple eviction sweep (expiry bucket
        registration still happens); :meth:`process_many` uses it to run one
        batched sweep instead of one per tuple.
        """
        runtime = self._runtime
        position = runtime.advance()
        # Evict: one shared-runtime sweep.  A key is registered in the bucket
        # of its expiry position ``max_start + window + 1``; since every
        # stored node satisfies max_start >= position - window at storage
        # time, popping the single bucket of the current position reclaims
        # every entry exactly when it expires.  The sweep is also when arena
        # slabs are released: a slab's last external reference is dropped no
        # later than the bucket of its largest max_start, which is due
        # exactly when the slab expires.
        if self._evict and sweep:
            runtime.sweep(position)
        plan = self._plan_for(tup)
        stats = None
        if self._count_stats:
            stats = runtime.stats
            stats.tuples_processed += 1
            # Every plan member counts as scanned and evaluated, however many
            # share a predicate group (what a per-candidate loop would count).
            stats.transitions_scanned += plan.total
            stats.predicate_evaluations += plan.total
        finals = fire(plan, tup, position, runtime.buckets if self._evict else None, stats)
        return finals[self._lane] if finals else []

    # ------------------------------------------------------- snapshot protocol
    def _snapshot_fields(self) -> Dict[str, object]:
        return {"evict": self._evict}

    def _read_fields(self, snapshot: Dict[str, object]) -> None:
        if bool(snapshot["evict"]) != self._evict:
            raise SnapshotError(
                "snapshot and engine disagree on the evict setting "
                f"(snapshot: {snapshot['evict']}, engine: {self._evict})"
            )


def evaluate_pcea(
    pcea: PCEA,
    stream: Iterable[Tuple],
    window: int,
    positions: Iterable[int] | None = None,
) -> Dict[int, Set[Valuation]]:
    """Convenience wrapper: run Algorithm 1 over a finite stream.

    Returns the outputs (as sets of valuations) at every position, or only at
    the requested ``positions``.
    """
    evaluator = StreamingEvaluator(pcea, window)
    wanted = set(positions) if positions is not None else None
    results: Dict[int, Set[Valuation]] = {}
    for tup in stream:
        outputs = evaluator.process(tup)
        if wanted is None or evaluator.position in wanted:
            results[evaluator.position] = set(outputs)
    return results
