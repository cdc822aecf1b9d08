"""The multi-query streaming engine: many patterns, one pass per tuple.

:class:`MultiQueryEngine` evaluates every registered query with Algorithm 1
semantics — each query keeps its *own* run-index hash table, enumeration
structure (``DS_w``) and sliding window, so outputs are bit-for-bit identical
to running one :class:`~repro.core.evaluation.StreamingEvaluator` per query —
but the per-tuple work is shared three ways:

* **one dispatch lookup** through the
  :class:`~repro.multi.merged_index.MergedDispatchIndex` returns the candidate
  transitions of all queries at once, pre-grouped by canonical predicate key;
* **one unary-predicate evaluation per group** — structurally identical
  predicates across queries are evaluated once per tuple by the shared fire
  loop (:func:`repro.runtime.fire`; sound because equal canonical keys imply
  equal extensions);
* **one eviction sweep** through the shared
  :class:`~repro.runtime.StreamRuntime` — every query is an
  :class:`~repro.runtime.EvictionLane` of the same runtime the single-query
  evaluator runs as its K=1 lane, so the expiry-bucket map (keyed by the
  global position at which an entry expires, ``max_start + window_q + 1``),
  the bucket-pop sweep, the batched catch-up sweep and the periodic arena
  release pass exist in exactly one place and cover every lane at once.

Registration changes patch the merged index incrementally
(:meth:`MergedDispatchIndex.add_query` / ``remove_query``): registering a
query touches only its own ``(relation, guard)`` buckets, O(|P_q|)-ish
instead of a rebuild over every registered transition, which is what keeps
register/unregister latency flat as the registry grows toward the
million-query target.  ``incremental=False`` restores the full rebuild for
ablation and the churn benchmark's baseline.

Positions are global to the engine's stream: a query registered at position
``p`` behaves exactly like an independent evaluator that started observing
the stream at ``p`` (its valuations carry global stream positions).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.adaptive import resolve_config
from repro.core.arena import ArenaDataStructure
from repro.core.kernel import resolve_kernel
from repro.core.datastructure import DataStructure
from repro.cq.schema import Tuple
from repro.multi.merged_index import MergedDispatchIndex
from repro.multi.registry import QueryHandle, QueryRegistry, QuerySpec
from repro.runtime import (
    RELEASE_PASS_INTERVAL,
    EngineStatistics,
    EvictionLane,
    RuntimeBackedEngine,
    StreamRuntime,
    fire,
)
from repro.runtime.snapshot import (
    PARTIAL_SNAPSHOT_KIND,
    SNAPSHOT_VERSION,
    SnapshotError,
    check_partial_snapshot,
    check_snapshot_header,
    stable_signature,
)
from repro.valuation import Valuation


#: Backwards-compatible name: the per-engine statistics dataclasses were
#: unified into :class:`repro.runtime.EngineStatistics` (the old
#: ``candidates_scanned`` field survives as a property alias).
MultiQueryStatistics = EngineStatistics


class _QueryLane(EvictionLane):
    """Per-query runtime state: isolated tables, shared per-tuple loop."""

    __slots__ = ("handle", "pcea", "dispatch")

    def __init__(
        self,
        handle: QueryHandle,
        pcea,
        arena: bool = True,
        columnar: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        ds = (
            ArenaDataStructure(handle.window, columnar=columnar, kernel=kernel)
            if arena
            else DataStructure(handle.window)
        )
        super().__init__(handle.window, ds)
        self.handle = handle
        self.pcea = pcea
        self.dispatch = pcea.dispatch_index()

    def deactivate(self) -> None:
        super().deactivate()
        self.pcea = None
        self.dispatch = None

    def __repr__(self) -> str:
        return f"_QueryLane({self.handle}, |H|={len(self.hash)})"


class MultiQueryEngine(RuntimeBackedEngine):
    """Evaluate many registered patterns over one stream in a single pass.

    Parameters
    ----------
    registry:
        Optional externally owned :class:`QueryRegistry`; by default the
        engine creates its own.  Queries already present in a supplied
        registry are picked up at construction time.
    guards:
        Passed to the merged index: prune constant-guarded candidates by
        value before their predicate runs.
    collect_stats:
        With ``True``, the shared loop maintains
        :class:`~repro.runtime.EngineStatistics`; off by default (production
        mode).
    arena:
        With ``True`` (default) each lane's enumeration structure is the
        arena-backed :class:`~repro.core.arena.ArenaDataStructure`, whose
        expired slabs the shared eviction sweep releases wholesale; ``False``
        restores the object-graph ``DS_w`` per lane (ablation / differential
        testing).
    incremental:
        With ``True`` (default) registration changes patch the merged
        dispatch index in place (O(|P_q|)-ish per change); ``False`` rebuilds
        it from scratch on every change (the pre-patching behaviour, kept as
        the ablation baseline the churn benchmark measures against).
    columnar:
        Arena column layout per lane (``array('q')`` packing by default;
        ``False`` keeps the list-backed slabs — ablation).  Ignored with
        ``arena=False``.
    kernel:
        Record-operation backend for every lane's arena hot path
        (``"python"`` / ``"native"`` / ``"auto"``; ``None`` defers to
        ``REPRO_KERNEL`` then auto-detection — :mod:`repro.core.kernel`).
        Resolved once at construction so every lane — including lanes
        registered mid-stream — runs the same backend; ignored with
        ``arena=False``.
    release_interval:
        Positions between the runtime's periodic full arena-release passes
        over every lane (default :data:`~repro.runtime.RELEASE_PASS_INTERVAL`)
        — the pass that reclaims expired slabs of lanes whose queries stopped
        matching.  Lower it for tighter idle-lane memory at higher amortised
        sweep cost; ``memory_info()['release_interval']`` reports it.
    adaptive:
        Adaptive selectivity-driven dispatch (:mod:`repro.core.adaptive`)
        over the merged index: runtime feedback reorders candidate groups
        and promotes hot constant-guard values to standing plans, with
        per-query outputs and counters bit-identical to the static path
        (``False``, the ablation oracle).  An
        :class:`~repro.core.adaptive.AdaptiveConfig` overrides the
        flush/promotion knobs.
    """

    def __init__(
        self,
        registry: Optional[QueryRegistry] = None,
        guards: bool = True,
        collect_stats: bool = False,
        arena: bool = True,
        incremental: bool = True,
        columnar: bool = True,
        kernel: Optional[str] = None,
        release_interval: int = RELEASE_PASS_INTERVAL,
        adaptive: object = True,
    ) -> None:
        self.registry = registry if registry is not None else QueryRegistry()
        self._guards = guards
        self._arena = arena
        self._columnar = columnar
        # Resolve the backend once (surfacing bad explicit choices here, not
        # at some later mid-stream registration) and pass the resolved name
        # to every lane.
        self._kernel = resolve_kernel(kernel, columnar) if arena else None
        self._incremental = incremental
        self._count_stats = collect_stats
        self._runtime = StreamRuntime(release_interval=release_interval)
        self._runtime.count_stats = collect_stats
        self._lanes: Dict[int, _QueryLane] = {}
        self._merged = MergedDispatchIndex((), guards=guards)
        for entry in self.registry.entries():
            lane = _QueryLane(entry.handle, entry.pcea, arena, columnar, self._kernel)
            self._lanes[entry.handle.id] = lane
            self._runtime.add_lane(lane)
            self._merged.add_query(lane, lane.dispatch)
        # Adaptive dispatch over the merged index; the listener hookup keeps
        # learned plans fresh through incremental registration patches.
        config = resolve_config(adaptive)
        if config is not None:
            self._adaptive = self._merged.build_adaptive(config)
            self._merged.adaptive_listener = self._adaptive
            self._runtime.arm_adapt(self._adapt_flush, config.interval)

    # ----------------------------------------------------------- registration
    def register(
        self, query: QuerySpec, window: int, name: Optional[str] = None
    ) -> QueryHandle:
        """Register a query mid-stream; it starts observing at the next tuple."""
        handle = self.registry.register(query, window, name)
        lane = _QueryLane(
            handle, self.registry.get(handle).pcea, self._arena, self._columnar, self._kernel
        )
        self._lanes[handle.id] = lane
        self._runtime.add_lane(lane)
        observer = getattr(self, "_observer", None)
        start = perf_counter() if observer is not None else 0.0
        if self._incremental:
            self._merged.add_query(lane, lane.dispatch)
        else:
            self._rebuild()
        if observer is not None:
            observer.on_index_patch(
                "add", perf_counter() - start, len(lane.dispatch.all_transitions())
            )
            observer.observe_lane(lane)
        return handle

    def unregister(self, handle: QueryHandle) -> None:
        """Drop a query; its state is discarded and outputs stop immediately."""
        self.registry.unregister(handle)
        lane = self._lanes.pop(handle.id)
        observer = getattr(self, "_observer", None)
        start = perf_counter() if observer is not None else 0.0
        transitions = (
            len(lane.dispatch.all_transitions()) if observer is not None else 0
        )
        if self._incremental:
            self._merged.remove_query(lane)
        # Stale expiry-bucket entries still reference the lane; the shared
        # sweep skips inactive lanes instead of scrubbing every bucket
        # eagerly.  Deactivation clears the lane's state (hash table,
        # enumeration structure, bound hooks) so the query's memory is
        # released immediately, not up to a window later.
        self._runtime.drop_lane(lane)
        if not self._incremental:
            self._rebuild()
        if observer is not None:
            observer.on_index_patch("remove", perf_counter() - start, transitions)

    def handles(self) -> List[QueryHandle]:
        """Handles of the registered queries, in registration order."""
        return [entry.handle for entry in self.registry.entries()]

    def _rebuild(self) -> None:
        """Reconstruct the merged index from scratch (``incremental=False``)."""
        lanes = [self._lanes[qid] for qid in sorted(self._lanes)]
        self._merged = MergedDispatchIndex(
            [(lane, lane.dispatch) for lane in lanes], guards=self._guards
        )
        if self._adaptive is not None:
            # A rebuilt index means rebuilt entries: re-derive the adaptive
            # state over them (learning restarts, matching the from-scratch
            # semantics of the ablation path).
            self._adaptive = self._merged.build_adaptive(self._adaptive.config)
            self._merged.adaptive_listener = self._adaptive

    # -------------------------------------------------------------- main loop
    def run(
        self, stream: Iterable[Tuple], collect: bool = True
    ) -> Dict[int, Dict[int, List[Valuation]]]:
        """Process a finite stream; with ``collect`` return outputs per position."""
        results: Dict[int, Dict[int, List[Valuation]]] = {}
        for tup in stream:
            outputs = self.process(tup)
            if collect and outputs:
                results[self.position] = outputs
        return results

    def process(self, tup: Tuple) -> Dict[int, List[Valuation]]:
        """Process one tuple for every registered query.

        Returns ``{query id: [valuations]}`` containing only the queries that
        produced output at this position (route with
        :meth:`QueryHandle.id <QueryHandle>` keys).
        """
        return self._process(tup, sweep=True)

    def process_many(
        self, tuples: Sequence[Tuple]
    ) -> List[Dict[int, List[Valuation]]]:
        """Batched ingestion: one eviction sweep for the whole batch.

        Semantically identical to ``[self.process(t) for t in tuples]`` —
        the deferred-sweep correctness argument is the runtime's
        :meth:`~repro.runtime.StreamRuntime.drive_batch` contract.
        """
        process = self._process
        return self._runtime.drive_batch(
            tuples, lambda tup: process(tup, sweep=False)
        )

    def _process(self, tup: Tuple, sweep: bool) -> Dict[int, List[Valuation]]:
        runtime = self._runtime
        position = runtime.advance()
        if sweep:
            runtime.sweep(position)
        # One merged lookup serves every query; the shared fire loop then
        # evaluates one predicate per group and joins per owning lane.
        source = self._adaptive if self._adaptive is not None else self._merged
        plan = source.plan_for(tup)
        stats = None
        if self._count_stats:
            stats = runtime.stats
            evaluated = len(plan.groups)
            stats.tuples_processed += 1
            stats.transitions_scanned += plan.total
            stats.predicate_evaluations += evaluated
            stats.predicate_cache_hits += plan.total - evaluated
        finals = fire(plan, tup, position, runtime.buckets, stats)
        if not finals:
            return {}
        # Enumeration per query, window-restricted by the query's own DS_w.
        outputs: Dict[int, List[Valuation]] = {}
        for lane, nodes in finals.items():
            enumerate_node = lane.ds.enumerate
            valuations: List[Valuation] = []
            extend = valuations.extend
            for node in nodes:
                extend(enumerate_node(node, position))
            if valuations:
                outputs[lane.handle.id] = valuations
                if stats is not None:
                    stats.outputs_enumerated += len(valuations)
        return outputs

    # --------------------------------------------------- lane-subset migration
    def extract_queries(self, handles: Sequence[QueryHandle]) -> Dict[str, object]:
        """A lane-subset snapshot of ``handles``'s queries, non-destructively.

        The unit of *query migration*: everything another engine standing at
        the same stream position needs to continue evaluating these queries
        bit-identically — each lane's hash table and enumeration structure
        (refcounts included), the lanes' expiry-bucket triples, the stream
        position, and per-lane dispatch signatures for verification on the
        adopting side (:meth:`adopt_queries`).  This engine is untouched;
        callers migrating a query extract, then :meth:`unregister`, and the
        adopting engine registers the same specification, then adopts.
        """
        lanes = []
        for handle in handles:
            lane = self._lanes.get(handle.id)
            if lane is None:
                raise KeyError(f"no registered query with handle {handle}")
            lanes.append(lane)
        lane_index = {lane.lane_id: index for index, lane in enumerate(lanes)}
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "kind": PARTIAL_SNAPSHOT_KIND,
            "position": self.position,
            "queries": [
                {"name": lane.handle.name, "window": lane.handle.window}
                for lane in lanes
            ],
            "signatures": [
                stable_signature(lane.dispatch.signature()) for lane in lanes
            ],
            "lanes": [lane.snapshot() for lane in lanes],
            "buckets": self._runtime.extract_bucket_entries(lane_index),
        }

    def adopt_queries(
        self, partial: Dict[str, object], handles: Sequence[QueryHandle]
    ) -> None:
        """Adopt a lane subset extracted by :meth:`extract_queries`.

        ``handles`` name this engine's freshly registered copies of the
        extracted queries, in the extraction order (same specifications, same
        windows — verified structurally through the per-lane dispatch
        signatures before any state is touched).  This engine must stand at
        the *same stream position* as the extracting engine: positions are
        what make the migrated hash entries' window checks and expiry-bucket
        keys mean the same thing on both sides, so continuation drops and
        duplicates nothing.
        """
        check_partial_snapshot(partial)
        queries = partial["queries"]
        if len(handles) != len(queries):
            raise SnapshotError(
                f"partial snapshot holds {len(queries)} queries, "
                f"{len(handles)} adopting handles given"
            )
        if int(partial["position"]) != self.position:
            raise SnapshotError(
                f"partial snapshot was taken at stream position "
                f"{partial['position']}, this engine is at {self.position} "
                "(synchronise the feed before migrating)"
            )
        lanes = []
        for handle in handles:
            lane = self._lanes.get(handle.id)
            if lane is None:
                raise KeyError(f"no registered query with handle {handle}")
            lanes.append(lane)
        # Validate everything up front: a rejected adopt leaves the engine
        # exactly as it was.
        for lane, query, signature, lane_snap in zip(
            lanes, queries, partial["signatures"], partial["lanes"]
        ):
            if getattr(lane.ds, "restore", None) is None:
                raise SnapshotError(
                    "adopt_queries requires arena-backed query lanes "
                    "(construct the engine with arena=True)"
                )
            if lane.window != query["window"] or lane_snap["window"] != lane.window:
                raise SnapshotError(
                    f"query {lane.handle} has window {lane.window}, the "
                    f"extracted lane recorded {query['window']}"
                )
            if stable_signature(lane.dispatch.signature()) != signature:
                raise SnapshotError(
                    f"query {lane.handle} does not match the extracted query "
                    "(dispatch signatures differ)"
                )
        # Pre-check bucket absorbability so a rejected adopt never leaves
        # half-restored lanes behind (absorb itself re-checks).
        swept_upto = self._runtime._swept_upto
        for expiry_position in partial["buckets"]:
            if int(expiry_position) <= swept_upto:
                raise SnapshotError(
                    f"extracted expiry bucket {expiry_position} is already in "
                    f"this engine's past (swept up to {swept_upto})"
                )
        for lane, lane_snap in zip(lanes, partial["lanes"]):
            lane.restore(lane_snap)
        self._runtime.absorb_bucket_entries(partial["buckets"], lanes)

    # ------------------------------------------------------- snapshot protocol
    def _ordered_lanes(self) -> List[_QueryLane]:
        """The active lanes in registration order (the snapshot lane index)."""
        return [self._lanes[entry.handle.id] for entry in self.registry.entries()]

    def snapshot(self) -> Dict[str, object]:
        """The engine's complete evaluation state (see :mod:`repro.runtime.snapshot`).

        Carries the registry's handle table and the merged-index
        ``signature()`` (made process-portable by
        :func:`~repro.runtime.snapshot.stable_signature`) for verification,
        the runtime state, and one lane snapshot per registered query in
        registration order.  Restorable into a fresh engine that registered
        the *same query specifications in the same order* — handle ids are
        remapped from the snapshot, so output routing and later
        registrations continue exactly as in the snapshotted run.
        """
        lanes = self._ordered_lanes()
        lane_index = {lane.lane_id: index for index, lane in enumerate(lanes)}
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": "multi",
            "registry": self.registry.snapshot(),
            "merged_signature": stable_signature(self._merged.signature()),
            "runtime": self._runtime.snapshot(lane_index),
            "lanes": [lane.snapshot() for lane in lanes],
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt ``snapshot``'s state; processing then continues bit-identically.

        The engine must hold the snapshot's queries (same specifications,
        same registration order, same per-query windows, ``arena=True``) —
        verified structurally through the merged-index signature before any
        state is touched.  Registered handles are rewritten to the
        snapshot's ids/names (see :meth:`QueryRegistry.restore_handles
        <repro.multi.registry.QueryRegistry.restore_handles>`).
        """
        check_snapshot_header(snapshot, "multi")
        lane_snaps = snapshot["lanes"]
        lanes = self._ordered_lanes()
        if len(lanes) != len(lane_snaps):
            raise SnapshotError(
                f"snapshot holds {len(lane_snaps)} query lanes, "
                f"this engine holds {len(lanes)}"
            )
        if stable_signature(self._merged.signature()) != snapshot["merged_signature"]:
            raise SnapshotError(
                "snapshot was taken from an engine with different registered "
                "queries (merged-index signatures differ)"
            )
        # Validate restorability up front: a rejected restore must leave the
        # engine untouched (no remapped handles, no half-restored lanes).
        for lane, lane_snap in zip(lanes, lane_snaps):
            if getattr(lane.ds, "restore", None) is None:
                raise SnapshotError(
                    "restore requires arena-backed query lanes "
                    "(construct the engine with arena=True)"
                )
            if lane_snap["window"] != lane.window:
                raise SnapshotError(
                    f"snapshot lane window {lane_snap['window']} does not match "
                    f"query {lane.handle} (window {lane.window})"
                )
        # Bind every section before mutating: a truncated snapshot raises
        # before any state is touched, never after a half-restore.
        try:
            registry_snap = snapshot["registry"]
            runtime_snap = snapshot["runtime"]
        except KeyError as exc:
            raise SnapshotError(f"snapshot is missing the {exc} section") from exc
        try:
            handles = self.registry.restore_handles(registry_snap)
        except ValueError as exc:
            raise SnapshotError(str(exc)) from exc
        self._lanes = {}
        for handle, lane in zip(handles, lanes):
            lane.handle = handle
            self._lanes[handle.id] = lane
        for lane, lane_snap in zip(lanes, lane_snaps):
            lane.restore(lane_snap)
        self._runtime.restore(runtime_snap, lanes)
        self._reset_adaptive()

    # ------------------------------------------------------------ introspection
    # (hash_table_size / memory_info / dispatch_info / observe come from
    # RuntimeBackedEngine; this hook points them at the merged index.)
    def _dispatch_source(self):
        return self._merged

    def reset_statistics(self) -> None:
        self._runtime.reset_statistics()

    def __repr__(self) -> str:
        return (
            f"MultiQueryEngine({len(self._lanes)} queries, position={self.position}, "
            f"|H|={self.hash_table_size()})"
        )
