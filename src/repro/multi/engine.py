"""The multi-query streaming engine: many patterns, one pass per tuple.

:class:`MultiQueryEngine` evaluates every registered query with Algorithm 1
semantics — per query, outputs are bit-for-bit (order included) those of the
query registered alone where it was registered (the K=1 case, which
:class:`~repro.core.evaluation.StreamingEvaluator` is) — but what the queries
have in common is done once:

* **one dispatch lookup** through the
  :class:`~repro.multi.merged_index.MergedDispatchIndex` returns the candidate
  transitions of all queries at once, pre-grouped by canonical predicate key;
* **one unary-predicate evaluation per group** — structurally identical
  predicates across queries are evaluated once per tuple by the shared fire
  loop (:func:`repro.runtime.fire`; sound because equal canonical keys imply
  equal extensions);
* **one run store per window** — Algorithm 1's ``DS_w`` and ``H`` exist once
  for all queries registered under the same window (an
  :class:`~repro.runtime.EvictionLane`), every query's states numbered into
  that store's slot space.  A *leaf* state — reached only by source-less
  transitions — that several queries have in common is stored once: one
  plan member, one ``H`` write, one expiry triple and one sweep step per
  accepted tuple, however many queries read it.  States built by joins stay
  private to their query: a union's shape depends on the order its runs
  arrived in, which a query that joined later has not seen, so sharing them
  waits for a canonical union order;
* **one eviction sweep** through the shared
  :class:`~repro.runtime.StreamRuntime`, so the expiry-bucket map (keyed by
  the global position at which an entry expires, ``max_start + window + 1``),
  the bucket-pop sweep, the batched catch-up sweep and the periodic arena
  release pass exist in exactly one place and cover every store at once.

This is the only engine class, and :func:`repro.runtime.fire` its only
update loop; the single-query evaluator is its K=1 case.  Every automaton
is admitted: each join is a hash probe where its predicate is in ``B_eq``
(Algorithm 1's constant-update case) and a scan of its source's live runs
otherwise (Section 6's open case), so a store may hold hashed and scanned
slots side by side.

Registration changes patch the merged index incrementally
(:meth:`MergedDispatchIndex.add_query` / ``remove_query``): registering a
query touches only its own ``(relation, guard)`` buckets, O(|P_q|)-ish
instead of a rebuild over every registered transition, which is what keeps
register/unregister latency flat as the registry grows toward the
million-query target.

Positions are global to the engine's stream: a query registered at position
``p`` behaves exactly like an independent evaluator that started observing
the stream at ``p`` (its valuations carry global stream positions) — where it
reads an entry older queries have been filling, its probes and enumeration
are cut at ``max(position - window, p)`` instead of ``position - window``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.arena import ArenaDataStructure
from repro.core.kernel import backend_info, resolve_kernel
from repro.core.datastructure import DataStructure
from repro.cq.schema import Tuple
from repro.multi.merged_index import MergedDispatchIndex
from repro.multi.registry import QueryHandle, QueryRegistry, QuerySpec, compile_query
from repro.runtime import EngineStatistics, EvictionLane, StreamRuntime, fire
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    check_snapshot_header,
    stable_signature,
)
from repro.valuation import Valuation


class _Store(EvictionLane):
    """One window's run store, plus the slot space its queries are numbered into.

    ``next_slot`` only grows: what a departed query stored stays in ``H``
    until it expires, and a reused slot would alias it.  ``queries`` counts
    the registered queries living here; the engine drops the store with its
    last one.
    """

    __slots__ = ("next_slot", "queries")

    def __init__(self, window: int, ds) -> None:
        super().__init__(window, ds)
        self.next_slot = 0
        self.queries = 0


class _Registered:
    """One registered query: its dispatch index, the store its runs live in,
    the first position it observed, and its automaton-slot -> store-slot table."""

    __slots__ = ("handle", "dispatch", "store", "since", "slots")

    def __init__(self, handle: QueryHandle, pcea) -> None:
        self.handle = handle
        self.dispatch = pcea.dispatch_index()
        self.store: Optional[_Store] = None
        self.since = 0
        self.slots: Optional[tuple] = None


class MultiQueryEngine:
    """Evaluate many registered patterns over one stream in a single pass.

    Parameters
    ----------
    registry:
        Optional externally owned :class:`QueryRegistry`; by default the
        engine creates its own.  Queries already present in a supplied
        registry are picked up at construction time.
    collect_stats:
        With ``True``, the shared loop maintains
        :class:`~repro.runtime.EngineStatistics`; off by default (production
        mode).
    arena:
        With ``True`` (default) each store's enumeration structure is the
        arena-backed :class:`~repro.core.arena.ArenaDataStructure`, whose
        expired slabs the shared eviction sweep releases wholesale; ``False``
        restores the object-graph ``DS_w`` (ablation / differential
        testing).
    kernel:
        Record-operation backend for every store's arena hot path
        (``"python"`` / ``"native"`` / ``"auto"``; ``None`` defers to
        ``REPRO_KERNEL`` then auto-detection — :mod:`repro.core.kernel`).
        Resolved once at construction so every store — including those
        opened mid-stream — runs the same backend; ignored with
        ``arena=False``.

    Registration admits any automaton: joins in ``B_eq`` (Algorithm 1's
    hypothesis) probe ``H`` by key, the others scan their source's live
    runs, which costs time linear in them.  ``position`` and the counters are settable
    because the differential tests reseat reference engines mid-stream
    (``engine.position = p - 1``) and benchmarks reset counters.
    """

    #: The attached :class:`repro.obs.Observer` (set on the instance by ``attach``).
    _observer = None

    def __init__(
        self,
        registry: Optional[QueryRegistry] = None,
        collect_stats: bool = False,
        arena: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        self.registry = registry if registry is not None else QueryRegistry()
        self._arena = arena
        # Resolve the backend once (surfacing bad explicit choices here, not
        # at some later mid-stream registration) and pass the resolved name
        # to every store.
        self._kernel = resolve_kernel(kernel) if arena else None
        self._count_stats = collect_stats
        self._runtime = StreamRuntime()
        self._runtime.count_stats = collect_stats
        self._queries: Dict[int, _Registered] = {}
        # window -> the store a registration under that window joins.
        self._stores: Dict[int, _Store] = {}
        self._merged = MergedDispatchIndex(())
        if registry is not None:
            for entry in registry.entries():
                self._admit(entry)

    # ----------------------------------------------------------------- stores
    def _open_store(self, window: int) -> _Store:
        """A fresh run store (the one place the engine builds a ``DS_w``)."""
        if self._arena:
            return _Store(window, ArenaDataStructure(window, kernel=self._kernel))
        return _Store(window, DataStructure(window))

    def _add_store(self, store: _Store) -> _Store:
        """Make ``store`` its window's store, swept by the runtime."""
        self._stores[store.window] = self._runtime.add_lane(store)
        observer = self._observer
        if observer is not None:
            observer.observe_lane(store)
        return store

    def _admit(self, entry) -> _Registered:
        """Seat a registry entry in its window's store, observing from the next
        tuple, and merge it into the index; its scan slots open empty in the
        store.  A query the index refuses (``ValueError``) leaves the engine
        as it was: its store, if it needed a new one, opens only once the
        index took it."""
        query = _Registered(entry.handle, entry.pcea)
        store = self._stores.get(entry.handle.window)
        opened = store is None
        if opened:
            store = self._open_store(entry.handle.window)
        query.store, query.since = store, self.position + 1
        observer = self._observer
        start = perf_counter() if observer is not None else 0.0
        query.slots = self._merged.add_query(query, query.dispatch, store, query.since)
        if observer is not None:
            observer.on_index_patch("add", perf_counter() - start, len(query.dispatch))
        if opened:
            self._add_store(store)
        scan_slots = query.dispatch.structure.scan_slots
        if scan_slots:
            if store.scans is None:
                store.scans = {}
            for slot in scan_slots.values():
                store.scans[query.slots[slot]] = {}
        store.queries += 1
        self._queries[entry.handle.id] = query
        return query

    def _leave(self, query: _Registered) -> None:
        """Take a query out of the index and its store, its scan slots with
        their runs (a scanned state is its query's alone); an empty store
        goes whole."""
        self._merged.remove_query(query)
        store = query.store
        scans = store.scans
        for slot in query.dispatch.structure.scan_slots.values():
            slot = query.slots[slot]
            for seq in scans.pop(slot):
                del store.hash[(slot, seq)]
        if scans is not None and not scans:
            store.scans = None
        store.queries -= 1
        if not store.queries:
            self._runtime.drop_lane(store)
            if self._stores.get(store.window) is store:
                del self._stores[store.window]

    def _ordered(self) -> List[_Registered]:
        """The registered queries in registration order (the snapshot order)."""
        return [self._queries[entry.handle.id] for entry in self.registry.entries()]

    # ----------------------------------------------------------- registration
    def register(
        self, query: QuerySpec, window: int, name: Optional[str] = None
    ) -> QueryHandle:
        """Register a query mid-stream; it starts observing at the next tuple."""
        handle = self.registry.register(compile_query(query), window, name)
        try:
            self._admit(self.registry.get(handle))
        except ValueError:
            self.registry.withdraw(handle)  # refused: as if never registered
            raise
        return handle

    def unregister(self, handle: QueryHandle) -> None:
        """Drop a query; its outputs stop immediately.

        Its plan members go, and so does every leaf class it was the last
        user of.  What it stored stays in its store's ``H`` and ``DS_w``
        until the sweep expires it — memory is returned within ``window + 1``
        positions, not at once — except that a store whose last query left
        is dropped whole.
        """
        self.registry.unregister(handle)
        registered = self._queries.pop(handle.id)
        observer = self._observer
        start = perf_counter() if observer is not None else 0.0
        self._leave(registered)
        if observer is not None:
            observer.on_index_patch("remove", perf_counter() - start, len(registered.dispatch))

    def handles(self) -> List[QueryHandle]:
        """Handles of the registered queries, in registration order."""
        return [entry.handle for entry in self.registry.entries()]

    # -------------------------------------------------------------- main loop
    def run(
        self, stream: Iterable[Tuple], collect: bool = True
    ) -> Dict[int, Dict[int, Sequence[Valuation]]]:
        """Process a finite stream; with ``collect`` return outputs per position."""
        results: Dict[int, Dict[int, Sequence[Valuation]]] = {}
        for tup in stream:
            outputs = self.process(tup)
            if collect and outputs:
                results[self.position] = outputs
        return results

    def process(self, tup: Tuple) -> Dict[int, Sequence[Valuation]]:
        """Process one tuple for every registered query.

        Returns ``{query id: [valuations]}`` containing only the queries that
        produced output at this position (route with
        :meth:`QueryHandle.id <QueryHandle>` keys).
        """
        return self._process(tup, sweep=True)

    def process_many(
        self, tuples: Sequence[Tuple]
    ) -> List[Dict[int, Sequence[Valuation]]]:
        """Batched ingestion: one eviction sweep for the whole batch.

        Semantically identical to ``[self.process(t) for t in tuples]`` —
        the deferred-sweep correctness argument is the runtime's
        :meth:`~repro.runtime.StreamRuntime.drive_batch` contract.
        """
        process = self._process
        return self._runtime.drive_batch(
            tuples, lambda tup: process(tup, sweep=False)
        )

    def watched_relations(self):
        """The relations some registered query reads (a live set-like view),
        or ``None`` for "every relation" (a wildcard transition is registered).

        What the ingest server asks before it builds a batch: tuples of other
        relations may be left out of a :class:`~repro.runtime.SparseBatch`.
        """
        return self._merged.watched_relations()

    def _process(self, tup: Tuple, sweep: bool) -> Dict[int, Sequence[Valuation]]:
        finals = self._fire(tup, sweep)
        if not finals:
            return {}
        outputs: Dict[int, Sequence[Valuation]] = {}
        enumerate_query = self._enumerate
        for query, nodes in finals.items():
            valuations = enumerate_query(query, nodes)
            if valuations:
                outputs[query.handle.id] = valuations
        return outputs

    def _fire(self, tup: Tuple, sweep: bool) -> Optional[Dict[_Registered, list]]:
        """The update phase of one tuple: ``{query: final-state nodes}`` for
        the queries that reached a final state (``None`` when none did)."""
        runtime = self._runtime
        position = runtime.advance()
        if sweep:
            runtime.sweep(position)
        # One merged lookup serves every query; the shared fire loop then
        # evaluates one predicate per group or family and joins in each
        # member's store.
        plan = self._merged.plan_for(tup)
        stats = None
        if self._count_stats:
            stats = runtime.stats
            evaluated = len(plan.groups) + len(plan.families)
            stats.tuples_processed += 1
            stats.transitions_scanned += plan.total
            stats.predicate_evaluations += evaluated
            stats.predicate_cache_hits += plan.total - evaluated
        return fire(plan, tup, position, runtime.buckets, stats)

    def _enumerate(self, query: _Registered, nodes: Sequence) -> Sequence[Valuation]:
        """The outputs ``query``'s final-state ``nodes`` represent at the current
        position: one :class:`~repro.valuation.PackedValuations` on the arena
        (nothing read yet), a list on the object-graph oracle."""
        store = query.store
        position = self._runtime.position
        # Window-restricted by the store's DS_w — and to what the query has
        # observed: nothing that starts before ``since``.
        horizon = query.since + store.window
        if horizon < position:
            horizon = position
        valuations = store.ds.outputs(nodes, horizon)
        if self._count_stats:
            self._runtime.stats.outputs_enumerated += len(valuations)
        return valuations

    # ------------------------------------------------------- snapshot protocol
    def _check_seating(self, queries: Sequence[_Registered], placement, lanes) -> List[tuple]:
        """The snapshot's placement rows as ``(store index, since, slot
        table)``, with everything re-seating ``queries`` relies on checked:
        a store's ``scan`` section lists exactly the scan slots of the
        queries placed in it, and a store without any has none."""
        if not self._arena:
            raise SnapshotError(
                "restoring run stores requires the arena-backed enumeration "
                "structure (construct the engine with arena=True)"
            )
        if len(placement) != len(queries):
            raise SnapshotError(
                f"snapshot places {len(placement)} queries, {len(queries)} to seat"
            )
        windows = [lane["window"] for lane in lanes]
        if len(set(windows)) != len(windows):
            raise SnapshotError("snapshot holds two run stores for one window")
        rows = []
        scanned = [set() for _ in lanes]
        for query, (where, since, slots) in zip(queries, placement):
            where, since, slots = int(where), int(since), tuple([int(slot) for slot in slots])
            if not 0 <= where < len(lanes) or lanes[where]["window"] != query.handle.window:
                raise SnapshotError(
                    f"query {query.handle} (window {query.handle.window}) does not fit "
                    "the window of the store the snapshot places it in"
                )
            if len(slots) != len(query.dispatch.slots):
                raise SnapshotError(f"query {query.handle} does not fit its snapshot slot table")
            scanned[where].update(slots[slot] for slot in query.dispatch.structure.scan_slots.values())
            rows.append((where, since, slots))
        for where, lane in enumerate(lanes):
            listed = set(dict(lane["scan"]["runs"])) if "scan" in lane else set()
            if listed != scanned[where] or "scan" in lane and not listed:
                raise SnapshotError(f"run store {where} does not list the scan slots of its queries")
        return rows

    def _restored_stores(self, lanes) -> List[_Store]:
        """The snapshot's stores, restored in snapshot order but not yet the
        engine's: a store whose records fail the checks raises here, before
        anything is replaced."""
        stores = []
        for lane in lanes:
            store = self._open_store(lane["window"])
            store.restore(lane)
            store.next_slot = int(lane["next_slot"])
            stores.append(store)
        return stores

    def snapshot(self) -> Dict[str, object]:
        """The engine's complete evaluation state (see :mod:`repro.runtime.snapshot`).

        Carries the registry's handle table and the merged-index
        ``signature()`` (made process-portable by
        :func:`~repro.runtime.snapshot.stable_signature`) for verification,
        the runtime state, one lane snapshot per run store, and each query's
        placement — its store, the first position it observed and its slot
        table — in registration order.  Restorable into a fresh engine that
        registered the *same query specifications in the same order* — handle
        ids are remapped from the snapshot, so output routing and later
        registrations continue exactly as in the snapshotted run.
        """
        queries = self._ordered()
        stores = list(dict.fromkeys(query.store for query in queries))
        where = {store: index for index, store in enumerate(stores)}
        lanes = []
        for store in stores:
            lane = store.snapshot()
            lane["next_slot"] = store.next_slot
            lanes.append(lane)
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": "multi",
            "registry": self.registry.snapshot(),
            "merged_signature": stable_signature(self._merged.signature()),
            "placement": [(where[query.store], query.since, query.slots) for query in queries],
            "lanes": lanes,
            "runtime": self._runtime.snapshot(
                {store.lane_id: index for store, index in where.items()}
            ),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt ``snapshot``'s state; processing then continues bit-identically.

        The engine must hold the snapshot's queries (same specifications,
        same registration order, same per-query windows, ``arena=True``) —
        verified structurally through the merged-index
        signature.  Registered handles are rewritten to the snapshot's
        ids/names (see :meth:`QueryRegistry.restore_handles
        <repro.multi.registry.QueryRegistry.restore_handles>`), and every
        query is re-seated in the store, and from the position, the snapshot
        recorded for it.  Every section is read and checked before anything
        changes: a refused restore leaves the engine as it was.
        """
        check_snapshot_header(snapshot, "multi")
        try:
            registry_snap = snapshot["registry"]
            runtime_snap = snapshot["runtime"]
            placement, lanes = snapshot["placement"], snapshot["lanes"]
        except KeyError as exc:
            raise SnapshotError(f"snapshot is missing the {exc} section") from exc
        queries = self._ordered()
        if stable_signature(self._merged.signature()) != snapshot["merged_signature"]:
            raise SnapshotError(
                "snapshot was taken from an engine with different registered "
                "queries (merged-index signatures differ)"
            )
        placement = self._check_seating(queries, placement, lanes)
        stores = self._restored_stores(lanes)
        runtime_state = StreamRuntime.parse(runtime_snap, len(stores))
        merged = MergedDispatchIndex(())
        for query, (where, since, slots) in zip(queries, placement):
            merged.add_query(query, query.dispatch, stores[where], since, slots)
        try:  # the last check: the registry changes only once its table is read
            handles = self.registry.restore_handles(registry_snap)
        except ValueError as exc:
            raise SnapshotError(str(exc)) from exc
        self._queries = {}
        for handle, query in zip(handles, queries):
            query.handle = handle
            self._queries[handle.id] = query
        for store in {query.store for query in queries}:
            self._runtime.drop_lane(store)
        self._stores = {}
        for store in stores:
            self._add_store(store)
        for query, (where, since, slots) in zip(queries, placement):
            query.store, query.since, query.slots = stores[where], since, slots
            query.store.queries += 1
        self._merged = merged
        self._runtime.restore(runtime_state, stores)

    # ------------------------------------------------------------ introspection
    @property
    def position(self) -> int:
        """Current global stream position (owned by the shared runtime)."""
        return self._runtime.position

    @position.setter
    def position(self, value: int) -> None:
        self._runtime.position = value

    @property
    def evicted(self) -> int:
        """Entries reclaimed by the shared eviction sweep so far."""
        return self._runtime.evicted

    @evicted.setter
    def evicted(self, value: int) -> None:
        self._runtime.evicted = value

    @property
    def stats(self) -> EngineStatistics:
        return self._runtime.stats

    @stats.setter
    def stats(self, value: EngineStatistics) -> None:
        self._runtime.stats = value

    @property
    def _expiry_buckets(self) -> Dict[int, List[object]]:
        return self._runtime.buckets

    @property
    def nodes_scanned(self) -> int:
        """Stored runs scan probes have read, statistics collected or not."""
        return sum(lane.nodes_scanned for lane in self._runtime.lanes())

    def reset_statistics(self) -> None:
        self._runtime.reset_statistics()

    def memory_info(self) -> Dict[str, int]:
        """Enumeration-structure occupancy aggregated across the stores."""
        return self._runtime.memory_info()

    def hash_table_size(self) -> int:
        """Total entries across the stores' run-index tables."""
        return self._runtime.hash_table_size()

    def kernel_info(self) -> Dict[str, object]:
        """Which record-operation backend this engine's hot path runs.

        :func:`repro.core.kernel.backend_info` (what the process *can* run)
        plus ``"active"`` — the backend resolved at construction, which every
        store runs (``"python"`` / ``"native"``), or ``"object"`` for the
        object-graph structure (``arena=False``).
        """
        info = backend_info()
        info["active"] = self._kernel or "object"
        return info

    def dispatch_info(self) -> Dict[str, float]:
        """Merged-index layout/sharing statistics (the CLI ``--stats`` dispatch line)."""
        return self._merged.describe()

    def relation_fanout(self) -> Dict[str, int]:
        """Per-relation candidate fan-out (``"*"`` = wildcard fallback)."""
        return self._merged.relation_fanout()

    def observe(self) -> Dict[str, object]:
        """One point-in-time snapshot of every introspection surface.

        Folds ``stats`` / ``dispatch_info`` / ``memory_info`` /
        ``kernel_info`` (plus the cursor counters and the enumeration-structure
        counters summed over the engine's stores) into a single dict —
        the one shape the :meth:`repro.obs.Observer.observe_engine` gauge
        refresh, the CLI ``--stats`` lines and the tests consume.
        """
        runtime = self._runtime
        snapshot: Dict[str, object] = {
            "engine": type(self).__name__,
            "position": runtime.position,
            "hash_entries": runtime.hash_table_size(),
            "evicted": runtime.evicted,
            "stats": dataclasses.asdict(runtime.stats),
            "dispatch": self.dispatch_info(),
            "fanout": self.relation_fanout(),
            "memory": self.memory_info(),
            "kernel": self.kernel_info(),
        }
        structures = [lane.ds for lane in runtime.lanes() if hasattr(lane.ds, "nodes_created")]
        if structures:
            snapshot["ds"] = {
                field: sum(getattr(ds, field, 0) for ds in structures)
                for field in ("nodes_created", "union_calls", "union_copies")
            }
        return snapshot

    def ingest_batch(self, tuples: Sequence[object]):
        """The network front end's batch-drain hook.

        Returns ``(base_position, outputs)`` where ``outputs`` is whatever
        :meth:`process_many` produces and ``base_position`` is the stream
        position of the batch's first tuple — so a caller that did not count
        tuples itself (the ingest server coalescing frames from many
        connections) can stamp every output with its global position.
        ``tuples`` may be a :class:`~repro.runtime.SparseBatch`: ``outputs[i]``
        then belongs to position ``base_position + tuples.offsets[i]``, and
        the positions it leaves out are crossed without building their tuples.
        """
        base = self._runtime.position + 1
        return base, self.process_many(tuples)

    def attach_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer` (see its ``attach``)."""
        observer.attach(self)

    def detach_observer(self) -> None:
        """Detach the current observer, if any (restores the plain hot path)."""
        observer = self._observer
        if observer is not None:
            observer.detach(self)

    @property
    def observer(self):
        """The attached :class:`repro.obs.Observer`, or ``None``."""
        return self._observer

    def __repr__(self) -> str:
        return (
            f"MultiQueryEngine({len(self._queries)} queries, position={self.position}, "
            f"|H|={self.hash_table_size()})"
        )
