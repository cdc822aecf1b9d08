"""The shard coordinator: one client-facing engine over N worker processes.

:class:`ShardedEngine` partitions registered queries across worker processes
(each running one :class:`~repro.multi.engine.MultiQueryEngine` behind
:func:`~repro.shard.worker.worker_main`) and broadcasts every stream batch to
every worker.  Broadcasting is the exactness trick: all workers advance
through the *same* global stream positions, so per-query ``max_start``
eviction, match positions and batched-sweep timing are bit-identical to a
single shared engine — the only thing divided by N is the per-tuple
evaluation work, because each worker stores runs only for its shard's queries.
Matches fan back in keyed by the coordinator's *global* handle ids, so
``process_many`` returns exactly what one big ``MultiQueryEngine`` would.

Exactness under failure and rebalancing
---------------------------------------
The coordinator keeps, per shard, a command log of every state-changing
frame since that shard's last checkpoint (batch frames are shared between
the logs — one encoded frame object, N references).  Worker replies are the
*only* thing that mutates coordinator state, and every worker command is
deterministic, so:

* **rebalance** — moving queries is an ``extract`` on the source (a
  store-scoped snapshot out, the queries dropped) and an ``adopt`` on the
  target, both between batches where every worker sits at the same stream
  position.  The snapshot carries the queries' run stores — hash tables,
  enumeration structures, expiry buckets — which the target keeps as stores
  of their own, so no match is lost; the source dropped the queries
  atomically, so none is duplicated.
* **worker death** — detected as a broken pipe; the coordinator spawns a
  fresh worker, re-registers the shard's checkpoint roster, restores the
  checkpoint snapshot, then replays the log.  Replayed batch replies are
  discarded except the last (the batch in flight when the worker died), so
  the client sees each match exactly once.  With no checkpoint taken yet the
  log reaches back to the shard's birth and replay alone reconstructs it.

Queries must be *picklable* specifications (query strings,
:class:`~repro.cq.query.ConjunctiveQuery` objects, DSL patterns or PCEAs
without closure predicates) — they cross the process boundary in frames.
Raises :class:`~repro.runtime.frames.FrameProtocolError` at registration
otherwise, with the registry rolled back.

``start_method="inline"`` runs the shards in-process behind the same frame
codec — no processes, same message semantics — which is what the
differential and hypothesis tests drive (and a useful single-process
debugging mode).
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from time import perf_counter, process_time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple as Tup

from repro.cq.schema import Tuple
from repro.multi.registry import QueryHandle, QueryRegistry, QuerySpec
from repro.runtime.statistics import EngineStatistics
from repro.shard.pipes import FrameChannel, WorkerDied, pickle_frame, unpickle_frame
from repro.shard.placement import HashPlacement, PlacementPolicy
from repro.shard.worker import ShardWorker, worker_main
from repro.valuation import Valuation


class ShardError(RuntimeError):
    """A worker rejected a command (the reply was an ``error`` frame)."""


class _InlineChannel:
    """A ``FrameChannel`` look-alike driving a :class:`ShardWorker` in-process.

    Frames still round-trip through :func:`pickle_frame`/:func:`unpickle_frame`
    (so inline mode exercises the exact wire representation, protocol pins
    included); only the pipe and the process are elided.  Tests flip
    :attr:`dead` to simulate a crashed worker and exercise recovery without
    paying process spawns.
    """

    __slots__ = (
        "worker",
        "dead",
        "_replies",
        "frames_sent",
        "frames_received",
        "bytes_sent",
        "bytes_received",
    )

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.dead = False
        self._replies: deque = deque()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_raw(self, frame: bytes) -> None:
        if self.dead:
            raise WorkerDied("inline worker was marked dead")
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        start = process_time()
        try:
            reply = self.worker.handle(unpickle_frame(frame))
        except Exception as exc:  # mirror worker_main's containment
            reply = ("error", f"{type(exc).__name__}: {exc}")
        encoded = pickle_frame(reply)
        self.worker.busy_seconds += process_time() - start
        self._replies.append(encoded)

    def recv_raw(self) -> bytes:
        if self.dead:
            raise WorkerDied("inline worker was marked dead")
        frame = self._replies.popleft()
        self.frames_received += 1
        self.bytes_received += len(frame)
        return frame

    def close(self) -> None:
        self._replies.clear()


class _Shard:
    """One shard's coordinator-side bookkeeping."""

    __slots__ = ("index", "process", "channel", "roster", "log")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None  # multiprocessing.Process, or None inline
        self.channel = None  # FrameChannel or _InlineChannel
        self.roster: List[int] = []  # global ids owned, registration order
        self.log: List[bytes] = []  # frames since the last checkpoint


class ShardedEngine:
    """Parallel multi-query evaluation: N workers, one engine's semantics.

    Parameters
    ----------
    workers:
        Number of shards (worker processes).
    placement:
        :class:`~repro.shard.placement.PlacementPolicy` deciding which shard
        owns each newly registered query (:class:`HashPlacement` default).
    start_method:
        ``"spawn"`` (default; safest, exercised by the spawn-safety tests),
        ``"fork"``/``"forkserver"`` where the platform offers them, or
        ``"inline"`` for in-process shards behind the same frame codec.
    checkpoint_interval:
        Take a coordinator checkpoint automatically every this many stream
        positions (``None`` disables; :meth:`checkpoint` is always available
        explicitly).  Checkpoints bound the log replayed on worker death.
    collect_stats / arena / kernel / adaptive:
        Forwarded to every worker's ``MultiQueryEngine``.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        placement: Optional[PlacementPolicy] = None,
        start_method: str = "spawn",
        checkpoint_interval: Optional[int] = None,
        collect_stats: bool = False,
        arena: bool = True,
        kernel: Optional[str] = None,
        adaptive: object = True,
    ) -> None:
        if workers < 1:
            raise ValueError("a sharded engine needs at least 1 worker")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1 position")
        self._config = {
            "collect_stats": collect_stats,
            "arena": arena,
            "kernel": kernel,
            "adaptive": adaptive,
        }
        self._placement = placement if placement is not None else HashPlacement()
        self._start_method = start_method
        self._ctx = None if start_method == "inline" else multiprocessing.get_context(start_method)
        self._registry = QueryRegistry()  # allocates the *global* handle ids
        self._specs: Dict[int, Tup[str, int, QuerySpec]] = {}  # gid -> (name, window, spec)
        self._assignment: Dict[int, int] = {}  # gid -> shard index
        self._checkpoints: Dict[int, Dict[str, Any]] = {}  # shard index -> ckpt
        self._checkpoint_interval = checkpoint_interval
        self._last_checkpoint = -1
        self._position = -1  # mirrors every worker's stream position
        self._observer = None
        self._closed = False
        self.rebalances = 0
        self.recoveries = 0
        self.checkpoints_taken = 0
        self.batches = 0
        self.fan_in_matches = 0
        self._shards = [_Shard(index) for index in range(workers)]
        try:
            for shard in self._shards:
                self._spawn(shard)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------- lifecycle
    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) ``shard``'s worker and handshake with it."""
        if self._start_method == "inline":
            shard.process = None
            shard.channel = _InlineChannel(ShardWorker(self._config))
        else:
            parent_end, child_end = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(child_end, self._config),
                name=f"repro-shard-{shard.index}",
                daemon=True,
            )
            process.start()
            child_end.close()  # the parent keeps only its own end
            shard.process = process
            shard.channel = FrameChannel(parent_end)
        # Handshake: a worker that failed to import/construct shows up here,
        # at spawn, not as a broken pipe mid-stream.
        shard.channel.send_raw(pickle_frame(("ping",)))
        reply = unpickle_frame(shard.channel.recv_raw())
        if reply[0] != "pong":
            raise ShardError(f"shard {shard.index} failed its handshake: {reply!r}")

    def close(self) -> None:
        """Shut every worker down and release the pipes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            channel = shard.channel
            if channel is None:
                continue
            try:
                channel.send_raw(pickle_frame(("close",)))
                unpickle_frame(channel.recv_raw())
            except WorkerDied:
                pass
            channel.close()
            shard.channel = None
            process = shard.process
            if process is not None:
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5)
                shard.process = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- messaging
    def _ask(self, shard: _Shard, message: Tup[Any, ...], *, log: bool = True) -> Tup[Any, ...]:
        """One command round-trip, with logging and death recovery.

        Logged commands that hit a dead worker are answered by the replay at
        the end of :meth:`_revive` (the command is the log's last entry);
        unlogged ones (checkpoint probes) are simply re-asked after revival.
        """
        frame = pickle_frame(message)
        if log:
            shard.log.append(frame)
        try:
            shard.channel.send_raw(frame)
            reply = unpickle_frame(shard.channel.recv_raw())
        except WorkerDied:
            reply = self._revive(shard)
            if not log:
                frame = pickle_frame(message)
                shard.channel.send_raw(frame)
                reply = unpickle_frame(shard.channel.recv_raw())
        if reply[0] == "error":
            raise ShardError(f"shard {shard.index} rejected {message[0]}: {reply[1]}")
        return reply

    def _revive(self, shard: _Shard) -> Optional[Tup[Any, ...]]:
        """Replace a dead worker, reconstructing its state exactly.

        Fresh process → checkpoint roster re-registered → checkpoint snapshot
        restored → log replayed.  Returns the reply to the last logged frame
        (the command in flight when the death was detected), or ``None`` for
        an empty log.  A second death during revival is unrecoverable and
        propagates as :class:`WorkerDied`.
        """
        self.recoveries += 1
        if shard.channel is not None:
            shard.channel.close()
        process = shard.process
        if process is not None:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - kill-resistant worker
                process.terminate()
                process.join(timeout=5)
        self._spawn(shard)
        checkpoint = self._checkpoints.get(shard.index)
        if checkpoint is not None:
            if checkpoint["roster"]:
                self._direct(shard, ("register_many", checkpoint["roster"]))
            self._direct(shard, ("restore", checkpoint["snapshot"]))
        last: Optional[Tup[Any, ...]] = None
        for frame in shard.log:
            shard.channel.send_raw(frame)
            last = unpickle_frame(shard.channel.recv_raw())
            if last[0] == "error":
                raise ShardError(
                    f"shard {shard.index} diverged during replay: {last[1]}"
                )
        return last

    def _direct(self, shard: _Shard, message: Tup[Any, ...]) -> Tup[Any, ...]:
        """An unlogged, unrecovered round-trip (revival internals)."""
        shard.channel.send_raw(pickle_frame(message))
        reply = unpickle_frame(shard.channel.recv_raw())
        if reply[0] == "error":
            raise ShardError(f"shard {shard.index} rejected {message[0]}: {reply[1]}")
        return reply

    # ----------------------------------------------------------- registration
    @property
    def workers(self) -> int:
        return len(self._shards)

    def _loads(self) -> List[int]:
        return [len(shard.roster) for shard in self._shards]

    def register(
        self, query: QuerySpec, window: int, name: Optional[str] = None
    ) -> QueryHandle:
        """Register a query on the shard the placement policy picks.

        The coordinator compiles ``query`` first (so malformed queries fail
        here, with the registry untouched), then ships the *specification*
        to the worker, which compiles its own copy.
        """
        handle = self._registry.register(query, window, name)
        try:
            index = self._place(handle)
            shard = self._shards[index]
            self._specs[handle.id] = (handle.name, handle.window, query)
            self._assignment[handle.id] = index
            shard.roster.append(handle.id)
            self._ask(shard, ("register", handle.id, handle.name, handle.window, query))
        except Exception:
            self._registry.unregister(handle)
            self._specs.pop(handle.id, None)
            index = self._assignment.pop(handle.id, None)
            if index is not None:
                self._shards[index].roster.remove(handle.id)
            raise
        return handle

    def register_many(
        self, queries: Iterable[Tup], default_window: Optional[int] = None
    ) -> List[QueryHandle]:
        """Bulk registration: one ``register_many`` frame per shard.

        ``queries`` holds ``(query, window)`` or ``(query, window, name)``
        tuples.  Equivalent to a :meth:`register` loop but pays one command
        round-trip per *shard* instead of per query — the difference between
        seconds and minutes at K=1024.
        """
        handles: List[QueryHandle] = []
        per_shard: Dict[int, List[Tup[int, str, int, QuerySpec]]] = {}
        try:
            for item in queries:
                query, window = item[0], item[1]
                name = item[2] if len(item) > 2 else None
                handle = self._registry.register(query, window, name)
                index = self._place(handle)
                self._specs[handle.id] = (handle.name, handle.window, query)
                self._assignment[handle.id] = index
                self._shards[index].roster.append(handle.id)
                per_shard.setdefault(index, []).append(
                    (handle.id, handle.name, handle.window, query)
                )
                handles.append(handle)
            for index, entries in per_shard.items():
                self._ask(self._shards[index], ("register_many", entries))
        except Exception:
            for handle in handles:
                if handle in self._registry:
                    self._registry.unregister(handle)
                self._specs.pop(handle.id, None)
                index = self._assignment.pop(handle.id, None)
                if index is not None and handle.id in self._shards[index].roster:
                    self._shards[index].roster.remove(handle.id)
            raise
        return handles

    def _place(self, handle: QueryHandle) -> int:
        index = self._placement.assign(handle, len(self._shards), self._loads())
        if not 0 <= index < len(self._shards):
            raise ValueError(
                f"{self._placement!r} placed {handle} on shard {index}; "
                f"this engine has shards 0..{len(self._shards) - 1}"
            )
        return index

    def unregister(self, handle: QueryHandle) -> None:
        """Drop a query everywhere; raises ``KeyError`` for stale handles."""
        if handle.id not in self._assignment:
            raise KeyError(f"no registered query with handle {handle}")
        self._registry.unregister(handle)
        index = self._assignment.pop(handle.id)
        del self._specs[handle.id]
        shard = self._shards[index]
        shard.roster.remove(handle.id)
        self._ask(shard, ("unregister", handle.id))

    def handles(self) -> List[QueryHandle]:
        """Handles of the registered queries, in registration order."""
        return [entry.handle for entry in self._registry.entries()]

    def assignment(self) -> Dict[int, int]:
        """Current query placement: global handle id → shard index."""
        return dict(self._assignment)

    # ------------------------------------------------------------- processing
    def process(self, event: Tuple) -> Dict[int, List[Valuation]]:
        """Single-tuple ingestion (a batch of one; prefer :meth:`process_many`)."""
        return self.process_many([event])[0]

    def process_many(
        self, tuples: Sequence[Tuple]
    ) -> List[Dict[int, List[Valuation]]]:
        """Broadcast one batch to every shard and fan the matches back in.

        Per-tuple output dicts are keyed by *global* handle id, exactly as a
        single ``MultiQueryEngine.process_many`` keys them by its handle ids
        — a client routing outputs through :meth:`handles` sees no
        difference.  The batch frame is encoded once and written to every
        worker; replies are collected only after every live worker has the
        frame, so workers evaluate concurrently.
        """
        tuples = list(tuples)
        if not tuples:
            return []
        start = perf_counter()
        base_position = self._position + 1
        frame = pickle_frame(("batch", tuples))
        dead: List[_Shard] = []
        for shard in self._shards:
            shard.log.append(frame)
            try:
                shard.channel.send_raw(frame)
            except WorkerDied:
                dead.append(shard)  # revived (and replayed) in the fan-in loop
        results: List[Dict[int, List[Valuation]]] = [dict() for _ in tuples]
        for shard in self._shards:
            if shard in dead:
                reply = self._revive(shard)
            else:
                try:
                    reply = unpickle_frame(shard.channel.recv_raw())
                except WorkerDied:
                    reply = self._revive(shard)
            if reply is None or reply[0] != "matches":
                detail = reply[1] if reply and reply[0] == "error" else repr(reply)
                raise ShardError(f"shard {shard.index} failed the batch: {detail}")
            if reply[1] != base_position:
                raise ShardError(
                    f"shard {shard.index} is at stream position {reply[1] - 1}, "
                    f"the coordinator expected {base_position - 1} — shards lost sync"
                )
            for offset, gid, valuations in reply[2]:
                results[offset][gid] = valuations
                self.fan_in_matches += len(valuations)
        self._position += len(tuples)
        self.batches += 1
        observer = self._observer
        if observer is not None:
            observer.on_shard_batch(
                len(tuples), perf_counter() - start, self._position, len(self._shards)
            )
        if (
            self._checkpoint_interval is not None
            and self._position - self._last_checkpoint >= self._checkpoint_interval
        ):
            self.checkpoint()
        return results

    def ingest_batch(self, tuples: Sequence[Tuple]):
        """The network front end's batch-drain hook (see
        :meth:`repro.runtime.core.RuntimeBackedEngine.ingest_batch`)."""
        base = self._position + 1
        return base, self.process_many(tuples)

    # ------------------------------------------------- checkpoint / rebalance
    def checkpoint(self) -> None:
        """Snapshot every shard and truncate the recovery logs.

        The checkpoint (engine snapshot + owned-query roster, per shard)
        lives in the coordinator; a later worker death replays only the
        commands issued since.  Taken between batches, so every shard
        snapshots at the same stream position.
        """
        for shard in self._shards:
            reply = self._ask(shard, ("snapshot",), log=False)
            snapshot, order = reply[1], reply[2]
            roster = [(gid, *self._specs[gid]) for gid in order]
            self._checkpoints[shard.index] = {"snapshot": snapshot, "roster": roster}
            shard.log.clear()
        self._last_checkpoint = self._position
        self.checkpoints_taken += 1

    def rebalance(self, handle: QueryHandle, target: int) -> None:
        """Move one query's live state to shard ``target``, losing nothing.

        The source shard extracts the query's store-scoped snapshot (hash
        table, enumeration structure, pending expiry buckets) and drops the
        query; the target adopts it at the same stream position.  Outputs for
        the handle continue seamlessly — the differential tests assert
        bit-identical matches across a mid-stream rebalance.
        """
        if handle.id not in self._assignment:
            raise KeyError(f"no registered query with handle {handle}")
        if not 0 <= target < len(self._shards):
            raise ValueError(
                f"target shard {target} out of range 0..{len(self._shards) - 1}"
            )
        source = self._assignment[handle.id]
        if source == target:
            return
        start = perf_counter()
        name, window, spec = self._specs[handle.id]
        reply = self._ask(self._shards[source], ("extract", [handle.id]))
        partial = reply[1]
        self._shards[source].roster.remove(handle.id)
        try:
            self._ask(
                self._shards[target],
                ("adopt", partial, [(handle.id, name, window, spec)]),
            )
        except Exception:
            # The target refused (worker-side rollback already dropped the
            # queries there); put the state back where it came from.
            self._ask(
                self._shards[source],
                ("adopt", partial, [(handle.id, name, window, spec)]),
            )
            self._shards[source].roster.append(handle.id)
            raise
        self._shards[target].roster.append(handle.id)
        self._assignment[handle.id] = target
        self.rebalances += 1
        observer = self._observer
        if observer is not None:
            observer.on_rebalance(1, perf_counter() - start, source, target)

    # ---------------------------------------------------------- introspection
    @property
    def position(self) -> int:
        """Current global stream position (identical on every shard)."""
        return self._position

    @property
    def evicted(self) -> int:
        """Entries reclaimed across all shards (one ``observe`` round-trip)."""
        return int(self.observe()["evicted"])

    @property
    def stats(self) -> EngineStatistics:
        """Aggregated operation counters (one ``observe`` round-trip).

        Work counters (scans, predicate evaluations, hash operations, …) sum
        across shards — each query lives on exactly one shard, so together
        they are the single-engine totals up to the leaf states queries on
        different shards would have stored once.
        ``tuples_processed`` is *not* summed: every worker ingests every
        tuple, so the maximum (= any shard's count) is the stream's.
        """
        observed = self._observe_workers()
        total = EngineStatistics()
        for snapshot in observed:
            for field, value in snapshot["stats"].items():
                setattr(total, field, getattr(total, field) + value)
        if observed:
            total.tuples_processed = max(s["stats"]["tuples_processed"] for s in observed)
        return total

    def hash_table_size(self) -> int:
        """Total run-index entries across all shards."""
        return int(self.observe()["hash_entries"])

    def _observe_workers(self) -> List[Dict[str, Any]]:
        replies = [self._ask(shard, ("observe",), log=False) for shard in self._shards]
        return [reply[1] for reply in replies]

    def observe(self) -> Dict[str, object]:
        """One point-in-time snapshot, shaped like ``MultiQueryEngine.observe()``.

        The standard keys aggregate across shards (sums for additive
        counters, max/mean where summing would be meaningless); the extra
        ``"shard"`` section carries the coordinator's own counters and one
        entry per shard — the surface the CLI ``--stats`` shard line reads.
        """
        observed = self._observe_workers()
        stats_total: Dict[str, float] = {}
        for snapshot in observed:
            for field, value in snapshot["stats"].items():
                stats_total[field] = stats_total.get(field, 0) + value
        if observed:
            stats_total["tuples_processed"] = max(
                s["stats"]["tuples_processed"] for s in observed
            )
        dispatch: Dict[str, float] = {}
        for snapshot in observed:
            for field, value in snapshot["dispatch"].items():
                if field == "max_candidates":
                    dispatch[field] = max(dispatch.get(field, 0.0), value)
                elif field == "mean_candidates":
                    dispatch[field] = dispatch.get(field, 0.0) + value / len(observed)
                else:
                    dispatch[field] = dispatch.get(field, 0.0) + value
        fanout: Dict[str, int] = {}
        memory: Dict[str, int] = {}
        for snapshot in observed:
            for relation, candidates in snapshot["fanout"].items():
                fanout[relation] = fanout.get(relation, 0) + candidates
            for field, value in snapshot["memory"].items():
                memory[field] = memory.get(field, 0) + value
        kernel: Dict[str, object] = dict(observed[0]["kernel"]) if observed else {}
        active = {str(s["kernel"].get("active")) for s in observed}
        if len(active) == 1:
            kernel["active"] = active.pop()
        elif active:
            kernel["active"] = "mixed"
        adaptive_snaps = [s["adaptive"] for s in observed if "adaptive" in s]
        adaptive: Optional[Dict[str, object]] = None
        if adaptive_snaps:
            adaptive = {
                "enabled": True,
                "interval": adaptive_snaps[0]["interval"],
                "flushes": sum(a["flushes"] for a in adaptive_snaps),
                "reorders": sum(a["reorders"] for a in adaptive_snaps),
                "promotions": sum(a["promotions"] for a in adaptive_snaps),
                "demotions": sum(a["demotions"] for a in adaptive_snaps),
                "promoted": sum(a["promoted"] for a in adaptive_snaps),
                "tracked_relations": sum(a["tracked_relations"] for a in adaptive_snaps),
                "dormant_relations": sum(a["dormant_relations"] for a in adaptive_snaps),
            }
        per_shard = []
        frames_sent = frames_received = bytes_sent = bytes_received = 0
        for shard, snapshot in zip(self._shards, observed):
            channel = shard.channel
            frames_sent += channel.frames_sent
            frames_received += channel.frames_received
            bytes_sent += channel.bytes_sent
            bytes_received += channel.bytes_received
            per_shard.append(
                {
                    "shard": shard.index,
                    "queries": len(shard.roster),
                    "log_depth": len(shard.log),
                    "busy_seconds": snapshot["worker"]["busy_seconds"],
                    "hash_entries": snapshot["hash_entries"],
                    "frames_sent": channel.frames_sent,
                    "bytes_sent": channel.bytes_sent,
                }
            )
        snapshot_out: Dict[str, object] = {
            "engine": type(self).__name__,
            "position": self._position,
            "hash_entries": sum(s["hash_entries"] for s in observed),
            "evicted": sum(s["evicted"] for s in observed),
            "stats": stats_total,
            "dispatch": dispatch,
            "fanout": fanout,
            "memory": memory,
            "kernel": kernel,
            "shard": {
                "workers": len(self._shards),
                "start_method": self._start_method,
                "rebalances": self.rebalances,
                "recoveries": self.recoveries,
                "checkpoints": self.checkpoints_taken,
                "batches": self.batches,
                "fan_in_matches": self.fan_in_matches,
                "frames_sent": frames_sent,
                "frames_received": frames_received,
                "bytes_sent": bytes_sent,
                "bytes_received": bytes_received,
                "busy_seconds_max": max(
                    (s["worker"]["busy_seconds"] for s in observed), default=0.0
                ),
                "per_shard": per_shard,
            },
        }
        if adaptive is not None:
            snapshot_out["adaptive"] = adaptive
        return snapshot_out

    def adaptive_info(self) -> Optional[Dict[str, object]]:
        """Adaptive-dispatch counters summed across shards (``None`` if off)."""
        return self.observe().get("adaptive")

    def dispatch_info(self) -> Dict[str, float]:
        """Aggregated merged-index statistics (see :meth:`observe`)."""
        return dict(self.observe()["dispatch"])

    def memory_info(self) -> Dict[str, int]:
        """Aggregated enumeration-structure occupancy (see :meth:`observe`)."""
        return dict(self.observe()["memory"])

    def kernel_info(self) -> Dict[str, object]:
        """The workers' record-operation backend (``"mixed"`` if they differ)."""
        return dict(self.observe()["kernel"])

    # --------------------------------------------------------- observability
    def attach_observer(self, observer) -> None:
        """Register a :class:`repro.obs.Observer` for coordinator metrics.

        Pull-model only: the observer's collection loop reads
        :meth:`observe` into gauges, and the coordinator pushes
        ``on_shard_batch``/``on_rebalance`` events.  Workers run in other
        processes, so the per-tuple sampling shims never cross over — the
        zero-cost-when-disabled contract holds trivially on both sides.
        """
        if self._observer is not None:
            raise ValueError(
                "ShardedEngine already has an observer attached "
                "(call detach_observer() first)"
            )
        self._observer = observer
        observer.watch(self)

    def detach_observer(self) -> None:
        if self._observer is not None:
            self._observer.unwatch(self)
            self._observer = None

    @property
    def observer(self):
        return self._observer

    def __repr__(self) -> str:
        return (
            f"ShardedEngine({len(self._registry)} queries over "
            f"{len(self._shards)} workers [{self._start_method}], "
            f"position={self._position})"
        )
