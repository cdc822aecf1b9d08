"""The shard worker: one ``MultiQueryEngine`` behind a framed command loop.

A worker process owns the runtime state of the queries placed on its shard
and sees **every** stream tuple (the coordinator broadcasts each batch), so
its stream positions are the global positions — ``max_start`` eviction and
match positions are exactly those of a single shared engine, which is what
makes the fan-in output bit-identical.

Handle remapping
----------------
The coordinator allocates *global* handle ids from its own registry; the
worker's engine allocates its own *local* ids.  The worker keeps both maps
and translates at the boundary: commands arrive keyed by global id, matches
leave keyed by global id.  After a full-snapshot restore (worker recovery)
the engine rewrites its local ids to the snapshot's, so the maps are rebuilt
from the engine's post-restore handle list — the coordinator-visible global
ids never change.

Spawn safety
------------
The worker is start-method agnostic (``fork``, ``spawn`` and ``forkserver``
all work) because nothing it needs crosses the process boundary implicitly:

* all state is built *inside* the child from ``config`` and later command
  frames — the parent's engines, registries and interned tables are never
  inherited on purpose;
* the pipe connection is passed as a ``Process`` argument (connections are
  picklable through ``multiprocessing``'s reduction machinery under every
  start method);
* module-level state touched at import (kernel auto-detection, metric
  allocation counters, interned key tables) is re-created by the child's own
  import of :mod:`repro`;
* frames are pickled with :data:`~repro.shard.pipes.PICKLE_PROTOCOL`
  (``pickle.HIGHEST_PROTOCOL``) on both ends.

The module also carries a ``__main__`` guard: under ``spawn`` the child
re-imports modules by name, and importing this one must never start a
worker loop (or anything else) as a side effect.
"""

from __future__ import annotations

from time import process_time
from typing import Any, Dict, List, Optional, Tuple as Tup

from repro.multi.engine import MultiQueryEngine
from repro.multi.registry import QueryHandle
from repro.shard.pipes import FrameChannel, WorkerDied, pickle_frame, unpickle_frame


class ShardWorker:
    """Command handler around one :class:`MultiQueryEngine`.

    Transport-free on purpose: :func:`worker_main` drives it from a pipe in
    a child process, the inline (in-process) shards of
    :class:`~repro.shard.coordinator.ShardedEngine` drive it directly, and
    tests can poke commands at it synchronously.  Every mutating command is
    deterministic given the command sequence — worker recovery replays a
    command log against a fresh instance.
    """

    def __init__(self, config: Optional[Dict[str, Any]] = None) -> None:
        config = dict(config or {})
        self.engine = MultiQueryEngine(
            collect_stats=config.get("collect_stats", False),
            arena=config.get("arena", True),
            kernel=config.get("kernel"),
            adaptive=config.get("adaptive", True),
        )
        self._order: List[int] = []  # global ids in registration order
        self._local: Dict[int, QueryHandle] = {}  # global id -> local handle
        self._global: Dict[int, int] = {}  # local id -> global id
        self.busy_seconds = 0.0
        self.batches = 0
        self.tuples = 0

    # -------------------------------------------------------------- commands
    def handle(self, message: Tup[Any, ...]) -> Tup[Any, ...]:
        """Execute one command tuple, returning the reply tuple."""
        command = message[0]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise ValueError(f"unknown shard command {command!r}")
        return handler(*message[1:])

    def _register_one(self, gid: int, name: str, window: int, spec: Any) -> None:
        handle = self.engine.register(spec, window=window, name=name)
        self._order.append(gid)
        self._local[gid] = handle
        self._global[handle.id] = gid

    def _forget(self, gid: int) -> QueryHandle:
        handle = self._local.pop(gid)
        del self._global[handle.id]
        self._order.remove(gid)
        return handle

    def _rebuild_maps(self) -> None:
        """Re-derive the handle maps after a restore rewrote local ids."""
        handles = self.engine.handles()
        if len(handles) != len(self._order):
            raise ValueError(
                f"engine holds {len(handles)} queries, worker tracked {len(self._order)}"
            )
        self._local = dict(zip(self._order, handles))
        self._global = {handle.id: gid for gid, handle in self._local.items()}

    def _cmd_ping(self) -> Tup[Any, ...]:
        return ("pong", self.engine.position)

    def _cmd_register(self, gid: int, name: str, window: int, spec: Any) -> Tup[Any, ...]:
        self._register_one(gid, name, window, spec)
        return ("ok", gid)

    def _cmd_register_many(self, entries: List[Tup[int, str, int, Any]]) -> Tup[Any, ...]:
        for gid, name, window, spec in entries:
            self._register_one(gid, name, window, spec)
        return ("ok", len(entries))

    def _cmd_unregister(self, gid: int) -> Tup[Any, ...]:
        handle = self._forget(gid)
        self.engine.unregister(handle)
        return ("ok", gid)

    def _cmd_batch(self, tuples: List[Any]) -> Tup[Any, ...]:
        engine = self.engine
        base_position = engine.position + 1
        to_global = self._global
        entries: List[Tup[int, int, List[Any]]] = []
        for offset, outputs in enumerate(engine.process_many(tuples)):
            for local_id, valuations in outputs.items():
                entries.append((offset, to_global[local_id], valuations))
        self.batches += 1
        self.tuples += len(tuples)
        return ("matches", base_position, entries)

    def _cmd_snapshot(self) -> Tup[Any, ...]:
        return ("snapshot", self.engine.snapshot(), list(self._order))

    def _cmd_restore(self, snapshot: Dict[str, object]) -> Tup[Any, ...]:
        self.engine.restore(snapshot)
        self._rebuild_maps()
        return ("ok", self.engine.position)

    def _cmd_extract(self, gids: List[int]) -> Tup[Any, ...]:
        handles = [self._local[gid] for gid in gids]
        partial = self.engine.extract_queries(handles)
        for gid in gids:
            self.engine.unregister(self._forget(gid))
        return ("extracted", partial)

    def _cmd_adopt(
        self, partial: Dict[str, object], entries: List[Tup[int, str, int, Any]]
    ) -> Tup[Any, ...]:
        handles = []
        for gid, name, window, spec in entries:
            self._register_one(gid, name, window, spec)
            handles.append(self._local[gid])
        try:
            self.engine.adopt_queries(partial, handles)
        except Exception:
            # A rejected adopt leaves the queries registered, with nothing
            # stored; drop them so the worker's roster matches the
            # coordinator's view (which only commits the move on success).
            for gid, _, _, _ in entries:
                self.engine.unregister(self._forget(gid))
            raise
        return ("ok", len(entries))

    def _cmd_observe(self) -> Tup[Any, ...]:
        snapshot = self.engine.observe()
        snapshot["worker"] = {
            "busy_seconds": self.busy_seconds,
            "batches": self.batches,
            "tuples": self.tuples,
            "queries": len(self._order),
        }
        return ("observe", snapshot)

    def _cmd_close(self) -> Tup[Any, ...]:
        return ("bye",)


def worker_main(connection, config: Optional[Dict[str, Any]] = None) -> None:
    """The child-process entry point: frames in, frames out, until close.

    Busy time (frame decode + command handling + reply encode) is
    accumulated and reported through the ``observe`` command — the blocking
    wait for the next frame is excluded, which is what lets the scaling
    benchmark separate per-shard work (the critical path under true
    parallelism) from coordinator round-trip idle time.  It is measured
    with ``time.process_time`` (this process's CPU time), not wall-clock,
    so it stays honest when more workers than cores time-slice the machine
    — a descheduled worker is not busy.

    Errors from command handling are reported to the coordinator as
    ``("error", repr)`` replies — the worker survives and keeps serving (a
    bad rebalance request must not take the shard down).  A vanished peer
    ends the loop.
    """
    channel = FrameChannel(connection)
    worker = ShardWorker(config)
    while True:
        try:
            raw = channel.recv_raw()
        except WorkerDied:
            return
        start = process_time()
        try:
            message = unpickle_frame(raw)
            reply = worker.handle(message)
        except Exception as exc:  # reported, not fatal
            reply = ("error", f"{type(exc).__name__}: {exc}")
        frame = pickle_frame(reply)
        worker.busy_seconds += process_time() - start
        try:
            channel.send_raw(frame)
        except WorkerDied:
            return
        if reply[0] == "bye":
            return


if __name__ == "__main__":  # pragma: no cover
    # Spawn-started children import this module by name; executing it as a
    # script is never how a worker starts (the coordinator launches
    # ``worker_main`` through ``multiprocessing.Process``).
    raise SystemExit(
        "repro.shard.worker is a multiprocessing entry point, not a script; "
        "use the repro-cer CLI with --workers, or repro.shard.ShardedEngine"
    )
