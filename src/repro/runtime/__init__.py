"""The shared streaming runtime: one engine skeleton, one per-tuple machinery.

Why this package exists
-----------------------
The repository evaluates the paper's streaming algorithm through one engine,
:class:`~repro.multi.engine.MultiQueryEngine` — Algorithm 1 for registered
unambiguous PCEA over one stream (hash-indexed equality joins, Theorem 5.1's
update bound; any other join scans its source's live runs), one merged
dispatch lookup per tuple.  One query is its K=1 case,
:class:`~repro.core.evaluation.StreamingEvaluator`.

Before this package, each engine re-implemented the fire loop, the stream
position counter, the ``max_start``-bucketed eviction sweep, the arena
slab-release protocol, batched ingestion, and the statistics/memory
introspection surface — so every optimisation had to be hand-ported several
times and the copies drifted.  The runtime holds exactly one of each:

* :func:`fire` — Algorithm 1's FireTransitions + UpdateIndices: per
  predicate group one acceptor call, per held member the join probes — hash
  probes against its owning lane's table, or scan probes over a source's
  live runs — effects applied in canonical order, new runs indexed and
  registered for eviction.  What it evaluates a tuple against is data
  (:class:`~repro.core.dispatch.EvalPlan`), so relation and constant-guard
  dispatch are the same code.
* :class:`EvictionLane` — one evictable run store: a sliding window, a
  run-index table (``hash``), an enumeration structure (``ds``), and the
  representation-agnostic reclamation hooks (``add_ref`` / ``drop_ref`` /
  ``release``) bound once at construction.  ``MultiQueryEngine`` owns one
  lane per distinct window, serving every query registered under it (the
  single-query evaluators: one lane, one query).
* :class:`StreamRuntime` — the per-stream core: the global position, the
  shared expiry-bucket map (keyed by the *absolute* position at which an
  entry expires, ``max_start + lane.window + 1``, so lanes with different
  windows share one map), the single eviction sweep implementation
  (steady-state one-bucket pop per position, batched catch-up range sweep,
  periodic full arena-release pass over idle lanes), the batching driver
  behind every engine's ``process_many``, and the aggregated
  ``memory_info()`` the CLI ``--stats`` memory section prints.
* :class:`EngineStatistics` — the unified operation-counter surface, so
  ``engine.observe()`` and the CLI ``--stats`` line are identical across
  modes.

What stays in the engine is its merged index of every registered query and
its output routing.  Everything an engine registers into the runtime is a flat
``lane_id, key, node`` int triple appended to the expiry bucket (lanes are
interned to dense small ints; no per-entry tuple is allocated — see
:meth:`StreamRuntime.register_entry` for the reference implementation); the
sweep pops the bucket, drops the arena reference, and deletes the entry from
``lane.hash`` when the cached ``max_start`` (the second element of the
stored pair) is out of the lane's window — the exact protocol PRs 1–3
proved out per engine, now in one place.

The runtime also anchors the cross-layer **snapshot/restore protocol**
(:mod:`repro.runtime.snapshot`): every layer — arena slabs, lanes, the
runtime itself, the engines — captures its state as a plain-Python tree that
encodes as one frame of the wire codec (:mod:`repro.runtime.frames`), so a
mid-stream checkpoint restored in a fresh process continues bit-identically.
"""

from repro.runtime.core import (
    RELEASE_PASS_INTERVAL,
    EvictionLane,
    SparseBatch,
    StreamRuntime,
)
from repro.runtime.fire import fire
from repro.runtime.snapshot import SNAPSHOT_VERSION, SnapshotError, stable_signature
from repro.runtime.statistics import EngineStatistics

__all__ = [
    "RELEASE_PASS_INTERVAL",
    "SNAPSHOT_VERSION",
    "EvictionLane",
    "SnapshotError",
    "SparseBatch",
    "StreamRuntime",
    "EngineStatistics",
    "fire",
    "stable_signature",
]
