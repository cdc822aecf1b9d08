"""Sharded multi-process evaluation: N workers, one engine's semantics.

The coordinator (:class:`ShardedEngine`) partitions registered queries
across worker processes and broadcasts every stream batch to all of them,
so each worker advances through the same global stream positions while
evaluating only its shard's queries — client-visible output is exactly a
single :class:`~repro.multi.engine.MultiQueryEngine`'s, with the per-tuple
work divided by the worker count.  Live rebalancing and worker-death
recovery ride on the lane-subset snapshot machinery
(:meth:`MultiQueryEngine.extract_queries
<repro.multi.engine.MultiQueryEngine.extract_queries>` /
:meth:`adopt_queries <repro.multi.engine.MultiQueryEngine.adopt_queries>`)
and lose or duplicate nothing.  See the README's "Scaling out" section.
"""

from repro.shard.coordinator import ShardedEngine, ShardError
from repro.runtime.frames import FrameProtocolError
from repro.shard.pipes import (
    PICKLE_PROTOCOL,
    FrameChannel,
    WorkerDied,
    pickle_frame,
    unpickle_frame,
)
from repro.shard.placement import (
    HashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
)
from repro.shard.worker import ShardWorker, worker_main

#: Role-named alias for the coordinator (the class name mirrors the engines'
#: API surface, which is how client code mostly uses it).
ShardCoordinator = ShardedEngine

__all__ = [
    "ShardedEngine",
    "ShardCoordinator",
    "ShardError",
    "ShardWorker",
    "worker_main",
    "PlacementPolicy",
    "HashPlacement",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "FrameChannel",
    "FrameProtocolError",
    "WorkerDied",
    "PICKLE_PROTOCOL",
    "pickle_frame",
    "unpickle_frame",
]
