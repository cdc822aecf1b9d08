"""The four frozen workloads and the way the benchmark drives each of them.

The builders are copies of the ones in ``benchmarks/workloads.py`` (and of
``bench_ingest_server.make_workload``), so the old scripts can be retired
without moving this benchmark's baseline.  Only the public ``repro.*`` API is
imported; every layer is measured from outside, by timing calls into it.

A *workload* owns the seeded inputs and knows how to set the system up; a
*system* is one fresh engine (or one fresh connection to the served engine)
that a single pass drives.  Every system answers the same four calls:

``submit(index, batch)``   one operation, returns its raw outputs
``produced(raw)``          whether that operation delivered >= 1 output
``drive_closed(batches, stamp)``  the closed-loop pass, returns the raw outputs
``drive_traced(batches, tracer, root)``  the same pass through the split
                           public calls, one span per call
``events(raws)``           canonical ``(position, qid, [Valuation])`` list
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple as Tup

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import ProjectionEquality, RelationPredicate
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.engine.dsl import atom, conjunction
from repro.multi import MergedDispatchIndex, MultiQueryEngine
from repro.multi.registry import compile_query
from repro.net import IngestClient
from repro.runtime import snapshot as snapshot_codec
from repro.runtime.frames import decode_frame, encode_frame
from repro.streams.generators import HCQWorkloadGenerator
from repro.valuation import Valuation

from benchmarks.suite.served import ServerProcess
from benchmarks.suite.tracing import Tracer

PAYLOAD_DOMAIN = 1_000

Event = Tup[int, int, List[Valuation]]


# --------------------------------------------------------------------------
# systems
# --------------------------------------------------------------------------
class System:
    """One pass's system under test; see the module docstring."""

    #: tuples per closed-loop operation / per open-loop operation
    closed_batch = 256
    open_batch = 32
    #: the serve child whose CPU is charged to the pass (``served_tcp`` only)
    server: Optional[ServerProcess] = None
    #: operations that failed outright (a frame acked short), besides wrong outputs
    failed = 0
    #: size of the checkpoint the pass took (``multi_churn`` only)
    snapshot_bytes = 0

    def submit(self, index: int, batch: Sequence[Tuple]):
        raise NotImplementedError

    def produced(self, raw) -> bool:
        raise NotImplementedError

    def drive_closed(self, batches: Sequence[Sequence[Tuple]], stamp) -> list:
        """Back-to-back operations; ``stamp()`` is called after each one returns."""
        submit = self.submit
        size = self.closed_batch
        raws = []
        for k, batch in enumerate(batches):
            raws.append(submit(k * size, batch))
            stamp()
        return raws

    def drive_traced(self, batches, tracer: Tracer, root: int) -> list:
        raise NotImplementedError

    def drive_single(self, stream: Sequence[Tuple]) -> list:
        """The pass one tuple per call (``process``); see ``Workload.single_path``."""
        raise NotImplementedError

    def events(self, raws: list) -> List[Event]:
        raise NotImplementedError

    def engine_view(self):
        """The engine whose counters describe this pass (None when out of process)."""
        return None

    def queries_live(self) -> int:
        """Queries registered at the end of the pass (multi-query engines only)."""
        return 0

    def close(self) -> None:
        pass


class StreamingSystem(System):
    """A fresh single-query ``StreamingEvaluator``."""

    def __init__(self, pcea: PCEA, window: int, stats: bool, arena: bool = True) -> None:
        self.engine = StreamingEvaluator(pcea, window=window, collect_stats=stats, arena=arena)

    def submit(self, index, batch):
        return self.engine.process_many(batch)

    def produced(self, raw) -> bool:
        return any(raw)

    def drive_traced(self, batches, tracer, root):
        update = self.engine.update
        enumerate_outputs = self.engine.enumerate_outputs
        record = tracer.record
        raws = []
        for batch in batches:
            span = tracer.begin("driver.batch", root)
            outputs = []
            for tup in batch:
                start = perf_counter()
                final_nodes = update(tup)
                mid = perf_counter()
                record("core.evaluation.update", start, mid, span)
                if final_nodes:
                    valuations = list(enumerate_outputs(final_nodes))
                    record("core.arena.enumerate", mid, perf_counter(), span)
                else:
                    valuations = []
                outputs.append(valuations)
            tracer.end(span)
            raws.append(outputs)
        return raws

    def drive_single(self, stream):
        process = self.engine.process
        return [[process(tup) for tup in stream]]

    def events(self, raws):
        events = []
        position = 0
        for outputs in raws:
            for valuations in outputs:
                if valuations:
                    events.append((position, 0, valuations))
                position += 1
        return events

    def engine_view(self):
        return self.engine


class MultiChurnSystem(System):
    """A ``MultiQueryEngine`` under registry churn and one mid-stream checkpoint.

    At every multiple of ``churn_every`` the oldest live query is
    unregistered and a fresh one registered; at ``checkpoint_at`` the engine
    is snapshotted, serialised, parsed and restored into a new engine that
    finishes the pass.  Both are keyed by stream index, so the outputs do not
    depend on the batch size the pass uses.
    """

    def __init__(self, workload: "MultiChurn", stats: bool, arena: bool = True) -> None:
        self.workload = workload
        self.stats = stats
        self.arena = arena
        self.tracer: Optional[Tracer] = None  # set by drive_traced
        self.root = -1
        self.engine = MultiQueryEngine(collect_stats=stats, arena=arena)
        self.live: deque = deque()
        for query in range(workload.queries):
            self._register(self.engine, query)
        self.next_query = workload.queries

    def _register(self, engine, query: int):
        handle = engine.register(
            self.workload.pattern(query), window=self.workload.window, name=f"q{query}"
        )
        self.live.append((handle, query))

    def _before(self, index: int) -> None:
        workload = self.workload
        if index and index % workload.churn_every == 0:
            handle, _ = self.live.popleft()
            self._timed("multi.unregister", self.engine.unregister, handle)
            self._timed("multi.register", self._register, self.engine, self.next_query)
            self.next_query += 1
        if index == workload.checkpoint_at and self.arena:
            text = self._timed("runtime.snapshot.checkpoint", self._checkpoint)
            self._timed("runtime.snapshot.restore", self._restore, text)

    def _timed(self, name: str, call, *args):
        """``call(*args)``, under a span when this pass is traced."""
        if self.tracer is None:
            return call(*args)
        span = self.tracer.begin(name, self.root)
        result = call(*args)
        self.tracer.end(span)
        return result

    def _checkpoint(self) -> str:
        text = snapshot_codec.dumps(self.engine.snapshot())
        self.snapshot_bytes = len(text)
        return text

    def _restore(self, text: str) -> None:
        # The new engine registers the live queries' compiled automata (compiling
        # is set-up and churn cost, measured there), then adopts the parsed state.
        fresh = MultiQueryEngine(collect_stats=self.stats)
        registry = self.engine.registry
        for handle, _ in self.live:
            fresh.register(registry.get(handle).pcea, window=handle.window, name=handle.name)
        fresh.restore(snapshot_codec.loads(text))
        # restore rewrote the registry's handles to the snapshot's ids
        self.live = deque(zip(fresh.handles(), [query for _, query in self.live]))
        self.engine = fresh

    def submit(self, index, batch):
        self._before(index)
        return self.engine.process_many(batch)

    def produced(self, raw) -> bool:
        return any(raw)

    def drive_traced(self, batches, tracer, root):
        self.tracer, self.root = tracer, root
        size = self.closed_batch
        raws = []
        for k, batch in enumerate(batches):
            self._before(k * size)
            span = tracer.begin("multi.process_many", root)
            raws.append(self.engine.process_many(batch))
            tracer.end(span)
        return raws

    def drive_single(self, stream):
        outputs = []
        for index, tup in enumerate(stream):
            self._before(index)
            outputs.append(self.engine.process(tup))
        return [outputs]

    def events(self, raws):
        return _multi_events(raws)

    def engine_view(self):
        return self.engine

    def queries_live(self):
        return len(self.engine.handles())


def _merged_index(pceas: List[PCEA]) -> MergedDispatchIndex:
    return MergedDispatchIndex([(i, pcea.dispatch_index()) for i, pcea in enumerate(pceas)])


def _multi_events(raws) -> List[Event]:
    events = []
    position = 0
    for outputs in raws:
        for by_query in outputs:
            for qid in sorted(by_query):
                valuations = by_query[qid]
                if valuations:
                    events.append((position, qid, valuations))
            position += 1
    return events


class ServedSystem(System):
    """One fresh connection to the serve child, subscribed to every query."""

    closed_batch = 64
    open_batch = 64
    pipeline = 8

    def __init__(self, workload: "ServedTcp", server: ServerProcess,
                 owns_server: bool = False) -> None:
        self.server = server
        self.owns_server = owns_server
        self.stream = workload.stream
        self.client = IngestClient("127.0.0.1", server.port)
        self.handles = [
            self.client.subscribe(text, window, name=f"q{index}")[0]
            for index, (text, window) in enumerate(workload.subscriptions)
        ]
        self.client.ping()
        self.base: Optional[int] = None
        self.failed = 0

    def _acked(self, ack, expected: int) -> None:
        base, count = ack
        if self.base is None:
            self.base = base
        if count != expected:
            self.failed += 1

    def _delivered(self) -> int:
        return sum(len(batches) for batches in self.client.matches.values())

    def submit(self, index, batch):
        client = self.client
        before = self._delivered()
        self._acked(client.wait_ack(client.ingest(batch)), len(batch))
        return self._delivered() - before

    def produced(self, raw) -> bool:
        return raw > 0

    def drive_closed(self, batches, stamp):
        # one pipelined call for the whole stream: the pass is the only operation
        # whose end the client can observe
        base, count = self.client.ingest_all(
            self.stream, frame_size=self.closed_batch, pipeline=self.pipeline
        )
        stamp()
        self.base = base + count - len(self.stream)
        return []

    def drive_traced(self, batches, tracer, root):
        client = self.client
        outstanding: deque = deque()

        def wait_oldest():
            seq, size = outstanding.popleft()
            span = tracer.begin("net.client.wait_ack", root)
            ack = client.wait_ack(seq)
            tracer.end(span)
            self._acked(ack, size)

        for batch in batches:
            if len(outstanding) >= self.pipeline:
                wait_oldest()
            span = tracer.begin("net.client.ingest", root)
            seq = client.ingest(batch)
            tracer.end(span)
            outstanding.append((seq, len(batch)))
        while outstanding:
            wait_oldest()
        return []

    def events(self, raws):
        base = self.base or 0
        events = []
        for qid, handle in enumerate(self.handles):
            for position, valuations in self.client.matches.get(handle, ()):
                if not valuations:
                    continue
                if base:  # a later pass of the continued stream: positions restart at 0
                    valuations = [
                        Valuation({label: [p - base for p in where] for label, where in v.items()})
                        for v in valuations
                    ]
                events.append((position - base, qid, valuations))
        events.sort(key=lambda event: (event[0], event[1]))
        return events

    def close(self) -> None:
        self.client.close()
        if self.owns_server:
            self.server.stop()


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------
class Workload:
    """Seeded inputs + set-up for one named workload.

    ``rate`` is the committed open-loop offered rate in tuples/s (about 40 %
    of the closed-loop throughput measured on the reference box — see the
    README); ``tuples_per_second`` sizes a pass from ``--seconds``.
    """

    name = ""
    why = ""
    rate = 0.0
    tuples_per_second = 0
    #: most tuples the object-graph oracle replays (issue: the first 20 000)
    oracle_tuples = 20_000
    #: whether a system of this workload has a one-tuple-per-call path
    single_path = True
    #: set-up repetitions per run: in-process set-up takes well under a
    #: millisecond, so it is repeated often; a server spawn takes 0.2 s
    setup_reps = 200

    stream: List[Tuple]
    #: scratch directory and ``src`` path for the serve child, set by the runner
    workdir = ""
    src_dir = ""

    def parameters(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> System:
        """Query text -> compiled automaton -> engine -> first tuple accepted.

        The caller stops its clock when this returns, then closes the system.
        """
        raise NotImplementedError

    def open(self, stats: bool = False) -> System:
        raise NotImplementedError

    def oracle(self) -> System:
        """The object-graph (``arena=False``) in-process engine for the same stream."""
        raise NotImplementedError

    def compile_all(self) -> List[PCEA]:
        """Compile every query of the workload (timed for ``engine.compile_ms_per_query``)."""
        raise NotImplementedError

    def dispatch_index(self, pceas: List[PCEA]):
        """The dispatch index the replay looks tuples up in."""
        raise NotImplementedError

    # serve-child lifecycle; the in-process workloads have none
    def start_server(self, clients: int) -> Optional[ServerProcess]:
        return None


class _SingleQuery(Workload):
    window = 0

    def open(self, stats=False):
        return StreamingSystem(self.compile_all()[0], self.window, stats)

    def oracle(self):
        return StreamingSystem(self.compile_all()[0], self.window, stats=False, arena=False)

    def setup(self):
        system = StreamingSystem(self.compile_all()[0], self.window, stats=False)
        system.engine.process(self.stream[0])
        return system

    def dispatch_index(self, pceas):
        return pceas[0].dispatch_index()


class StarSparse(_SingleQuery):
    name = "star_sparse"
    why = (
        "3-arm star HCQ, key domain 1024, window 1024: the update path (dispatch, predicate, "
        "join probe, DS_w extend, eviction) does nearly all the work, enumeration almost none"
    )
    rate = 27_000.0
    tuples_per_second = 2_700
    arms = 3
    key_domain = 1024
    window = 1024

    def __init__(self, seed: int, length: int) -> None:
        generator = HCQWorkloadGenerator(arms=self.arms, key_domain=self.key_domain, seed=seed)
        self.query_text = str(generator.query())
        self.stream = generator.stream(length).materialise()

    def parameters(self):
        return {"arms": self.arms, "key_domain": self.key_domain, "window": self.window,
                "query": self.query_text}

    def compile_all(self):
        return [hcq_to_pcea(parse_query(self.query_text))]


class UnionEnum(_SingleQuery):
    name = "union_enum"
    why = (
        "union_storm automaton, 8 labelled variants per arm tuple, key domain 8: every "
        "closing tuple unions and enumerates dozens of valuations, so core.arena dominates"
    )
    rate = 9_500.0
    tuples_per_second = 700
    variants = 8
    key_domain = 8
    arm_fraction = 0.75
    window = 64

    def __init__(self, seed: int, length: int) -> None:
        rng = random.Random(seed)
        # The first tuple is always an arm tuple: set-up ends when it is accepted,
        # and a closing tuple on an empty engine costs a fifth less, whatever the seed.
        self.stream = [
            Tuple(
                "G0A" if rng.random() < self.arm_fraction or index == 0 else "G0C",
                (rng.randrange(self.key_domain), rng.randrange(PAYLOAD_DOMAIN)),
            )
            for index in range(length)
        ]

    def parameters(self):
        return {"variants": self.variants, "key_domain": self.key_domain,
                "arm_fraction": self.arm_fraction, "window": self.window}

    def compile_all(self):
        # ``variants`` parallel transitions read the arm relation into the same
        # pending state under distinct labels; one closing relation joins it.
        arm, closing, state, accept = "G0A", "G0C", ("q", 0), ("f", 0)
        transitions = [
            PCEATransition(frozenset(), RelationPredicate(arm), {}, {f"g0v{k}"}, state)
            for k in range(self.variants)
        ]
        transitions.append(
            PCEATransition(
                frozenset({state}),
                RelationPredicate(closing),
                {state: ProjectionEquality({arm: (0,)}, {closing: (0,)})},
                {"g0close"},
                accept,
            )
        )
        return [PCEA(states={state, accept}, transitions=transitions, final={accept})]


class MultiChurn(Workload):
    name = "multi_churn"
    why = (
        "64 shared-star queries under register/unregister churn and one mid-stream checkpoint: "
        "merged index, predicate memoisation and registry patching work, most tuples miss most "
        "queries"
    )
    rate = 6_000.0
    tuples_per_second = 810
    setup_reps = 15
    queries = 64
    groups = 4
    arms = 3
    key_domain = 5
    selectivity = 0.2
    window = 128

    def __init__(self, seed: int, length: int) -> None:
        rng = random.Random(seed)
        relations = [f"G{g}R{j}" for g in range(self.groups) for j in range(1, self.arms + 1)]
        self.stream = [
            Tuple(rng.choice(relations),
                  (rng.randrange(self.key_domain), rng.randrange(PAYLOAD_DOMAIN)))
            for _ in range(length)
        ]
        self.churn_every = 2048 if length >= 8192 else 256
        self.checkpoint_at = (length // 2) // 256 * 256

    def parameters(self):
        return {"queries": self.queries, "groups": self.groups, "arms": self.arms,
                "key_domain": self.key_domain, "selectivity": self.selectivity,
                "window": self.window, "churn_every": self.churn_every,
                "checkpoint_at": self.checkpoint_at}

    def pattern(self, query: int):
        """Query ``query``: private threshold on arm 1, the group's shared one on the rest."""
        group = query % self.groups
        threshold = int(PAYLOAD_DOMAIN * self.selectivity)
        parts = [atom(f"G{group}R1", "x", "y1", filters=[("y1", "<", threshold + query)])]
        parts.extend(
            atom(f"G{group}R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", threshold)])
            for j in range(2, self.arms + 1)
        )
        return conjunction(*parts)

    def setup(self):
        system = MultiChurnSystem(self, stats=False)
        system.engine.process(self.stream[0])
        return system

    def open(self, stats=False):
        return MultiChurnSystem(self, stats)

    def oracle(self):
        return MultiChurnSystem(self, stats=False, arena=False)

    def compile_all(self):
        return [compile_query(self.pattern(query)) for query in range(self.queries)]

    def dispatch_index(self, pceas):
        return _merged_index(pceas)


class ServedTcp(Workload):
    name = "served_tcp"
    why = (
        "repro.cli serve as a child process, 16 star subscriptions, 64-tuple frames over loopback "
        "TCP: pickle frames, server coalescing/fan-out and socket hops ride on top of the engine"
    )
    rate = 34_000.0
    tuples_per_second = 3_200
    single_path = False
    setup_reps = 7
    groups = 16
    stream_groups = 96
    window = 512
    key_domain = 4

    def __init__(self, seed: int, length: int) -> None:
        self.subscriptions = [
            (f"Q{g}(x, y) <- G{g}T(x), G{g}S(x, y), G{g}R(x, y)", self.window)
            for g in range(self.groups)
        ]
        rng = random.Random(seed)
        self.stream = []
        for _ in range(length):
            g = rng.randrange(self.stream_groups)
            relation = rng.choice(("T", "S", "R"))
            values = (rng.randrange(self.key_domain),)
            if relation != "T":
                values += (rng.randrange(self.key_domain),)
            self.stream.append(Tuple(f"G{g}{relation}", values))
        self.server: Optional[ServerProcess] = None

    def parameters(self):
        return {"subscriptions": len(self.subscriptions), "stream_groups": self.stream_groups,
                "window": self.window, "key_domain": self.key_domain,
                "frame_size": ServedSystem.closed_batch, "pipeline": ServedSystem.pipeline}

    def _spawn(self, clients: int) -> ServerProcess:
        server = ServerProcess(self.workdir, self.src_dir, clients)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def start_server(self, clients):
        self.server = self._spawn(clients)
        return self.server

    def setup(self):
        server = self._spawn(clients=1)
        try:
            return ServedSystem(self, server, owns_server=True)
        except BaseException:
            server.stop()
            raise

    def open(self, stats=False):
        return ServedSystem(self, self.server)

    def oracle(self):
        return _ServedReplay(self, stats=False, arena=False)

    def replay(self, stats: bool) -> "System":
        """The arena-backed in-process engine whose counters stand for the server's."""
        return _ServedReplay(self, stats=stats, arena=True)

    def compile_all(self):
        return [compile_query(text) for text, _ in self.subscriptions]

    def dispatch_index(self, pceas):
        return _merged_index(pceas)

    def frame_replay(self, batches, tracer: Tracer) -> Dict[str, float]:
        """Encode and decode the pass's ingest frames; seconds and bytes."""
        span = tracer.begin("runtime.frames.encode")
        frames = [encode_frame(("ingest", seq, list(batch))) for seq, batch in enumerate(batches)]
        encode = tracer.end(span)
        span = tracer.begin("runtime.frames.decode")
        for frame in frames:
            decode_frame(frame)
        decode = tracer.end(span)
        return {"encode_s": encode, "decode_s": decode,
                "bytes": float(sum(len(frame) for frame in frames))}


class _ServedReplay(System):
    """The served stream through an in-process ``MultiQueryEngine`` (same subscriptions)."""

    def __init__(self, workload: ServedTcp, stats: bool, arena: bool) -> None:
        self.engine = MultiQueryEngine(collect_stats=stats, arena=arena)
        for index, (text, window) in enumerate(workload.subscriptions):
            self.engine.register(text, window=window, name=f"q{index}")

    def submit(self, index, batch):
        return self.engine.process_many(batch)

    def produced(self, raw) -> bool:
        return any(raw)

    def events(self, raws):
        return _multi_events(raws)

    def engine_view(self):
        return self.engine

    def queries_live(self):
        return len(self.engine.handles())


WORKLOADS = {cls.name: cls for cls in (StarSparse, UnionEnum, MultiChurn, ServedTcp)}
