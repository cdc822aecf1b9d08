"""Guards for the retirement of adaptive dispatch (``repro.core.adaptive``).

Adaptive dispatch reordered predicate groups and promoted hot guard values
from runtime hit counters.  The fire loop evaluates every group of a plan,
so the order of the groups never decided any work; the feedback loop was
removed and every engine reads its plans straight from its index.  Each test
below keeps the name of the adaptive-dispatch test it replaces and pins what
stands in for that feature:

* config — no engine, nor the arena, accepts ``adaptive=`` or the old
  knobs, and the module is gone;
* differentials — every engine equals independent evaluators or the naive
  oracle on the drift / burst / wildcard / shared-star / churn scenarios and
  on hypothesis streams, with the static guard buckets doing the pruning;
* invariants — processing never moves a dispatch ``signature()``, and the
  scenario builders are seed-replayable;
* snapshots — a mid-stream snapshot continues bit-identically, batched or
  tuple by tuple, in every engine;
* surfaces — no ``observe()`` key, metric series, trace span, CLI option or
  ``# adaptive:`` stats line is left.
"""

import importlib
import inspect
import io
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings

from repro.cli import (
    build_multi_parser,
    build_net_client_parser,
    build_parser,
    build_serve_parser,
    read_events,
    run,
    run_multi,
)
from repro.core.arena import ArenaDataStructure
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.kernel import native_available
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.multi.engine import MultiQueryEngine
from repro.obs import Observer, TraceRecorder
from repro.runtime import snapshot as snapshot_codec
from repro.streams.generators import HCQWorkloadGenerator

from helpers import (
    SIGMA0,
    star_query,
    star_schema,
    streams_strategy,
    bursty_guard_queries,
    drifting_guard_queries,
    guarded_disjunction_workload,
    multi_star_workload,
    shared_star_queries,
    wildcard_mix_queries,
)


QUERIES = [
    ("Q1(x, y) <- S(x, y), R(x, y)", 12),
    ("Q2(x) <- T(x)", 8),
    ("Q3(x, y) <- T(x), S(x, y)", 16),
]

#: Every name the feedback loop answered to, as a metric, span or stats key.
ADAPTIVE_NAMES = ("adaptive", "dispatch_reorders", "guard_promotions", "guard_demotions",
                  "observed_selectivity", "dispatch_adapt")  # fmt: skip


def multi_engine(queries, window, **kwargs):
    engine = MultiQueryEngine(**kwargs)
    for index, query in enumerate(queries):
        engine.register(query, window, f"q{index}")
    return engine


def in_batches(engine, tuples, size=64):
    """``engine.process_many`` over ``tuples`` in ``size``-tuple batches."""
    return [
        outputs
        for start in range(0, len(tuples), size)
        for outputs in engine.process_many(tuples[start : start + size])
    ]


# ------------------------------------------------------------- config + gates
class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"adaptive": True},
            {"adaptive": False},
            {"interval": 512},
            {"min_probes": 64},
            {"promote_threshold": 0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        """Neither ``adaptive=`` nor a knob of the retired config is accepted."""
        pcea = hcq_to_pcea(parse_query(QUERIES[0][0]))
        for build in (
            lambda: StreamingEvaluator(pcea, window=8, **kwargs),
            lambda: GeneralStreamingEvaluator(pcea, window=8, **kwargs),
            lambda: MultiQueryEngine(**kwargs),
            lambda: ArenaDataStructure(8, **kwargs),
        ):
            with pytest.raises(TypeError):
                build()

    def test_resolve_config(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.adaptive")
        for engine in (StreamingEvaluator, GeneralStreamingEvaluator, MultiQueryEngine, ArenaDataStructure):
            assert "adaptive" not in inspect.signature(engine).parameters, engine

    def test_disabled_engine_reports_none(self):
        pcea, stream = multi_star_workload(3, 10, selectivity=0.3, seed=1)
        engine = StreamingEvaluator(pcea, window=8)
        engine.process_many(stream)
        assert not hasattr(engine, "adaptive_info")
        assert "adaptive" not in engine.observe()

    def test_general_requires_index(self):
        """The general evaluator's plan is its index's: it agrees with the
        naive oracle, and scans fewer transitions than a full scan would."""
        pcea, stream = guarded_disjunction_workload(6, 300, seed=2)
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=32)
        indexed = GeneralStreamingEvaluator(pcea, window=32)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]
        # A full scan would visit every transition for every tuple.
        assert indexed.stats.transitions_scanned == len(stream) < len(stream) * len(pcea.transitions)


# --------------------------------------------------------- workload builders
class TestWorkloadBuilders:
    @pytest.mark.parametrize(
        "builder",
        [
            drifting_guard_queries,
            bursty_guard_queries,
            wildcard_mix_queries,
        ],
    )
    def test_seed_replayable(self, builder):
        queries_a, stream_a = builder(6, 300, seed=5)
        queries_b, stream_b = builder(6, 300, seed=5)
        assert stream_a == stream_b
        assert len(queries_a) == len(queries_b) == 6
        assert len(stream_a) == 300
        _, other = builder(6, 300, seed=6)
        assert other != stream_a

    def test_drift_changes_hot_value_across_phases(self):
        _, stream = drifting_guard_queries(8, 800, phases=4, hot_fraction=1.0, seed=0)
        hot_per_phase = {stream[i].value(0) for i in (0, 200, 400, 600)}
        assert len(hot_per_phase) > 1

    def test_burst_reverts_to_baseline(self):
        _, stream = bursty_guard_queries(
            8, 800, burst_every=200, burst_length=50, hot_fraction=1.0, seed=0
        )
        assert stream[60].value(0) == 0  # outside the burst: baseline hot key
        assert stream[210].value(0) != 0  # inside the second burst


# ------------------------------------------------------------- differentials
class TestMultiEngineDifferential:
    """The shared engine == one independent evaluator per query, output lists
    included, on the scenarios the feedback loop was built for."""

    WINDOW = 64

    def _run_pair(self, queries, stream):
        engine = multi_engine(queries, self.WINDOW, collect_stats=True)
        references = [StreamingEvaluator(query, window=self.WINDOW) for query in queries]
        for tup in stream:
            outputs = engine.process(tup)
            for handle, reference in zip(engine.handles(), references):
                assert outputs.get(handle.id, []) == reference.process(tup)
        assert engine.stats.outputs_enumerated > 0
        return engine

    def _guard_pruned(self, engine, queries, stream, guarded):
        """Each query's guarded branch is in a value bucket: a tuple is
        scanned against the unguarded members and at most one bucket."""
        info = engine.dispatch_info()
        assert info["guard_values"] == guarded
        transitions = sum(len(query.transitions) for query in queries)
        unguarded = transitions - guarded
        assert engine.stats.transitions_scanned <= len(stream) * (unguarded + 1)

    def test_drift_promotes_and_demotes(self):
        queries, stream = drifting_guard_queries(12, 1600, seed=7)
        engine = self._run_pair(queries, stream)
        self._guard_pruned(engine, queries, stream, guarded=12)

    def test_burst_scenario(self):
        queries, stream = bursty_guard_queries(
            12, 1600, burst_every=400, burst_length=100, seed=8
        )
        engine = self._run_pair(queries, stream)
        self._guard_pruned(engine, queries, stream, guarded=12)

    def test_wildcard_adversarial_goes_dormant(self):
        queries, stream = wildcard_mix_queries(8, 1500, seed=9)
        engine = self._run_pair(queries, stream)
        self._guard_pruned(engine, queries, stream, guarded=4)

    def test_shared_star_scenario(self):
        queries, stream = shared_star_queries(10, 1200, key_domain=4, seed=10)
        engine = self._run_pair(queries, stream)
        info = engine.dispatch_info()
        assert info["shared_predicate_groups"] > 0
        # One acceptor call per group, however many queries share it.
        stats = engine.stats
        assert stats.predicate_cache_hits > 0
        assert stats.predicate_evaluations + stats.predicate_cache_hits == stats.transitions_scanned

    def test_default_knob_is_enabled(self):
        """There is one dispatch path: the default engine's."""
        assert set(inspect.signature(MultiQueryEngine).parameters) == {
            "registry", "collect_stats", "arena", "kernel"
        }
        queries, stream = drifting_guard_queries(6, 600, seed=12)
        self._run_pair(queries, stream)

    def test_churn_during_live_adaptation(self):
        """Unregister a guarded query and register it again mid-stream: the
        re-registered query equals an evaluator that joined there."""
        queries, stream = drifting_guard_queries(8, 1200, seed=21)
        engine = multi_engine(queries, self.WINDOW)
        references = {
            handle.id: StreamingEvaluator(query, window=self.WINDOW)
            for handle, query in zip(engine.handles(), queries)
        }

        def step(tup):
            outputs = engine.process(tup)
            assert set(outputs) <= set(references)
            for handle_id, reference in references.items():
                assert outputs.get(handle_id, []) == reference.process(tup)

        for tup in stream[:400]:
            step(tup)
        gone = engine.handles()[2]
        engine.unregister(gone)
        del references[gone.id]
        for tup in stream[400:800]:
            step(tup)
        again = engine.register(queries[2], self.WINDOW, "q2_re")
        late = StreamingEvaluator(queries[2], window=self.WINDOW)
        late.position = engine.position
        references[again.id] = late
        for tup in stream[800:]:
            step(tup)
        assert engine.dispatch_info()["guard_values"] == 8

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=24, domain=3))
    def test_hypothesis_streams(self, stream):
        pceas = [hcq_to_pcea(parse_query(query)) for query, _ in QUERIES]
        engine = MultiQueryEngine()
        handles = [engine.register(pcea, window) for pcea, (_, window) in zip(pceas, QUERIES)]
        last = len(stream) - 1
        expected = [
            pcea.outputs_upto(stream, last, window=window) for pcea, (_, window) in zip(pceas, QUERIES)
        ]
        for position, tup in enumerate(stream):
            outputs = engine.process(tup)
            for handle, wanted in zip(handles, expected):
                got = outputs.get(handle.id, [])
                assert len(got) == len(set(got)) and set(got) == wanted[position]


class TestSingleEngineDifferential:
    def _run_pair(self, pcea, stream, window=64):
        """The indexed evaluator == the naive oracle, and it scans exactly its
        plans' width — less than the full transition list per tuple."""
        engine = StreamingEvaluator(pcea, window=window, collect_stats=True)
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=window)
        for position, tup in enumerate(stream):
            outputs = engine.process(tup)
            assert len(outputs) == len(set(outputs)) and set(outputs) == naive[position]
        index = pcea.dispatch_index()
        narrow = engine.stats.transitions_scanned
        assert narrow == sum(len(index.candidates_for(tup)) for tup in stream)
        assert narrow < len(stream) * len(pcea.transitions)
        return engine

    def test_multi_star_tracked(self):
        pcea, stream = multi_star_workload(3, 1500, selectivity=0.3, seed=4)
        engine = self._run_pair(pcea, stream)
        assert engine.dispatch_info()["shared_predicate_groups"] > 0
        assert engine.stats.outputs_enumerated > 0

    def test_pure_guarded_disjunction_untracked(self):
        # The static constant-guard buckets dispatch this shape exactly: each
        # tuple is evaluated against its value's one transition.
        pcea, stream = guarded_disjunction_workload(16, 800, seed=3)
        engine = self._run_pair(pcea, stream, window=128)
        assert engine.stats.transitions_scanned == len(stream)
        assert engine.dispatch_info()["guard_values"] == 16

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(star_schema(2), max_length=24, domain=2))
    def test_hypothesis_streams(self, stream):
        pcea = hcq_to_pcea(star_query(2))
        engine = StreamingEvaluator(pcea, window=8)
        expected = pcea.outputs_upto(stream, len(stream) - 1, window=8)
        for position, tup in enumerate(stream):
            outputs = engine.process(tup)
            assert len(outputs) == len(set(outputs)) and set(outputs) == expected[position]

    #: Counters whose per-tuple cost Theorem 5.1 makes independent of how much
    #: stream has gone by (ROADMAP item 4a).
    PER_TUPLE = ("hash_lookups", "hash_updates", "predicate_evaluations", "transitions_fired")

    @pytest.mark.parametrize("window", [16, 64])
    def test_star_counters_flat_in_stream_length_and_equal_across_engines(self, window):
        generator = HCQWorkloadGenerator(arms=3, key_domain=16, seed=5)
        pcea = hcq_to_pcea(generator.query())
        per_tuple, worst = [], []
        for length in (1000, 2000, 4000):
            stream = list(generator.tuples(length))
            static = StreamingEvaluator(pcea, window=window, collect_stats=True)
            graph = StreamingEvaluator(pcea, window=window, arena=False, collect_stats=True)
            multi = MultiQueryEngine(collect_stats=True)
            handle = multi.register(pcea, window=window)
            # The independent references: the scanning general evaluator (a
            # separate algorithm, linear in the stream) at every length, and
            # the naive oracle — quadratic here — on the shortest stream.
            scanning = GeneralStreamingEvaluator(pcea, window=window)
            naive = pcea.outputs_upto(stream, length - 1, window=window) if length == 1000 else None
            assert static.dispatch_info()["shared_predicate_groups"] > 0
            largest = dict.fromkeys(self.PER_TUPLE, 0)
            for position, tup in enumerate(stream):
                before = asdict(static.stats)
                outputs = static.process(tup)
                assert graph.process(tup) == outputs
                assert multi.process(tup).get(handle.id, []) == outputs
                assert len(outputs) == len(set(outputs))
                assert set(outputs) == set(scanning.process(tup))
                if naive is not None:
                    assert len(outputs) == len(set(outputs)) and set(outputs) == naive[position]
                for name in self.PER_TUPLE:
                    step = getattr(static.stats, name) - before[name]
                    largest[name] = max(largest[name], step)
            reference = asdict(static.stats)
            # The object-graph DS_w books exactly the arena's counters, and the
            # single-query evaluator is the K=1 multi engine: every counter agrees.
            assert asdict(graph.stats) == reference
            assert asdict(multi.stats) == reference
            per_tuple.append({name: reference[name] / length for name in self.PER_TUPLE})
            worst.append(largest)
        # No tuple ever costs more than the query's shape allows, however long
        # the stream: the worst step is the same at every length ...
        assert worst[0] == worst[1] == worst[2]
        assert all(step <= len(pcea.transitions) for step in worst[0].values())
        # ... and the averages do not drift with it (same seeded distribution).
        for name in self.PER_TUPLE:
            values = [row[name] for row in per_tuple]
            assert max(values) <= 1.05 * min(values), (name, values)

    @pytest.mark.parametrize("window", [64, 256, 1024, 4096])
    def test_star_update_cost_is_bounded_in_the_window(self, window):
        """Theorem 5.1 in the window: no update step does more than |Δ|
        operations of any kind, and a union copies at most log2(w) + 1 nodes
        (update phase only: enumeration is output-linear, not window-bounded)."""
        generator = HCQWorkloadGenerator(arms=3, key_domain=16, seed=5)
        pcea = hcq_to_pcea(generator.query())
        engine = StreamingEvaluator(pcea, window=window, collect_stats=True)
        stats = engine.stats
        worst = dict.fromkeys(self.PER_TUPLE, 0)
        for tup in generator.tuples(2 * window + 500):
            before = [getattr(stats, name) for name in self.PER_TUPLE]
            engine.update(tup)
            for name, was in zip(self.PER_TUPLE, before):
                worst[name] = max(worst[name], getattr(stats, name) - was)
        assert all(0 < step <= len(pcea.transitions) for step in worst.values()), worst
        ds = engine.ds
        assert ds.union_calls > window
        assert ds.union_copies / ds.union_calls <= math.log2(window) + 1


class TestGeneralEngineDifferential:
    def _run_pair(self, pcea, stream, window=64):
        """The general evaluator == Algorithm 1 on an equality automaton."""
        engine = GeneralStreamingEvaluator(pcea, window=window, collect_stats=True)
        hashed = StreamingEvaluator(pcea, window=window)
        for tup in stream:
            outputs = engine.process(tup)
            assert len(outputs) == len(set(outputs))
            assert set(outputs) == set(hashed.process(tup))
        return engine

    def test_multi_star_workload(self):
        pcea, stream = multi_star_workload(3, 1200, selectivity=0.3, seed=14)
        engine = self._run_pair(pcea, stream)
        assert engine.stats.outputs_enumerated > 0

    def test_guarded_disjunction(self):
        pcea, stream = guarded_disjunction_workload(12, 800, seed=15)
        engine = self._run_pair(pcea, stream, window=128)
        assert engine.stats.transitions_scanned == len(stream)

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=24, domain=3))
    def test_hypothesis_streams(self, stream):
        pcea = hcq_to_pcea(parse_query(QUERIES[0][0]))
        engine = GeneralStreamingEvaluator(pcea, window=8)
        expected = pcea.outputs_upto(stream, len(stream) - 1, window=8)
        for position, tup in enumerate(stream):
            outputs = engine.process(tup)
            assert len(outputs) == len(set(outputs)) and set(outputs) == expected[position]


class TestShardedDifferential:
    """What these checked on the removed sharded engine (``repro.shard``),
    checked on the one engine that replaced it."""

    def test_inline_shards_match_static_reference(self):
        """Batched ingestion equals the per-tuple reference tuple by tuple."""
        from repro.streams.generators import random_stream

        stream = random_stream(SIGMA0, length=400, domain_size=3, seed=19).materialise()
        reference = MultiQueryEngine()
        engine = MultiQueryEngine()
        for query, window in QUERIES:
            reference.register(parse_query(query), window)
            engine.register(parse_query(query), window)
        want = [reference.process(tup) for tup in stream]
        assert engine.process_many(stream) == want
        assert any(want)

    def test_inline_adaptive_info_disabled(self):
        engine = MultiQueryEngine()
        engine.register(parse_query(QUERIES[0][0]), 8)
        engine.process(Tuple("T", (1,)))
        assert not hasattr(engine, "adaptive_info")
        assert "adaptive" not in engine.observe()


# ------------------------------------------------------------------ invariants
class TestSignatureStability:
    def test_multi_signature_unchanged_by_flushes(self):
        queries, stream = drifting_guard_queries(8, 1200, seed=23)
        engine = multi_engine(queries, 64)
        before = snapshot_codec.dumps(engine._merged.signature())
        in_batches(engine, stream)
        assert engine.position == len(stream) - 1
        assert snapshot_codec.dumps(engine._merged.signature()) == before

    def test_single_signature_unchanged_by_flushes(self):
        pcea, stream = multi_star_workload(3, 800, selectivity=0.3, seed=24)
        engine = StreamingEvaluator(pcea, window=64)
        before = snapshot_codec.dumps(engine._merged.signature())
        in_batches(engine, stream)
        assert engine.position == len(stream) - 1
        assert snapshot_codec.dumps(engine._merged.signature()) == before


# ------------------------------------------------------------ snapshot policy
class TestSnapshotPolicy:
    """A mid-stream snapshot continues bit-identically."""

    @staticmethod
    def _drive(engine, tuples, batched):
        return in_batches(engine, tuples) if batched else [engine.process(t) for t in tuples]

    # The ids name the retired adaptive/static axis; batched ingestion now
    # stands where adaptive dispatch stood.
    @pytest.mark.parametrize(
        "source_batched,target_batched",
        [(True, True), (True, False), (False, True)],
        ids=["adaptive-to-adaptive", "adaptive-to-static", "static-to-adaptive"],
    )
    def test_multi_restore_continues_bit_identically(self, source_batched, target_batched):
        queries, stream = drifting_guard_queries(8, 1200, seed=27)
        uninterrupted =self._drive(multi_engine(queries, 64), stream, False)
        original = multi_engine(queries, 64, collect_stats=True)
        assert self._drive(original, stream[:700], source_batched) == uninterrupted[:700]
        snap = snapshot_codec.loads(snapshot_codec.dumps(original.snapshot()))
        restored = multi_engine(queries, 64, collect_stats=True)
        restored.restore(snap)
        continued = self._drive(original, stream[700:], target_batched)
        assert self._drive(restored, stream[700:], target_batched) == continued
        assert continued == uninterrupted[700:]
        assert original.stats == restored.stats
        assert original.snapshot() == restored.snapshot()

    def test_single_restore_resets_learning(self):
        pcea, stream = multi_star_workload(3, 1200, selectivity=0.3, seed=28)
        original = StreamingEvaluator(pcea, window=64)
        for tup in stream[:700]:
            original.process(tup)
        restored = StreamingEvaluator(pcea, window=64)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert [original.process(t) for t in stream[700:]] == [
            restored.process(t) for t in stream[700:]
        ]
        assert original.stats == restored.stats
        assert original.snapshot() == restored.snapshot()

    def test_general_restore_interchangeable(self):
        pcea, stream = multi_star_workload(2, 800, selectivity=0.3, seed=29)
        original = GeneralStreamingEvaluator(pcea, window=64)
        for tup in stream[:400]:
            original.process(tup)
        restored = GeneralStreamingEvaluator(pcea, window=64)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert [original.process(t) for t in stream[400:]] == [
            restored.process(t) for t in stream[400:]
        ]

    @pytest.mark.skipif(not native_available(), reason="native kernel extension not built")
    @pytest.mark.parametrize("source,target", [("python", "native"), ("native", "python")])
    def test_cross_kernel_restore_continues_identically(self, source, target):
        pcea, stream = multi_star_workload(3, 1000, selectivity=0.3, seed=31)
        original = StreamingEvaluator(pcea, window=64, kernel=source)
        for tup in stream[:500]:
            original.process(tup)
        restored = StreamingEvaluator(pcea, window=64, kernel=target)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert [original.process(t) for t in stream[500:]] == [
            restored.process(t) for t in stream[500:]
        ]
        assert original.snapshot() == restored.snapshot()


# -------------------------------------------------------------- observability
class TestObservability:
    def test_flush_activity_reaches_observer(self, tmp_path):
        """No adaptive series is collected or exported."""
        queries, stream = drifting_guard_queries(8, 1200, seed=33)
        engine = multi_engine(queries, 64)
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        in_batches(engine, stream)
        collected = observer.collect()
        assert collected["repro_stream_position"] == len(stream) - 1
        assert not [name for name in collected if any(word in name for word in ADAPTIVE_NAMES)]
        path = str(tmp_path / "metrics.prom")
        observer.export_metrics(path)
        text = open(path).read()
        assert "repro_relation_candidates" in text
        assert not [word for word in ADAPTIVE_NAMES if word in text]

    def test_quiescent_flushes_do_not_touch_counters(self):
        """The observer has no adaptive hook, and a trace has no adaptive span."""
        assert not hasattr(Observer, "on_dispatch_adapt")
        queries, stream = wildcard_mix_queries(4, 600, seed=34)
        engine = multi_engine(queries, 64)
        recorder = TraceRecorder(sample_every=4)
        engine.attach_observer(Observer(trace=recorder, sample_every=4))
        in_batches(engine, stream)
        names = {span[0] for span in recorder.spans()}
        assert "batch" in names and "dispatch_adapt" not in names


# ------------------------------------------------------------------------- CLI
EVENTS_CSV = """\
S,2,11
T,2
R,1,10
S,2,11
T,1
R,2,11
"""

CLI_QUERY = "Q(x, y) <- T(x), S(x, y), R(x, y)"


class TestCli:
    """``--adaptive`` / ``--no-adaptive`` are refused by every mode, and no
    mode prints an ``# adaptive:`` line."""

    def _events(self):
        return list(read_events(EVENTS_CSV.splitlines()))

    def _run_single(self, argv):
        args = build_parser().parse_args(argv)
        output = io.StringIO()
        code = run(args, self._events(), output)
        return code, output.getvalue()

    def _run_multi(self, argv):
        args = build_multi_parser().parse_args(argv)
        output = io.StringIO()
        code = run_multi(args, self._events(), output)
        return code, output.getvalue()

    @staticmethod
    def _matches(output):
        return sorted(line for line in output.splitlines() if not line.startswith("#"))

    @staticmethod
    def _refuses(parser, argv):
        parser.parse_args(argv)  # the same command line parses without the flag
        for flag in ("--adaptive", "--no-adaptive"):
            with pytest.raises(SystemExit):
                parser.parse_args(argv + [flag])

    def test_flags_are_mutually_exclusive(self):
        self._refuses(build_parser(), ["--query", CLI_QUERY])

    @pytest.mark.parametrize("extra", [[], ["--general"]])
    def test_single_modes_match_and_report(self, extra):
        base = ["--query", CLI_QUERY, "--window", "100", "--stats"]
        self._refuses(build_parser(), base + extra)
        code, output = self._run_single(base + extra)
        _, hashed = self._run_single(base)
        assert code == 0
        assert self._matches(output) == self._matches(hashed) != []
        assert "# kernel:" in output and "# adaptive:" not in output

    def test_multi_mode_matches_and_reports(self):
        base = ["--query", CLI_QUERY, "--window", "100", "--stats"]
        self._refuses(build_multi_parser(), base)
        code, output = self._run_multi(base)
        _, single = self._run_single(base)
        assert code == 0
        # Dropping the query-name column leaves the single mode's lines.
        assert sorted(line.split("\t", 1)[1] for line in self._matches(output)) == self._matches(single)
        assert "# kernel:" in output and "# adaptive:" not in output

    def test_default_is_adaptive(self):
        self._refuses(build_serve_parser(), [])
        self._refuses(build_net_client_parser(), ["--port", "1", "--query", CLI_QUERY])
        assert not hasattr(build_serve_parser().parse_args([]), "adaptive")
