"""Tests for adaptive selectivity-driven dispatch (repro.core.adaptive).

Five layers of protection:

* config/unit tests — knob validation, the ``adaptive=`` knob resolution,
  and the engine gates (no index ⇒ adaptation off);
* differentials — for every engine (single, general, multi) the adaptive
  engine's outputs *and* operation counters must be
  bit-identical to the static-dispatch oracle on the seeded scenario
  workloads (drift, burst, wildcard-adversarial, shared-star) and on
  hypothesis-generated random streams, including register/unregister
  churn while adaptation is live;
* invariants — flushes reorder derived plans only: the dispatch
  ``signature()`` (the snapshot-verification identity) never changes, and
  the scenario workload builders are seed-replayable;
* snapshot policy — learned state deterministically resets on restore;
  a mid-stream snapshot continues bit-identically whether restored into
  an adaptive or a static engine (both directions) and across the
  python/native kernel boundary;
* observability — flush activity reaches the observer's
  ``repro_dispatch_reorders_total`` / ``repro_guard_promotions_total``
  counters and the per-relation observed-selectivity gauge, and the CLI
  ``--adaptive`` / ``--no-adaptive`` modes print identical matches plus
  the ``# adaptive:`` stats line.
"""

import io
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings

from repro.core.adaptive import (
    DEFAULT_ADAPTIVE_CONFIG,
    AdaptiveConfig,
    resolve_config,
)
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.kernel import native_available
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.multi.engine import MultiQueryEngine
from repro.obs import Observer
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


#: Short flush cadence so small test streams cross many adapt intervals.
def fast_config(interval=64, min_probes=16):
    return AdaptiveConfig(interval=interval, min_probes=min_probes)


QUERIES = [
    ("Q1(x, y) <- S(x, y), R(x, y)", 12),
    ("Q2(x) <- T(x)", 8),
    ("Q3(x, y) <- T(x), S(x, y)", 16),
]


def multi_engine(queries, window, adaptive, **kwargs):
    engine = MultiQueryEngine(adaptive=adaptive, **kwargs)
    for index, query in enumerate(queries):
        engine.register(query, window, f"q{index}")
    return engine


# ------------------------------------------------------------- config + gates
class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0},
            {"min_probes": 0},
            {"promote_threshold": 0.0},
            {"promote_threshold": 1.5},
            {"max_promoted": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    def test_resolve_config(self):
        assert resolve_config(False) is None
        assert resolve_config(True) is DEFAULT_ADAPTIVE_CONFIG
        explicit = fast_config()
        assert resolve_config(explicit) is explicit

    def test_disabled_engine_reports_none(self):
        pcea, _ = multi_star_workload(3, 10, selectivity=0.3, seed=1)
        assert StreamingEvaluator(pcea, window=8, adaptive=False).adaptive_info() is None
        engine = StreamingEvaluator(pcea, window=8, adaptive=True)
        info = engine.adaptive_info()
        assert info is not None and info["enabled"] is True

    def test_general_requires_index(self):
        pcea = hcq_to_pcea(parse_query(QUERIES[0][0]))
        assert (
            GeneralStreamingEvaluator(pcea, window=8, indexed=False, adaptive=True)
            .adaptive_info() is None
        )
        assert (
            GeneralStreamingEvaluator(pcea, window=8, adaptive=True).adaptive_info()
            is not None
        )


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
    WINDOW = 64

    def _run_pair(self, queries, stream, adaptive):
        engine = multi_engine(queries, self.WINDOW, adaptive, collect_stats=True)
        static = multi_engine(queries, self.WINDOW, False, collect_stats=True)
        for tup in stream:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats
        return engine

    def test_drift_promotes_and_demotes(self):
        queries, stream = drifting_guard_queries(12, 1600, seed=7)
        engine = self._run_pair(queries, stream, fast_config())
        info = engine.adaptive_info()
        assert info["flushes"] > 0
        assert info["promotions"] > 0
        assert info["demotions"] > 0
        assert info["relations"]["E"]["promoted"] >= 0

    def test_burst_scenario(self):
        queries, stream = bursty_guard_queries(
            12, 1600, burst_every=400, burst_length=100, seed=8
        )
        engine = self._run_pair(queries, stream, fast_config())
        assert engine.adaptive_info()["promotions"] > 0

    def test_wildcard_adversarial_goes_dormant(self):
        queries, stream = wildcard_mix_queries(8, 1500, seed=9)
        engine = self._run_pair(queries, stream, fast_config())
        info = engine.adaptive_info()
        # A uniform value distribution never concentrates: the guarded
        # relation must stop paying per-tuple tracking instead of promoting.
        assert info["promotions"] == 0
        assert info["dormant_relations"] >= 1
        assert info["tracked_relations"] >= info["dormant_relations"]

    def test_shared_star_scenario(self):
        queries, stream = shared_star_queries(10, 1200, seed=10)
        engine = self._run_pair(queries, stream, fast_config())
        assert engine.adaptive_info()["flushes"] > 0

    def test_default_knob_is_enabled(self):
        queries, stream = drifting_guard_queries(6, 600, seed=12)
        engine = self._run_pair(queries, stream, True)
        info = engine.adaptive_info()
        assert info["enabled"] is True
        assert info["interval"] == DEFAULT_ADAPTIVE_CONFIG.interval

    def test_churn_during_live_adaptation(self):
        queries, stream = drifting_guard_queries(8, 1200, seed=21)
        engine = multi_engine(queries, self.WINDOW, fast_config(), collect_stats=True)
        static = multi_engine(queries, self.WINDOW, False, collect_stats=True)
        for tup in stream[:400]:
            assert engine.process(tup) == static.process(tup)
        # Unregister a query whose guard the adapter may have promoted, then
        # register a replacement mid-stream — on both engines identically.
        engine.unregister(engine.handles()[2])
        static.unregister(static.handles()[2])
        for tup in stream[400:800]:
            assert engine.process(tup) == static.process(tup)
        engine.register(queries[2], self.WINDOW, "q2_re")
        static.register(queries[2], self.WINDOW, "q2_re")
        for tup in stream[800:]:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats
        assert engine.adaptive_info()["flushes"] > 0

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=30, domain=3))
    def test_hypothesis_streams(self, stream):
        adaptive = multi_engine(
            [parse_query(q) for q, _ in QUERIES],
            16,
            fast_config(interval=8, min_probes=4),
            collect_stats=True,
        )
        static = multi_engine(
            [parse_query(q) for q, _ in QUERIES], 16, False, collect_stats=True
        )
        for tup in stream:
            assert adaptive.process(tup) == static.process(tup)
        assert adaptive.stats == static.stats


class TestSingleEngineDifferential:
    def _run_pair(self, pcea, stream, window=64, **kwargs):
        engine = StreamingEvaluator(
            pcea, window=window, adaptive=fast_config(), collect_stats=True, **kwargs
        )
        static = StreamingEvaluator(
            pcea, window=window, adaptive=False, collect_stats=True, **kwargs
        )
        for tup in stream:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats
        return engine

    def test_multi_star_tracked(self):
        pcea, stream = multi_star_workload(3, 1500, selectivity=0.3, seed=4)
        engine = self._run_pair(pcea, stream)
        info = engine.adaptive_info()
        assert info["tracked_relations"] > 0
        assert info["flushes"] > 0

    def test_pure_guarded_disjunction_untracked(self):
        # The static constant-guard buckets already dispatch this shape
        # optimally: adaptation must decline to track it (zero overhead).
        pcea, stream = guarded_disjunction_workload(16, 800, seed=3)
        engine = self._run_pair(pcea, stream, window=128)
        # Nothing trackable ⇒ the engine keeps no adaptive state at all.
        assert engine.adaptive_info() is None

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(star_schema(2), max_length=24, domain=2))
    def test_hypothesis_streams(self, stream):
        pcea = hcq_to_pcea(star_query(2))
        engine = StreamingEvaluator(
            pcea, window=8, adaptive=fast_config(interval=8, min_probes=4),
            collect_stats=True,
        )
        static = StreamingEvaluator(pcea, window=8, adaptive=False, collect_stats=True)
        for tup in stream:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats

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
            static = StreamingEvaluator(pcea, window=window, adaptive=False, collect_stats=True)
            plan = StreamingEvaluator(pcea, window=window, adaptive=True, collect_stats=True)
            scan = StreamingEvaluator(pcea, window=window, indexed=False, collect_stats=True)
            multi = MultiQueryEngine(collect_stats=True)
            handle = multi.register(pcea, window=window)
            assert plan.adaptive_info() is not None  # the star shares predicate groups
            largest = dict.fromkeys(self.PER_TUPLE, 0)
            for tup in stream:
                before = asdict(static.stats)
                outputs = static.process(tup)
                assert plan.process(tup) == outputs
                assert scan.process(tup) == outputs
                assert multi.process(tup).get(handle.id, []) == outputs
                for name in self.PER_TUPLE:
                    step = getattr(static.stats, name) - before[name]
                    largest[name] = max(largest[name], step)
            reference = asdict(static.stats)
            # Plan mode emulates the static counters exactly; a full scan only
            # widens the two scan-width counters to |Δ| per tuple; the K=1
            # multi engine only splits evaluations into evaluated + memoised.
            assert asdict(plan.stats) == reference
            assert asdict(scan.stats) == {
                **reference,
                "transitions_scanned": length * len(pcea.transitions),
                "predicate_evaluations": length * len(pcea.transitions),
            }
            memoised = asdict(multi.stats)
            assert (
                memoised.pop("predicate_evaluations") + memoised.pop("predicate_cache_hits")
                == reference["predicate_evaluations"]
            )
            assert memoised.items() <= reference.items()
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
        engine = GeneralStreamingEvaluator(
            pcea, window=window, adaptive=fast_config(), collect_stats=True
        )
        static = GeneralStreamingEvaluator(
            pcea, window=window, adaptive=False, collect_stats=True
        )
        for tup in stream:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats
        return engine

    def test_multi_star_workload(self):
        pcea, stream = multi_star_workload(3, 1200, selectivity=0.3, seed=14)
        engine = self._run_pair(pcea, stream)
        assert engine.adaptive_info()["flushes"] > 0

    def test_guarded_disjunction(self):
        pcea, stream = guarded_disjunction_workload(12, 800, seed=15)
        self._run_pair(pcea, stream, window=128)

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=24, domain=3))
    def test_hypothesis_streams(self, stream):
        pcea = hcq_to_pcea(parse_query(QUERIES[0][0]))
        engine = GeneralStreamingEvaluator(
            pcea, window=8, adaptive=fast_config(interval=8, min_probes=4),
            collect_stats=True,
        )
        static = GeneralStreamingEvaluator(
            pcea, window=8, adaptive=False, collect_stats=True
        )
        for tup in stream:
            assert engine.process(tup) == static.process(tup)
        assert engine.stats == static.stats


class TestShardedDifferential:
    """What these checked on the removed sharded engine (``repro.shard``),
    checked on the one engine that replaced it."""

    def test_inline_shards_match_static_reference(self):
        """Batched adaptive dispatch equals the static reference tuple by
        tuple, and the adaptive summary shows it learned."""
        from repro.streams.generators import random_stream

        stream = random_stream(SIGMA0, length=400, domain_size=3, seed=19).materialise()
        reference = MultiQueryEngine(adaptive=False)
        engine = MultiQueryEngine(adaptive=fast_config(interval=32, min_probes=8))
        for query, window in QUERIES:
            reference.register(parse_query(query), window)
            engine.register(parse_query(query), window)
        want = [reference.process(tup) for tup in stream]
        assert engine.process_many(stream) == want
        info = engine.adaptive_info()
        assert info is not None and info["enabled"] is True
        assert info["tracked_relations"] > 0

    def test_inline_adaptive_info_disabled(self):
        engine = MultiQueryEngine(adaptive=False)
        engine.register(parse_query(QUERIES[0][0]), 8)
        engine.process(Tuple("T", (1,)))
        assert engine.adaptive_info() is None
        assert "adaptive" not in engine.observe()


# ------------------------------------------------------------------ invariants
class TestSignatureStability:
    def test_multi_signature_unchanged_by_flushes(self):
        queries, stream = drifting_guard_queries(8, 1200, seed=23)
        engine = multi_engine(queries, 64, fast_config())
        before = snapshot_codec.dumps(engine._merged.signature())
        for tup in stream:
            engine.process(tup)
        info = engine.adaptive_info()
        assert info["flushes"] > 0 and info["promotions"] > 0
        assert snapshot_codec.dumps(engine._merged.signature()) == before

    def test_single_signature_unchanged_by_flushes(self):
        pcea, stream = multi_star_workload(3, 800, selectivity=0.3, seed=24)
        engine = StreamingEvaluator(pcea, window=64, adaptive=fast_config())
        before = snapshot_codec.dumps(engine._dispatch.signature())
        for tup in stream:
            engine.process(tup)
        assert engine.adaptive_info()["flushes"] > 0
        assert snapshot_codec.dumps(engine._dispatch.signature()) == before


# ------------------------------------------------------------ snapshot policy
class TestSnapshotPolicy:
    """Learned state resets deterministically; snapshots stay interchangeable."""

    def _multi(self, queries, adaptive):
        return multi_engine(queries, 64, adaptive, collect_stats=True)

    @pytest.mark.parametrize(
        "source_adaptive,target_adaptive",
        [(True, True), (True, False), (False, True)],
        ids=["adaptive-to-adaptive", "adaptive-to-static", "static-to-adaptive"],
    )
    def test_multi_restore_continues_bit_identically(self, source_adaptive, target_adaptive):
        config = fast_config()
        queries, stream = drifting_guard_queries(8, 1200, seed=27)
        original = self._multi(queries, config if source_adaptive else False)
        for tup in stream[:700]:
            original.process(tup)
        snap = snapshot_codec.loads(snapshot_codec.dumps(original.snapshot()))
        restored = self._multi(queries, config if target_adaptive else False)
        restored.restore(snap)
        if target_adaptive:
            # The restore policy: all learned state dropped, counters zeroed.
            info = restored.adaptive_info()
            assert info["flushes"] == 0 and info["promotions"] == 0
        assert [original.process(t) for t in stream[700:]] == [
            restored.process(t) for t in stream[700:]
        ]
        assert original.stats == restored.stats
        assert original.snapshot() == restored.snapshot()

    def test_single_restore_resets_learning(self):
        config = fast_config()
        pcea, stream = multi_star_workload(3, 1200, selectivity=0.3, seed=28)
        original = StreamingEvaluator(pcea, window=64, adaptive=config)
        for tup in stream[:700]:
            original.process(tup)
        assert original.adaptive_info()["flushes"] > 0
        restored = StreamingEvaluator(pcea, window=64, adaptive=config)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert restored.adaptive_info()["flushes"] == 0
        assert [original.process(t) for t in stream[700:]] == [
            restored.process(t) for t in stream[700:]
        ]

    def test_general_restore_interchangeable(self):
        pcea, stream = multi_star_workload(2, 800, selectivity=0.3, seed=29)
        original = GeneralStreamingEvaluator(pcea, window=64, adaptive=fast_config())
        for tup in stream[:400]:
            original.process(tup)
        restored = GeneralStreamingEvaluator(pcea, window=64, adaptive=False)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert [original.process(t) for t in stream[400:]] == [
            restored.process(t) for t in stream[400:]
        ]

    @pytest.mark.skipif(not native_available(), reason="native kernel extension not built")
    @pytest.mark.parametrize("source,target", [("python", "native"), ("native", "python")])
    def test_cross_kernel_restore_with_adaptation(self, source, target):
        config = fast_config()
        pcea, stream = multi_star_workload(3, 1000, selectivity=0.3, seed=31)
        original = StreamingEvaluator(pcea, window=64, kernel=source, adaptive=config)
        for tup in stream[:500]:
            original.process(tup)
        restored = StreamingEvaluator(pcea, window=64, kernel=target, adaptive=config)
        restored.restore(snapshot_codec.loads(snapshot_codec.dumps(original.snapshot())))
        assert [original.process(t) for t in stream[500:]] == [
            restored.process(t) for t in stream[500:]
        ]
        assert original.snapshot() == restored.snapshot()


# -------------------------------------------------------------- observability
class TestObservability:
    def test_flush_activity_reaches_observer(self, tmp_path):
        queries, stream = drifting_guard_queries(8, 1200, seed=33)
        engine = multi_engine(queries, 64, fast_config())
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        for tup in stream:
            engine.process(tup)
        info = engine.adaptive_info()
        assert info["promotions"] > 0
        collected = observer.collect()
        assert collected["repro_guard_promotions_total"] == info["promotions"]
        assert collected["repro_dispatch_reorders_total"] == info["reorders"]
        observer.observe_engine(engine)
        collected = observer.collect()
        assert collected["repro_adaptive_flushes"] == info["flushes"]
        assert collected["repro_adaptive_promotions"] == info["promotions"]
        assert 'repro_relation_observed_selectivity{relation="E"}' in collected
        path = str(tmp_path / "metrics.prom")
        observer.export_metrics(path)
        text = open(path).read()
        assert "repro_dispatch_reorders_total" in text
        assert "repro_guard_promotions_total" in text
        assert "repro_relation_observed_selectivity" in text

    def test_quiescent_flushes_do_not_touch_counters(self):
        queries, stream = wildcard_mix_queries(4, 600, seed=34)
        engine = multi_engine(queries, 64, fast_config())
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        for tup in stream:
            engine.process(tup)
        collected = observer.collect()
        assert collected.get("repro_guard_promotions_total", 0) == 0


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
    def _events(self):
        from repro.cli import read_events

        return list(read_events(EVENTS_CSV.splitlines()))

    def _run_single(self, argv):
        from repro.cli import build_parser, run

        args = build_parser().parse_args(argv)
        output = io.StringIO()
        code = run(args, self._events(), output)
        return code, output.getvalue()

    def _run_multi(self, argv):
        from repro.cli import build_multi_parser, run_multi

        args = build_multi_parser().parse_args(argv)
        output = io.StringIO()
        code = run_multi(args, self._events(), output)
        return code, output.getvalue()

    @staticmethod
    def _matches(output):
        return [line for line in output.splitlines() if not line.startswith("#")]

    def test_flags_are_mutually_exclusive(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--query", CLI_QUERY, "--adaptive", "--no-adaptive"]
            )

    @pytest.mark.parametrize("extra", [[], ["--general"]])
    def test_single_modes_match_and_report(self, extra):
        base = ["--query", CLI_QUERY, "--window", "100", "--stats"] + extra
        code_on, out_on = self._run_single(base + ["--adaptive"])
        code_off, out_off = self._run_single(base + ["--no-adaptive"])
        assert code_on == code_off == 0
        assert self._matches(out_on) == self._matches(out_off)
        assert "# adaptive: enabled=yes" in out_on
        assert "# adaptive: enabled=no" in out_off

    def test_multi_mode_matches_and_reports(self):
        base = [
            "--query", CLI_QUERY,
            "--query", "Q2(x, y) <- T(x), S(x, y)",
            "--window", "100", "--stats",
        ]
        code_on, out_on = self._run_multi(base + ["--adaptive"])
        code_off, out_off = self._run_multi(base + ["--no-adaptive"])
        assert code_on == code_off == 0
        assert self._matches(out_on) == self._matches(out_off)
        assert "# adaptive: enabled=yes" in out_on
        assert "# adaptive: enabled=no" in out_off

    def test_default_is_adaptive(self):
        code, output = self._run_single(
            ["--query", CLI_QUERY, "--window", "100", "--stats"]
        )
        assert code == 0
        assert "# adaptive: enabled=yes" in output
