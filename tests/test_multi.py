"""Tests for the multi-query subsystem (repro.multi).

The load-bearing property: a :class:`MultiQueryEngine` with K registered
patterns produces, per query, exactly the outputs of K independent
:class:`StreamingEvaluator` instances over the same stream — including under
mid-stream registration/unregistration, per-query windows, hash-table
eviction and batched ingestion — although the engine keeps one run store per
*window* and stores a leaf state several queries share once: late joiners,
overlapping queries under churn / checkpoint, the write
amplification as counts, and what unregistering gives back.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.cq.hierarchical import NotHierarchicalError
from repro.cq.schema import Tuple
from repro.engine.dsl import atom, conjunction, sequence
from repro.multi import (
    MergedDispatchIndex,
    MultiQueryEngine,
    QueryHandle,
    QueryRegistry,
    compile_query,
)
from repro.runtime import snapshot as snapshot_codec
from repro.streams.generators import random_stream

from helpers import QUERY_Q0, SIGMA0, overlapping_queries, overlapping_streams, rebuild_index


#: A varied bundle of registerable queries over the σ0 relations (T/1, S/2, R/2).
QUERY_SPECS = [
    ("conj3", "Q1(x, y) <- T(x), S(x, y), R(x, y)"),
    ("conj2", "Q2(x, y) <- S(x, y), R(x, y)"),
    ("single", "Q3(x) <- T(x)"),
    ("seq", sequence(atom("T", "x"), atom("S", "x", "y"))),
    (
        "filtered",
        conjunction(
            atom("S", "x", "y", filters=[("y", ">", 0)]), atom("R", "x", "y")
        ),
    ),
]


def sigma0_stream(length, seed, domain_size=3):
    return random_stream(SIGMA0, length=length, domain_size=domain_size, seed=seed).materialise()


def reference_evaluator(query, window, start_position=0, stats=False):
    """An independent evaluator aligned to global stream positions."""
    evaluator = StreamingEvaluator(compile_query(query), window=window, collect_stats=stats)
    evaluator.position = start_position - 1
    return evaluator


class TestQueryRegistry:
    def test_register_all_query_forms(self):
        registry = QueryRegistry()
        handles = [
            registry.register("Q(x, y) <- T(x), S(x, y)", window=10),
            registry.register(QUERY_Q0, window=20),
            registry.register(sequence(atom("T", "x"), atom("S", "x", "y")), window=30),
            registry.register(compile_query(QUERY_Q0), window=40),
        ]
        assert len(registry) == 4
        assert [h.id for h in handles] == [0, 1, 2, 3]
        assert [e.handle for e in registry.entries()] == handles
        assert handles[1].window == 20

    def test_handles_are_never_reused(self):
        registry = QueryRegistry()
        first = registry.register(QUERY_Q0, window=5)
        registry.unregister(first)
        second = registry.register(QUERY_Q0, window=5)
        assert second.id != first.id
        assert first not in registry and second in registry

    def test_unregister_unknown_handle_raises(self):
        registry = QueryRegistry()
        handle = registry.register(QUERY_Q0, window=5)
        registry.unregister(handle)
        with pytest.raises(KeyError):
            registry.unregister(handle)

    def test_rejects_non_hierarchical_and_garbage(self):
        registry = QueryRegistry()
        with pytest.raises(NotHierarchicalError):
            registry.register("Q(x, y) <- A(x), B(y), C(x, y)", window=5)
        with pytest.raises(ValueError):
            registry.register("not a query", window=5)
        with pytest.raises(TypeError):
            registry.register(42, window=5)
        with pytest.raises(ValueError):
            registry.register(QUERY_Q0, window=-1)

    def test_admits_non_equality_pcea(self):
        from repro.core.pcea import PCEA, PCEATransition
        from repro.core.predicates import LambdaBinaryPredicate, RelationPredicate

        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), RelationPredicate("T"), {}, {0}, "a"),
                PCEATransition(
                    {"a"},
                    RelationPredicate("S"),
                    {"a": LambdaBinaryPredicate(lambda t1, t2: True)},
                    {1},
                    "b",
                ),
            ],
            final={"b"},
        )
        # A join outside B_eq scans its source's runs; the query shares its
        # window's store with a hashed one, registered directly or through a
        # supplied registry.
        engine = MultiQueryEngine()
        assert engine.register(pcea, window=5).id == 0
        assert engine.register(QUERY_Q0, window=5).id == 1
        assert engine.dispatch_info()["stores"] == 1
        registry = QueryRegistry()
        registry.register(pcea, window=5)
        adopted = MultiQueryEngine(registry)
        outputs = adopted.run([Tuple("T", (1,)), Tuple("S", (1, 2))])
        assert [len(valuations) for valuations in outputs[1].values()] == [1]

    def test_version_bumps_on_change(self):
        registry = QueryRegistry()
        v0 = registry.version
        handle = registry.register(QUERY_Q0, window=5)
        assert registry.version > v0
        registry.unregister(handle)
        assert registry.version > v0 + 1


class TestMergedDispatchIndex:
    def test_entries_tagged_and_ordered(self):
        p1 = compile_query("Q1(x, y) <- T(x), S(x, y)")
        p2 = compile_query("Q2(x, y) <- S(x, y), R(x, y)")
        merged = MergedDispatchIndex(
            [("one", p1.dispatch_index()), ("two", p2.dispatch_index())]
        )
        assert len(merged) == len(p1.transitions) + len(p2.transitions)
        owners = [e.owner for e in merged.all_entries()]
        assert owners == ["one"] * len(p1.transitions) + ["two"] * len(p2.transitions)
        ranks = [e.index for e in merged.all_entries()]
        assert ranks == sorted(ranks)

    def test_candidates_union_across_queries(self):
        p1 = compile_query("Q1(x, y) <- T(x), S(x, y)")
        p2 = compile_query("Q2(x, y) <- S(x, y), R(x, y)")
        merged = MergedDispatchIndex(
            [("one", p1.dispatch_index()), ("two", p2.dispatch_index())]
        )
        s_owners = {e.owner for e in merged.candidates_for(Tuple("S", (1, 2)))}
        assert s_owners == {"one", "two"}
        t_owners = {e.owner for e in merged.candidates_for(Tuple("T", (1,)))}
        assert t_owners == {"one"}
        assert merged.candidates_for(Tuple("Unknown", (1,))) == ()

    def test_structurally_identical_predicates_share_a_key(self):
        p1 = compile_query("Q1(x, y) <- T(x), S(x, y)")
        p2 = compile_query("Q2(x, y) <- T(x), S(x, y)")
        merged = MergedDispatchIndex(
            [("one", p1.dispatch_index()), ("two", p2.dispatch_index())]
        )
        keys_by_owner = {}
        for e in merged.all_entries():
            keys_by_owner.setdefault(e.owner, []).append(e.pred_key)
        assert keys_by_owner["one"] == keys_by_owner["two"]
        info = merged.describe()
        assert info["queries"] == 2
        assert info["shared_predicate_groups"] == info["predicate_groups"]

    def test_describe_reports_fanout_and_groups(self):
        p1 = compile_query(QUERY_Q0)
        merged = MergedDispatchIndex([("only", p1.dispatch_index())])
        info = merged.describe()
        assert info["queries"] == 1
        assert info["transitions"] == len(p1.transitions)
        # Even one automaton may reuse a predicate across transitions, so the
        # shared-group count is bounded by, not equal to, the group count.
        assert 0 <= info["shared_predicate_groups"] <= info["predicate_groups"]
        assert info["max_candidates"] >= info["mean_candidates"] > 0

    def test_guard_buckets_prune_by_value(self):
        branch = lambda b: atom("E", "t", "y", filters=[("t", "==", b)])
        pcea = compile_query(conjunction(branch(0)))
        other = compile_query(conjunction(branch(1)))
        merged = MergedDispatchIndex(
            [("zero", pcea.dispatch_index()), ("one", other.dispatch_index())]
        )
        assert [e.owner for e in merged.candidates_for(Tuple("E", (0, 5)))] == ["zero"]
        assert [e.owner for e in merged.candidates_for(Tuple("E", (1, 5)))] == ["one"]
        assert list(merged.candidates_for(Tuple("E", (7, 5)))) == []

    def test_guard_buckets_patched_incrementally(self):
        """add_query/remove_query keep the constant-guard refinement exact."""
        branch = lambda b: atom("E", "t", "y", filters=[("t", "==", b)])
        merged = MergedDispatchIndex()
        merged.add_query("zero", compile_query(conjunction(branch(0))).dispatch_index())
        merged.add_query("one", compile_query(conjunction(branch(1))).dispatch_index())
        merged.add_query("one-b", compile_query(conjunction(branch(1))).dispatch_index())
        assert [e.owner for e in merged.candidates_for(Tuple("E", (1, 5)))] == ["one", "one-b"]
        merged.remove_query("one")
        assert [e.owner for e in merged.candidates_for(Tuple("E", (1, 5)))] == ["one-b"]
        assert [e.owner for e in merged.candidates_for(Tuple("E", (0, 5)))] == ["zero"]
        merged.remove_query("one-b")
        merged.remove_query("zero")
        assert list(merged.candidates_for(Tuple("E", (0, 5)))) == []
        assert len(merged) == 0 and merged.interned_key_count() == 0


class TestMultiDifferential:
    """K registered patterns == K independent evaluators, per query."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batched", [True, False])
    def test_mixed_queries_random_streams(self, seed, batched):
        windows = [4, 7, 3, 9, 5]
        engine = MultiQueryEngine()
        handles, references = [], []
        for (name, query), window in zip(QUERY_SPECS, windows):
            handles.append(engine.register(query, window=window, name=name))
            references.append(reference_evaluator(query, window))
        stream = sigma0_stream(60, seed)
        if batched:
            per_position = [
                outputs
                for start in range(0, len(stream), 7)
                for outputs in engine.process_many(stream[start : start + 7])
            ]
        else:
            per_position = [engine.process(tup) for tup in stream]
        for position, (tup, outputs) in enumerate(zip(stream, per_position)):
            for handle, reference in zip(handles, references):
                assert set(outputs.get(handle.id, [])) == set(reference.process(tup)), (
                    f"query {handle} diverged at position {position}"
                )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_register_mid_stream(self, seed):
        stream = sigma0_stream(50, seed)
        split = 20
        engine = MultiQueryEngine()
        base_query = QUERY_SPECS[0][1]
        base = engine.register(base_query, window=6)
        base_reference = reference_evaluator(base_query, 6)
        for tup in stream[:split]:
            outputs = engine.process(tup)
            assert set(outputs.get(base.id, [])) == set(base_reference.process(tup))
        # The late query observes only the suffix, at global positions.
        late_query = QUERY_SPECS[1][1]
        late = engine.register(late_query, window=5)
        late_reference = reference_evaluator(late_query, 5, start_position=split)
        for tup in stream[split:]:
            outputs = engine.process(tup)
            assert set(outputs.get(base.id, [])) == set(base_reference.process(tup))
            assert set(outputs.get(late.id, [])) == set(late_reference.process(tup))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unregister_mid_stream(self, seed):
        stream = sigma0_stream(50, seed)
        split = 25
        engine = MultiQueryEngine()
        keep_query, drop_query = QUERY_SPECS[0][1], QUERY_SPECS[1][1]
        keep = engine.register(keep_query, window=6)
        drop = engine.register(drop_query, window=4)
        keep_reference = reference_evaluator(keep_query, 6)
        drop_reference = reference_evaluator(drop_query, 4)
        for tup in stream[:split]:
            outputs = engine.process(tup)
            assert set(outputs.get(keep.id, [])) == set(keep_reference.process(tup))
            assert set(outputs.get(drop.id, [])) == set(drop_reference.process(tup))
        engine.unregister(drop)
        assert drop not in engine.registry
        for tup in stream[split:]:
            outputs = engine.process(tup)
            assert drop.id not in outputs
            assert set(outputs.get(keep.id, [])) == set(keep_reference.process(tup))

    def test_window_expiry_per_query(self):
        # Two copies of the same pattern with different windows: the tight
        # window must drop exactly the matches whose span exceeds it.
        engine = MultiQueryEngine()
        query = "Q(x, y) <- T(x), S(x, y)"
        tight = engine.register(query, window=1)
        loose = engine.register(query, window=10)
        stream = [
            Tuple("T", (1,)),       # 0
            Tuple("R", (9, 9)),     # 1 (filler)
            Tuple("S", (1, 5)),     # 2: span 2 > tight window, within loose
        ]
        results = [engine.process(tup) for tup in stream]
        assert results[2].get(tight.id) is None
        assert len(results[2][loose.id]) == 1

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
    def test_process_many_matches_per_tuple(self, batch_size):
        stream = sigma0_stream(60, seed=5)
        windows = [4, 7, 3, 9, 5]
        batched_engine = MultiQueryEngine()
        stepwise_engine = MultiQueryEngine()
        batched_handles, stepwise_handles = [], []
        for (name, query), window in zip(QUERY_SPECS, windows):
            batched_handles.append(batched_engine.register(query, window=window))
            stepwise_handles.append(stepwise_engine.register(query, window=window))
        batched_results = []
        for begin in range(0, len(stream), batch_size):
            batched_results.extend(batched_engine.process_many(stream[begin : begin + batch_size]))
        stepwise_results = [stepwise_engine.process(tup) for tup in stream]
        for batched, stepwise in zip(batched_results, stepwise_results):
            for bh, sh in zip(batched_handles, stepwise_handles):
                assert set(batched.get(bh.id, [])) == set(stepwise.get(sh.id, []))
        # Batched eviction reclaims the same entries by the end of the stream.
        assert batched_engine.hash_table_size() == stepwise_engine.hash_table_size()


class TestSharedEvictionSweep:
    def test_hash_tables_stay_window_bounded(self):
        engine = MultiQueryEngine()
        engine.register("Q1(x, y) <- S(x, y), R(x, y)", window=8)
        engine.register("Q2(x, y) <- T(x), S(x, y)", window=4)
        # High-cardinality keys: without eviction the tables would grow with
        # the stream; the shared sweep must keep them bounded by the windows.
        stream = sigma0_stream(800, seed=2, domain_size=500)
        max_size = 0
        for tup in stream:
            engine.process(tup)
            max_size = max(max_size, engine.hash_table_size())
        assert engine.evicted > 100
        assert max_size <= 8 * (8 + 1) + 8 * (4 + 1)

    def test_unregistered_lane_entries_are_skipped(self):
        engine = MultiQueryEngine()
        handle = engine.register("Q(x, y) <- T(x), S(x, y)", window=3)
        engine.process(Tuple("T", (1,)))
        engine.unregister(handle)
        # The expiry bucket still references the dropped lane; sweeping past
        # its expiry position must not fail or resurrect it.
        for _ in range(6):
            engine.process(Tuple("R", (0, 0)))
        assert engine.hash_table_size() == 0


class TestPredicateMemoisation:
    """One predicate evaluation per canonical key, shared across queries."""

    def test_duplicate_queries_evaluate_predicates_once(self):
        engine = MultiQueryEngine(collect_stats=True)
        query = "Q(x, y) <- T(x), S(x, y), R(x, y)"
        first = engine.register(query, window=10)
        second = engine.register(query, window=10)
        outputs = {}
        for tup in [Tuple("T", (1,)), Tuple("S", (1, 2)), Tuple("R", (1, 2))]:
            outputs = engine.process(tup)
        # Identical queries, identical outputs — but each tuple evaluated each
        # distinct predicate exactly once for both queries together.
        assert set(outputs[first.id]) == set(outputs[second.id])
        assert engine.stats.predicate_cache_hits > 0
        info = engine.dispatch_info()
        assert info["queries"] == 2
        assert info["shared_predicate_groups"] == info["predicate_groups"] > 0


class TestEngineIntrospection:
    def test_dispatch_info_tracks_registration(self):
        engine = MultiQueryEngine()
        assert engine.dispatch_info()["queries"] == 0
        handle = engine.register(QUERY_Q0, window=5)
        assert engine.dispatch_info()["queries"] == 1
        engine.unregister(handle)
        assert engine.dispatch_info()["queries"] == 0

    def test_handles_and_run(self):
        engine = MultiQueryEngine()
        h1 = engine.register("Q1(x) <- T(x)", window=5, name="mine")
        assert engine.handles() == [h1]
        assert h1.name == "mine"
        results = engine.run([Tuple("T", (1,)), Tuple("S", (1, 2))])
        assert set(results[0][h1.id]) == set(
            StreamingEvaluator(compile_query("Q1(x) <- T(x)"), window=5).process(
                Tuple("T", (1,))
            )
        )

    def test_stats_off_by_default(self):
        engine = MultiQueryEngine()
        engine.register(QUERY_Q0, window=5)
        for tup in sigma0_stream(20, seed=1):
            engine.process(tup)
        assert engine.stats.tuples_processed == 0
        assert engine.stats.predicate_evaluations == 0


# ------------------------------------------------ one run store per window
def shared_star(query, arms=3):
    """Arm 1 private to ``query`` (its own threshold), arms 2.. common to all."""
    parts = [atom("R1", "x", "y1", filters=[("y1", "<", 10 + query)])]
    parts += [atom(f"R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", 50)]) for j in range(2, arms + 1)]
    return conjunction(*parts)


def restored_copy(engine, **kwargs):
    """``engine`` checkpointed, serialised and restored into a fresh engine that
    registered the same automata; returns it with its handles, in order."""
    text = snapshot_codec.dumps(engine.snapshot())
    fresh = MultiQueryEngine(**kwargs)
    for handle in engine.handles():
        fresh.register(engine.registry.get(handle).pcea, window=handle.window, name=handle.name)
    fresh.restore(snapshot_codec.loads(text))
    return fresh, fresh.handles()


class TestLateJoiner:
    """A query that joins a store others have been filling sees nothing older
    than itself: probes and enumeration are cut at ``max(position - window, s)``."""

    WINDOW = 6
    S = 2  # B's first position: ``old2``/``old3`` arrive before it

    #: close position -> (A's outputs, B's outputs).  ``old2``@0, ``old3``@1,
    #: ``new2``@2 = s, ``new3``@3; A has seen everything, B only the new runs.
    PINNED = {
        S: (1, 0),                # old2 x old3: both older than B
        S + 1: (2, 0),            # {old2, new2} x old3: B has no arm-3 run yet
        S + WINDOW - 1: (2, 1),   # A's horizon is s - 1 (old3 still in), B's is s
        S + WINDOW: (1, 1),       # horizon s for both: the floor stops binding
        S + WINDOW + 1: (0, 0),   # new2@s left the window for both
    }

    def _stream(self, close_at):
        stream = [Tuple("R2", (0, 20)), Tuple("R3", (0, 30)), Tuple("R2", (0, 21)), Tuple("R3", (0, 31))]
        stream = stream[:close_at] + [Tuple("Z", (0, 0))] * (close_at - len(stream))
        return stream + [Tuple("R1", (0, 1))]

    @pytest.mark.parametrize(
        "arena, restore",
        [(True, False), (True, True), (False, False)],  # snapshots need the arena
        ids=["arena", "arena-restored", "object"],
    )
    @pytest.mark.parametrize("close_at", sorted(PINNED))
    def test_probes_and_enumeration_are_cut_at_the_joiners_start(self, close_at, arena, restore):
        engine = MultiQueryEngine(arena=arena, collect_stats=True)
        a = engine.register(shared_star(0), window=self.WINDOW)
        references = {a.id: reference_evaluator(shared_star(0), self.WINDOW, stats=True)}
        b = None
        for position, tup in enumerate(self._stream(close_at)):
            if position == self.S:
                b = engine.register(shared_star(1), window=self.WINDOW)
                references[b.id] = reference_evaluator(shared_star(1), self.WINDOW, self.S, stats=True)
                assert engine.dispatch_info()["shared_state_classes"] == 2
                if restore:  # while B's floor binds
                    engine, (a, b) = restored_copy(engine, collect_stats=True)
            fired = engine.stats.transitions_fired, sum(r.stats.transitions_fired for r in references.values())
            outputs = engine.process(tup)
            for qid, reference in references.items():
                assert outputs.get(qid, []) == reference.process(tup), (position, qid)
        assert (len(outputs.get(a.id, [])), len(outputs.get(b.id, []))) == self.PINNED[close_at]
        assert len(engine._runtime.lanes()) == 1
        # The closing tuple's transitions are all private: B must fire exactly what
        # an evaluator started at s fires — no dead run built on A's older entries
        # (enumeration would hide it, the next union's shape would not).
        assert engine.stats.transitions_fired - fired[0] == (
            sum(r.stats.transitions_fired for r in references.values()) - fired[1]
        )
        # window + 1 tuples on nothing old is left: a full match reads alike for both.
        tail = [Tuple("Z", (0, 0))] * (self.WINDOW + 1)
        tail += [Tuple("R2", (1, 1)), Tuple("R3", (1, 2)), Tuple("R3", (1, 3)), Tuple("R1", (1, 4))]
        for tup in tail:
            outputs = engine.process(tup)
            for qid, reference in references.items():
                assert outputs.get(qid, []) == reference.process(tup)
        assert len(outputs[a.id]) == len(outputs[b.id]) == 2

    def test_a_restored_joiner_keeps_its_start(self):
        """The snapshot carries ``s``: a restore between B's registration and
        the close must not let B see A's older runs — nor forget its own."""
        engine = MultiQueryEngine()
        engine.register(shared_star(0), window=self.WINDOW)
        for tup in self._stream(4)[:2]:
            engine.process(tup)
        engine.register(shared_star(1), window=self.WINDOW)
        snapshot = engine.snapshot()
        assert [since for _, since, _ in snapshot["placement"]] == [0, self.S]
        assert len(snapshot["lanes"]) == 1
        restored, _ = restored_copy(engine)
        assert restored.snapshot() == snapshot


class TestOverlappingQueries:
    """K overlapping queries == K independent evaluators: per handle, per
    position, the same output *lists* — under churn and a mid-stream
    checkpoint/restore."""

    @staticmethod
    def _drive(engine, queries, schedule, stream, cut, midway):
        handles, seen = {}, {index: {} for index in range(len(queries))}
        for position, tup in enumerate(stream):
            for index, ((pattern, window), (start, stop)) in enumerate(zip(queries, schedule)):
                if position == start:
                    handles[index] = engine.register(pattern, window=window)
                if position == stop:
                    engine.unregister(handles.pop(index))
            if position == cut:
                engine, handles = midway(engine, handles)
            outputs = engine.process(tup)
            for index, handle in handles.items():
                seen[index][position] = outputs.get(handle.id, [])
        return seen

    @settings(max_examples=40, deadline=None)
    @given(queries=overlapping_queries, stream=overlapping_streams, data=st.data())
    def test_output_lists_match_independent_evaluators(self, queries, stream, data):
        last = len(stream) - 1
        schedule = [
            (data.draw(st.integers(0, last // 2)), data.draw(st.none() | st.integers(last // 2 + 1, last)))
            for _ in queries
        ]
        cut = data.draw(st.integers(1, last))
        expected = {}
        for index, ((pattern, window), (start, stop)) in enumerate(zip(queries, schedule)):
            reference = reference_evaluator(pattern, window, start)
            stop = len(stream) if stop is None else stop
            expected[index] = {
                position: reference.process(stream[position]) for position in range(start, stop)
            }

        def restore(kwargs):
            def midway(engine, handles):
                fresh, _ = restored_copy(engine, **kwargs)
                return fresh, handles  # restore keeps the snapshot's handle ids
            return midway

        for arena in (True, False):
            kwargs = {"arena": arena}
            midway = restore(kwargs) if arena else (lambda engine, handles: (engine, handles))
            engine = MultiQueryEngine(**kwargs)
            assert self._drive(engine, queries, schedule, stream, cut, midway) == expected


class TestOneStorePerWindow:
    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "object"])
    @pytest.mark.parametrize("sharers", [1, 4, 16])
    def test_a_leaf_run_is_stored_once_whatever_the_number_of_readers(self, sharers, arena):
        """An accepted arm-2 tuple costs one hash update, one record, at most
        one union and at most one expiry registration, none onto a key a
        table already held — for 1, 4 or 16 queries reading it."""
        engine = MultiQueryEngine(collect_stats=True, arena=arena)
        for query in range(sharers):
            engine.register(shared_star(query), window=20)
        engine.register(shared_star(0, arms=2), window=9)  # a second window: a second store
        info = engine.dispatch_info()
        assert info["stores"] == len(engine._runtime.lanes()) == 2
        assert info["shared_state_classes"] == (2 if sharers > 1 else 0)
        # per query: arm 1's leaf state + the final state; per store: the shared arms
        assert info["state_classes"] == 2 * sharers + 2 + 2 + 1
        stats, buckets = engine.stats, engine._expiry_buckets
        registered = lambda: {pair for flat in buckets.values() for pair in zip(flat[0::2], flat[1::2])}
        held = lambda: {(lane.lane_id, key) for lane in engine._runtime.lanes() for key in lane.hash}
        rng = random.Random(sharers)
        for _ in range(200):
            tup = Tuple("R3", (rng.randrange(3), rng.randrange(40)))
            before = (stats.hash_updates, stats.unions, engine.memory_info()["nodes_created"], registered(), held())
            assert engine._process(tup, sweep=False) == {}  # unswept: buckets only grow
            assert stats.hash_updates - before[0] == 1
            assert stats.unions - before[1] <= 1
            assert engine.memory_info()["nodes_created"] - before[2] == 1
            new = registered() - before[3]
            assert len(new) <= 1 and not new & before[4]
            assert sum(map(len, buckets.values())) == 2 * len(held()) and registered() == held()
        assert stats.transitions_fired == 200

    def test_a_store_s_first_query_forms_its_classes_when_a_second_arrives(self):
        """A query alone in its store registers no leaf classes; the second
        query of the store turns the first one's leaf entries into classes
        in place — the plans keep the very same members and add only the
        second query's private ones — and the index then equals a
        from-scratch rebuild."""
        engine = MultiQueryEngine()
        engine.register(shared_star(0), window=20)
        merged = engine._merged
        assert merged._classes == {}
        before = {relation: plan.flat() for relation, plan in merged.plans.items()}
        second = engine._queries[engine.register(shared_star(1), window=20).id]
        assert engine.dispatch_info()["shared_state_classes"] == 2
        shared = [e for cls in merged._classes.values() for e in cls.entries]
        assert shared and all(e.handle is None for e in shared)
        for relation in ("R2", "R3"):  # the shared arms: their leaf entries are not doubled
            after = merged.plans[relation].flat()
            kept = {id(e) for e in before[relation]}
            assert kept <= {id(e) for e in after}
            assert all(e.handle is second for e in after if id(e) not in kept)
        signature = snapshot_codec.dumps(merged.signature())
        rebuild_index(engine)
        assert snapshot_codec.dumps(engine._merged.signature()) == signature

    def test_the_engine_builds_a_ds_w_in_one_place(self):
        source_root = Path(__file__).resolve().parent.parent / "src" / "repro" / "multi"
        built = re.compile(r"\b(?:Arena)?DataStructure\(")
        holders = {
            path.name: len(built.findall(path.read_text()))
            for path in source_root.glob("*.py")
            if built.search(path.read_text())
        }
        assert holders == {"engine.py": 2}  # the arena or the object graph, one call site each
        assert len(re.findall(r"def _open_store\(", (source_root / "engine.py").read_text())) == 1

    def test_unregistering_a_window_returns_its_memory(self):
        engine = MultiQueryEngine()
        handles = [engine.register(shared_star(query), window=8) for query in range(4)]
        keeper = engine.register(shared_star(0, arms=2), window=5)
        stream = [Tuple(f"R{1 + i % 3}", (i % 2, i % 7)) for i in range(60)]
        for tup in stream:
            engine.process(tup)
        assert engine.hash_table_size() > 0 and len(engine._runtime.lanes()) == 2
        for handle in handles:
            engine.unregister(handle)
        assert len(engine._runtime.lanes()) == 1  # the window's store went with its last query
        engine.unregister(keeper)
        for _ in range(8 + 1):
            engine.process(Tuple("Z", (0, 0)))
        assert engine.hash_table_size() == 0 and not engine._runtime.lanes()
        assert engine.memory_info()["live_nodes"] == 0
        assert engine.dispatch_info()["state_classes"] == engine.dispatch_info()["stores"] == 0

    def test_one_of_sixteen_sharers_leaves_the_rest_untouched(self):
        window = 8
        engine = MultiQueryEngine()
        handles = [engine.register(shared_star(query), window=window) for query in range(16)]
        references = {h.id: reference_evaluator(shared_star(q), window) for q, h in enumerate(handles)}
        rng = random.Random(16)
        stream = [Tuple(f"R{rng.randrange(1, 4)}", (rng.randrange(2), rng.randrange(30))) for _ in range(300)]
        slots_before = engine._runtime.lanes()[0].next_slot
        for position, tup in enumerate(stream):
            if position == 100:
                leaver = handles.pop(0)  # the query the shared classes were built from
                del references[leaver.id]
                engine.unregister(leaver)
                assert engine.dispatch_info()["shared_state_classes"] == 2
            if position == 100 + window + 1:
                # only the leaver's private arm-1 entries went: one slot, <= 2 keys
                assert 0 <= held - engine.hash_table_size() <= 2
            outputs = engine.process(tup)
            held = engine.hash_table_size()
            for qid, reference in references.items():
                assert outputs.get(qid, []) == reference.process(tup), (position, qid)
            assert leaver.id not in outputs if position >= 100 else True
        assert engine._runtime.lanes()[0].next_slot == slots_before  # nothing renumbered
