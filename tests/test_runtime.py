"""Tests for the shared streaming runtime (repro.runtime) and the
incrementally patched merged dispatch index.

Three layers:

* unit tests of :class:`StreamRuntime` / :class:`EvictionLane` — the sweep
  protocol (steady state, catch-up, superseded entries, inactive lanes),
  the batch driver and the aggregated introspection;
* incremental-patching invariants — after *every* ``add_query`` /
  ``remove_query`` the patched :class:`MergedDispatchIndex` must be
  structurally identical (``signature()``) to a from-scratch rebuild over the
  surviving queries, every stored plan must have the groups, families and
  total :func:`plan_of` / :func:`_split_by_guard` build over its members (a
  hypothesis variant mixes threshold families, guards and wildcards), a
  registration must regroup only the members it joins, and the interned-key
  tables must shrink back (no tombstones, no leaks);
* registration-churn differentials — loops of register/unregister mid-stream
  asserting per-query outputs identical to fresh independent evaluators, and
  the patched index identical to one re-merged from scratch at every change.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import ArenaDataStructure
from repro.core.dispatch import EvalGroup, _split_by_guard, plan_of
from repro.core.evaluation import StreamingEvaluator
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import LambdaUnaryPredicate, TruePredicate
from repro.cq.schema import Tuple
from repro.engine.dsl import atom, conjunction, sequence
from repro.multi import MergedDispatchIndex, MultiQueryEngine, compile_query
from repro.runtime import (
    RELEASE_PASS_INTERVAL,
    EngineStatistics,
    EvictionLane,
    SnapshotError,
    SparseBatch,
    StreamRuntime,
)
from repro.streams.generators import random_stream

from helpers import SIGMA0, rebuild_index


QUERY_SPECS = [
    "Q1(x, y) <- T(x), S(x, y), R(x, y)",
    "Q2(x, y) <- S(x, y), R(x, y)",
    "Q3(x) <- T(x)",
    sequence(atom("T", "x"), atom("S", "x", "y")),
    conjunction(atom("S", "x", "y", filters=[("y", ">", 0)]), atom("R", "x", "y")),
    conjunction(atom("R", "x", "y", filters=[("x", "==", 1)])),
]


def sigma0_stream(length, seed, domain_size=3):
    return random_stream(SIGMA0, length=length, domain_size=domain_size, seed=seed).materialise()


def reference_evaluator(query, window, start_position=0):
    evaluator = StreamingEvaluator(compile_query(query), window=window, collect_stats=False)
    evaluator.position = start_position - 1
    return evaluator


def rebuilt_index(engine):
    """A from-scratch, stand-alone (nothing shared) merged index over the
    engine's surviving queries."""
    queries = [engine._queries[qid] for qid in sorted(engine._queries)]
    return MergedDispatchIndex([(query, query.dispatch) for query in queries])


def plan_structure(plan):
    """What a plan decides, independent of list order: its groups and, per
    threshold family, the family's groups, members and constants (as entry
    indexes), and the total.  A family's constants must be sorted and line up
    with its members, or its bisect would cut in the wrong place."""
    indexes = lambda members: tuple(sorted(member.index for member in members))
    families = []
    for family in plan.families:
        assert family.constants == [member.family[1] for member in family.members]
        assert family.constants == sorted(family.constants)
        families.append(
            (sorted(indexes(group.members) for group in family.groups), indexes(family.members), family.constants)
        )
    return sorted(indexes(group.members) for group in plan.groups), sorted(families), plan.total


def assert_plans_are_rebuilt(merged):
    """Every plan the index stores has the structure :func:`plan_of` (and, for
    a guarded relation, :func:`_split_by_guard`) builds over its members."""
    entries = merged.all_entries()
    wildcards = [entry for entry in entries if entry.compiled.relations is None]
    assert plan_structure(merged.wildcard_plan) == plan_structure(plan_of(wildcards))
    relations = {relation for entry in entries for relation in entry.compiled.relations or ()}
    assert set(merged.plans) == relations
    for relation in relations:
        bucket = [
            entry for entry in entries
            if entry.compiled.relations is None or relation in entry.compiled.relations
        ]  # fmt: skip
        assert plan_structure(merged.plans[relation]) == plan_structure(plan_of(bucket)), relation
        split = _split_by_guard(bucket)
        stored = merged.guarded.get(relation)
        assert (stored is None) == (split is None), relation
        if split is None:
            continue
        (unguarded, positions), (stored_unguarded, stored_positions) = split, stored
        assert plan_structure(stored_unguarded) == plan_structure(unguarded)
        assert [position for position, _ in stored_positions] == [position for position, _ in positions]
        for (_, by_value), (_, stored_by_value) in zip(positions, stored_positions):
            assert stored_by_value.keys() == by_value.keys()
            for value, plan in by_value.items():
                assert plan_structure(stored_by_value[value]) == plan_structure(plan), (relation, value)


def wildcard_query(unary):
    """One source-less transition whose unary names no relation."""
    return PCEA(["w"], [PCEATransition({}, unary, {}, {"w"}, "w")], ["w"])


#: A wildcard predicate object several registrations share (one canonical key).
SHARED_WILDCARD = LambdaUnaryPredicate(lambda tup: tup.values[0] == 1)

THRESHOLDS = ("<", "<=", ">", ">=")


@st.composite
def churn_queries(draw):
    """A query over relations ``A``/``B``: a threshold-family atom, an ``==``
    guarded one (with or without a threshold on top), a two-atom conjunction
    whose leaf states stores may share, or a wildcard."""
    kind = draw(st.sampled_from(["family", "guarded", "conjunction", "wildcard"]))
    relation = draw(st.sampled_from("AB"))
    threshold = st.tuples(st.just("y"), st.sampled_from(THRESHOLDS), st.integers(0, 3))
    if kind == "family":
        return atom(relation, "x", "y", filters=[draw(threshold)])
    if kind == "guarded":
        filters = [("x", "==", draw(st.integers(0, 2)))]
        return atom(relation, "x", "y", filters=filters + draw(st.lists(threshold, max_size=1)))
    if kind == "conjunction":
        return conjunction(
            atom(relation, "x", "y", filters=draw(st.lists(threshold, max_size=1))),
            atom("B" if relation == "A" else "A", "x", "y", filters=draw(st.lists(threshold, max_size=1))),
        )
    return wildcard_query(draw(st.sampled_from([TruePredicate(), SHARED_WILDCARD])))


class TestStreamRuntimeUnits:
    def _lane(self, window):
        return EvictionLane(window, ArenaDataStructure(window))

    def test_steady_state_sweep_evicts_exactly_on_expiry(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(window=3))
        node = lane.ds.extend({"a"}, 0, [])
        runtime.advance()  # position 0
        runtime.sweep(0)
        lane.hash["k"] = (node, 0)
        runtime.register_entry(lane, "k", node, 0 + 3 + 1)
        for position in range(1, 4):
            assert runtime.advance() == position
            runtime.sweep(position)
            assert "k" in lane.hash  # expires only at max_start + w + 1
        runtime.advance()
        runtime.sweep(4)
        assert "k" not in lane.hash
        assert runtime.evicted == 1
        assert not runtime.buckets

    def test_superseded_entry_survives_old_bucket(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(window=2))
        old = lane.ds.extend({"a"}, 0, [])
        runtime.position = 0
        runtime._swept_upto = 0
        lane.hash["k"] = (old, 0)
        runtime.register_entry(lane, "k", old, 3)
        # Re-registered with a younger node before the old bucket pops.
        young = lane.ds.extend({"a"}, 2, [])
        lane.hash["k"] = (young, 2)
        runtime.register_entry(lane, "k", young, 5)
        for position in range(1, 5):
            runtime.position = position
            runtime.sweep(position)
            if position < 5:
                assert "k" in lane.hash, position
        runtime.position = 5
        runtime.sweep(5)
        assert "k" not in lane.hash
        assert runtime.evicted == 1  # the superseded pop evicted nothing

    def test_catchup_sweep_covers_gap(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(window=1))
        node = lane.ds.extend({"a"}, 0, [])
        runtime.position = 0
        lane.hash["k"] = (node, 0)
        runtime.register_entry(lane, "k", node, 2)
        # Jump several positions without sweeping (deferred batch), then one
        # sweep call must cover the whole overdue range.
        runtime.position = 6
        runtime.sweep(6)
        assert "k" not in lane.hash
        assert not runtime.buckets

    def test_inactive_lane_entries_are_skipped(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(window=1))
        node = lane.ds.extend({"a"}, 0, [])
        lane.hash["k"] = (node, 0)
        runtime.register_entry(lane, "k", node, 2)
        runtime.drop_lane(lane)
        assert not lane.active and lane.ds is None
        for position in range(3):
            runtime.position = position
            runtime.sweep(position)  # must not fail on the dead lane
        assert runtime.evicted == 0
        assert runtime.hash_table_size() == 0

    def test_drive_batch_sweeps_once_at_end(self):
        runtime = StreamRuntime()
        seen = []

        def step(item):
            runtime.advance()
            seen.append(item)
            return item * 2

        results = runtime.drive_batch([1, 2, 3], step)
        assert results == [2, 4, 6]
        assert seen == [1, 2, 3]
        assert runtime._swept_upto == runtime.position == 2

    @pytest.mark.parametrize("count_stats", (False, True))
    def test_advance_by_equals_that_many_missed_advances(self, count_stats):
        """``advance_by(n)`` then the batch's sweep leaves what ``n`` missed
        updates and that sweep leave: position, ``tuples_processed``, every
        period-clock firing, what fell due."""

        def missed(runtime, count):
            for _ in range(count):
                runtime.advance()
                if runtime.count_stats:
                    runtime.stats.tuples_processed += 1

        def crossed(runtime, count):
            runtime.advance_by(count)

        states = []
        for cross in (missed, crossed):
            runtime = StreamRuntime()
            runtime.count_stats = count_stats
            lane = runtime.add_lane(self._lane(window=3))
            fired = []

            # The observer's two-phase period clock: begin at every 4th
            # position, finish one later.
            def begin(runtime=runtime, fired=fired):
                fired.append(("begin", runtime.position))
                runtime.obs_arm, runtime.obs_next = finish, runtime.position + 1

            def finish(runtime=runtime, fired=fired):
                fired.append(("finish", runtime.position))
                runtime.obs_arm, runtime.obs_next = begin, (runtime.position // 4 + 1) * 4

            runtime.obs_arm, runtime.obs_next = begin, 0
            cross(runtime, 2)
            node = lane.ds.extend({"a"}, runtime.position, [])
            lane.hash["k"] = (node, runtime.position)
            runtime.register_entry(lane, "k", node, runtime.position + 3 + 1)
            for gap in (1, 3, 7, 1, 12):
                cross(runtime, gap)
                due = sorted(bucket for bucket in runtime.buckets if bucket <= runtime.position)
                runtime.sweep_upto(runtime.position)
                states.append((
                    cross.__name__, runtime.position, list(fired),
                    runtime.obs_next, runtime._swept_upto, due,
                    sorted(lane.hash), runtime.evicted, runtime.stats.tuples_processed,
                ))
        half = len(states) // 2
        assert [state[1:] for state in states[:half]] == [state[1:] for state in states[half:]]
        final = states[-1]
        assert final[1] == 25 and final[8] == (26 if count_stats else 0)
        assert ("begin", 24) in final[2] and ("finish", 25) in final[2]
        assert "k" not in final[6] and final[7] == 1

    def test_release_pass_interval_covers_idle_lanes(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(window=4))
        ds = lane.ds
        for position in range(3):
            ds.extend({"a"}, position, [])
        # No bucket traffic at all: the periodic pass must still release.
        for position in range(2 * RELEASE_PASS_INTERVAL + ds.slab_capacity()):
            runtime.position = position
            runtime.sweep(position)
            for _ in range(4):
                ds.extend({"a"}, position, [])
        assert ds.released_slabs > 0

    def test_memory_info_aggregates_and_flags_mixed_lanes(self):
        from repro.core.datastructure import DataStructure

        runtime = StreamRuntime()
        arena_lane = runtime.add_lane(self._lane(window=4))
        arena_lane.ds.extend({"a"}, 0, [])
        info = runtime.memory_info()
        assert info["arena"] == 1
        assert info["live_nodes"] == 1
        runtime.add_lane(EvictionLane(4, DataStructure(4)))
        assert runtime.memory_info()["arena"] == 0  # mixed setup reports object


class TestIncrementalMergedIndex:
    def test_patch_equals_rebuild_after_every_mutation(self):
        rng = random.Random(13)
        engine = MultiQueryEngine()
        live = []
        for step in range(60):
            if live and rng.random() < 0.4:
                handle = live.pop(rng.randrange(len(live)))
                engine.unregister(handle)
            else:
                query = rng.choice(QUERY_SPECS)
                live.append(engine.register(query, window=rng.randrange(1, 9)))
            assert engine._merged.signature() == rebuilt_index(engine).signature(), step
            assert len(engine._merged) == len(rebuilt_index(engine))
            assert_plans_are_rebuilt(engine._merged)

    @settings(deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("add"), churn_queries(), st.sampled_from([2, 3])),
                st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.none()),
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_patched_plans_equal_rebuilt_ones_in_structure(self, steps):
        """Families, guard buckets and wildcards under churn: after every
        change each stored plan has the groups, family members and constants
        a rebuild over its members has (``signature()`` compares tokens only,
        which a mis-sorted family would pass)."""
        engine = MultiQueryEngine()
        live = []
        for kind, query, window in steps:
            if kind == "add":
                live.append(engine.register(query, window))
            elif live:
                engine.unregister(live.pop(query % len(live)))
            assert_plans_are_rebuilt(engine._merged)
            assert engine._merged.signature() == rebuilt_index(engine).signature()

    def test_a_registration_regroups_what_it_joins_not_the_relation(self, monkeypatch):
        """K queries on one relation, each with a predicate of its own (no
        family, no guard): registering one more, or unregistering one,
        regroups the same members at K = 16 as at K = 256."""
        regrouped = []
        build = EvalGroup.__init__

        def counted(group, members, accepts=None):
            regrouped.append(len(members))
            build(group, members, accepts)

        monkeypatch.setattr(EvalGroup, "__init__", counted)

        def costs(k):
            engine = MultiQueryEngine()
            own = lambda i: atom("E", "x", filters=[("x", "!=", i)])
            handles = [engine.register(own(i), window=4) for i in range(k)]
            regrouped.clear()
            engine.register(own(k), window=4)
            added = sum(regrouped)
            regrouped.clear()
            engine.unregister(handles[k // 2])
            return added, sum(regrouped)

        assert costs(16) == costs(256) == (1, 0)

    def test_interned_key_tables_shrink_back(self):
        engine = MultiQueryEngine()
        baseline_keys = engine._merged.interned_key_count()
        baseline_size = len(engine._merged)
        anchor = engine.register(QUERY_SPECS[0], window=5)
        anchor_keys = engine._merged.interned_key_count()
        anchor_size = len(engine._merged)
        churned = [engine.register(q, window=5) for q in QUERY_SPECS[1:]]
        assert engine._merged.interned_key_count() > anchor_keys
        for handle in churned:
            engine.unregister(handle)
        # No tombstones, no leaked interned keys: back to the anchor's state.
        assert engine._merged.interned_key_count() == anchor_keys
        assert len(engine._merged) == anchor_size
        engine.unregister(anchor)
        assert engine._merged.interned_key_count() == baseline_keys == 0
        assert len(engine._merged) == baseline_size == 0
        assert engine._merged.describe()["relations"] == 0

    def test_recycled_pred_ids_stay_dense(self):
        # Register/unregister many distinct queries: the dense-id space must
        # be recycled, not grow without bound.
        engine = MultiQueryEngine()
        for round_index in range(10):
            handles = [engine.register(q, window=3) for q in QUERY_SPECS]
            for handle in handles:
                engine.unregister(handle)
        probe = engine.register(QUERY_SPECS[0], window=3)
        max_id = max(e.pred_key for e in engine._merged.all_entries())
        # The largest live id is bounded by the peak simultaneous key count,
        # not by the total number of registrations ever made.
        peak = MergedDispatchIndex(
            [
                (name, compile_query(q).dispatch_index())
                for name, q in zip("abcdef", QUERY_SPECS)
            ]
        ).interned_key_count()
        assert max_id < peak
        engine.unregister(probe)

    def test_remove_unknown_owner_raises(self):
        merged = MergedDispatchIndex()
        with pytest.raises(KeyError):
            merged.remove_query(object())

    def test_double_add_rejected(self):
        merged = MergedDispatchIndex()
        dispatch = compile_query(QUERY_SPECS[0]).dispatch_index()
        owner = object()
        merged.add_query(owner, dispatch)
        with pytest.raises(ValueError):
            merged.add_query(owner, dispatch)

    def test_wildcard_queries_patch_globally(self):
        from repro.core.pcea import PCEA, PCEATransition
        from repro.core.predicates import LambdaUnaryPredicate

        wildcard_pcea = PCEA(
            states={"a"},
            transitions=[
                PCEATransition(set(), LambdaUnaryPredicate(lambda t: True), {}, {"w"}, "a")
            ],
            final={"a"},
        )
        specific = compile_query(QUERY_SPECS[0])
        merged = MergedDispatchIndex()
        merged.add_query("spec", specific.dispatch_index())
        merged.add_query("wild", wildcard_pcea.dispatch_index())
        tup = Tuple("T", (1,))
        owners = [e.owner for e in merged.candidates_for(tup)]
        assert "wild" in owners and "spec" in owners
        # Unknown relations still reach the wildcard.
        assert [e.owner for e in merged.candidates_for(Tuple("ZZZ", (0,)))] == ["wild"]
        merged.remove_query("wild")
        assert [e.owner for e in merged.candidates_for(Tuple("ZZZ", (0,)))] == []
        assert all(e.owner == "spec" for e in merged.candidates_for(tup))
        rebuilt = MergedDispatchIndex([("spec", specific.dispatch_index())])
        assert merged.signature() == rebuilt.signature()


class TestRegistrationChurnDifferential:
    """Random register/unregister mid-stream == fresh independent engines."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_churn_outputs_match_fresh_engines(self, seed):
        rng = random.Random(seed)
        stream = sigma0_stream(120, seed, domain_size=3)
        engine = MultiQueryEngine()
        live = {}  # handle id -> (handle, fresh reference evaluator)
        for position, tup in enumerate(stream):
            if rng.random() < 0.15:
                if live and rng.random() < 0.45:
                    victim = rng.choice(list(live))
                    handle, _ = live.pop(victim)
                    engine.unregister(handle)
                else:
                    query = rng.choice(QUERY_SPECS)
                    window = rng.randrange(1, 8)
                    handle = engine.register(query, window=window)
                    live[handle.id] = (
                        handle,
                        reference_evaluator(query, window, start_position=position),
                    )
            outputs = engine.process(tup)
            for handle_id, (handle, reference) in live.items():
                expected = set(reference.process(tup))
                assert set(outputs.get(handle_id, [])) == expected, (
                    f"handle {handle} diverged at position {position}"
                )
            assert set(outputs) <= set(live)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_incremental_equals_full_rebuild_engine(self, seed):
        rng = random.Random(seed + 100)
        stream = sigma0_stream(80, seed, domain_size=3)
        patched = MultiQueryEngine()
        rebuilt = MultiQueryEngine()  # re-merged from scratch after every change
        live = []
        for tup in stream:
            if rng.random() < 0.2:
                if live and rng.random() < 0.4:
                    index = rng.randrange(len(live))
                    patched_handle, rebuilt_handle = live.pop(index)
                    patched.unregister(patched_handle)
                    rebuilt.unregister(rebuilt_handle)
                else:
                    query = rng.choice(QUERY_SPECS)
                    window = rng.randrange(1, 7)
                    live.append(
                        (
                            patched.register(query, window=window),
                            rebuilt.register(query, window=window),
                        )
                    )
                rebuild_index(rebuilt)
            patched_outputs = patched.process(tup)
            rebuilt_outputs = rebuilt.process(tup)
            for patched_handle, rebuilt_handle in live:
                assert set(patched_outputs.get(patched_handle.id, [])) == set(
                    rebuilt_outputs.get(rebuilt_handle.id, [])
                )

    def test_churned_engine_hash_tables_stay_bounded(self):
        rng = random.Random(4)
        engine = MultiQueryEngine()
        live = []
        max_size = 0
        for position in range(600):
            if rng.random() < 0.05:
                if live and len(live) > 2:
                    engine.unregister(live.pop(rng.randrange(len(live))))
                else:
                    live.append(engine.register(QUERY_SPECS[0], window=6))
            relation = rng.choice(["T", "S", "R"])
            if relation == "T":
                tup = Tuple("T", (rng.randrange(50),))
            else:
                tup = Tuple(relation, (rng.randrange(50), rng.randrange(50)))
            engine.process(tup)
            max_size = max(max_size, engine.hash_table_size())
        assert engine.evicted > 0
        # Bounded by queries x window-ish, never by the stream length.
        assert max_size <= (len(live) + 3) * 8 * 7


class TestCompactBucketProtocol:
    """Lane interning, flat int-triple buckets, knobs, and eviction hooks."""

    def _lane(self, window):
        return EvictionLane(window, ArenaDataStructure(window))

    def test_lanes_interned_to_dense_never_reused_ids(self):
        runtime = StreamRuntime()
        first = runtime.add_lane(self._lane(3))
        second = runtime.add_lane(self._lane(3))
        assert (first.lane_id, second.lane_id) == (0, 1)
        runtime.drop_lane(first)
        third = runtime.add_lane(self._lane(3))
        assert third.lane_id == 2  # dropped ids are never reused

    def test_buckets_hold_flat_triples(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(4))
        node = lane.ds.extend({"a"}, 0, [])
        lane.hash["k"] = (node, 0)
        runtime.register_entry(lane, "k", node, 5)
        runtime.register_entry(lane, "k2", node, 5)
        assert runtime.buckets[5] == [lane.lane_id, "k", node, lane.lane_id, "k2", node]

    def test_stale_triples_of_dropped_lane_are_skipped(self):
        runtime = StreamRuntime()
        keep = runtime.add_lane(self._lane(1))
        drop = runtime.add_lane(self._lane(1))
        for lane in (keep, drop):
            node = lane.ds.extend({"a"}, 0, [])
            lane.hash["k"] = (node, 0)
            runtime.register_entry(lane, "k", node, 2)
        runtime.drop_lane(drop)
        runtime.position = 2
        runtime.sweep_upto(2)
        assert runtime.evicted == 1  # only the surviving lane's entry
        assert "k" not in keep.hash

    def test_on_evict_hook_fires_per_genuine_eviction(self):
        """(Named for the hook the scan slots replaced.)  A scanned run leaves
        its scan slot with its genuine eviction, and only then; a hash-slot
        key of the same store leaves the scan slots alone."""
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(2))
        lane.scans = {7: {}}
        seen = []
        old = lane.ds.extend({"a"}, 0, [])
        lane.hash[(3, "k")] = (old, 0)
        runtime.register_entry(lane, (3, "k"), old, 3)
        for seq in (0, 1):
            lane.hash[(7, seq)] = lane.scans[7][seq] = (old, 0)
            runtime.register_entry(lane, (7, seq), old, 3)
        # Superseded entry: re-registered young, the old bucket must not evict it.
        young = lane.ds.extend({"a"}, 2, [])
        lane.hash[(7, 1)] = (young, 2)
        runtime.register_entry(lane, (7, 1), young, 5)
        for position in range(6):
            runtime.position = position
            runtime.sweep(position)
            seen.append(list(lane.scans[7]))
        assert seen == [[0, 1], [0, 1], [0, 1], [1], [1], []]
        assert not lane.hash and runtime.evicted == 3

    def test_release_pass_interval_is_the_constant_a_checkpoint_carries(self):
        runtime = StreamRuntime()
        assert runtime.memory_info()["release_interval"] == RELEASE_PASS_INTERVAL
        snap = runtime.snapshot({})
        assert snap["release_interval"] == RELEASE_PASS_INTERVAL
        assert StreamRuntime.parse(snap, 0)["position"] == -1
        for other in (8, "256", None):
            with pytest.raises(SnapshotError):
                StreamRuntime.parse(dict(snap, release_interval=other), 0)

    def test_multi_engine_exposes_release_interval(self):
        assert MultiQueryEngine().memory_info()["release_interval"] == RELEASE_PASS_INTERVAL

    def test_runtime_snapshot_roundtrip(self):
        runtime = StreamRuntime()
        lane = runtime.add_lane(self._lane(3))
        node = lane.ds.extend({"a"}, 0, [])
        key = (0, ("k",))  # (slot, key): what a checkpoint's tables must hold
        lane.hash[key] = (node, 0)
        runtime.register_entry(lane, key, node, 4)
        runtime.position = 0
        snap = runtime.snapshot({lane.lane_id: 0})
        fresh = StreamRuntime()
        fresh_lane = fresh.add_lane(self._lane(3))
        fresh_lane.restore(lane.snapshot())
        fresh.restore(StreamRuntime.parse(snap, 1), [fresh_lane])
        assert type(fresh.stats) is EngineStatistics
        assert fresh.position == runtime.position
        assert fresh.buckets == {4: [fresh_lane.lane_id, key, node]}
        for position in range(1, 5):
            fresh.position = position
            fresh.sweep(position)
        assert key not in fresh_lane.hash and fresh.evicted == 1


# --------------------------------------------------------------------------
def as_sparse(engine, tuples):
    """``tuples`` as the ingest server hands them over: only what ``engine``
    watches is kept, the rest are gaps."""
    watched = engine.watched_relations()
    kept = [
        (offset, tup)
        for offset, tup in enumerate(tuples)
        if watched is None or tup.relation in watched
    ]
    if len(kept) == len(tuples):
        return SparseBatch(tuples)
    return SparseBatch([tup for _, tup in kept], [offset for offset, _ in kept], len(tuples))


def ingest_sparse(engine, tuples):
    """Dense-shaped outputs (one dict per stream position) of a sparse ingest."""
    batch = as_sparse(engine, tuples)
    base, outputs = engine.ingest_batch(batch)
    assert base + len(tuples) - 1 == engine.position
    dense = [{} for _ in tuples]
    for offset, output in zip(batch.offsets or range(len(tuples)), outputs):
        dense[offset] = output
    return dense


class TestSparseBatches:
    """One ``ingest_batch``: a dense list is the sparse batch with no gaps,
    and a batch with gaps leaves the engine as the dense one would."""

    QUERIES = [("QA(x, y) <- A(x), B(x, y)", 6), ("QC(x) <- C(x)", 3), ("QB(x, y) <- B(x, y)", 9)]

    def stream(self, length, seed):
        rng = random.Random(seed)
        arity = {"A": 1, "B": 2, "C": 1, "U": 1, "V": 2, "W": 1}
        return [
            Tuple(name, tuple(rng.randrange(3) for _ in range(arity[name])))
            for name in (rng.choice("ABCUUVVWW") for _ in range(length))
        ]

    def engine(self, one_store=False, **kwargs):
        """The three queries, each under its own window — or all under the
        first query's window, so they share one run store."""
        engine = MultiQueryEngine(collect_stats=True, **kwargs)
        for text, window in self.QUERIES:
            engine.register(text, self.QUERIES[0][1] if one_store else window)
        return engine

    def fingerprint(self, engine):
        runtime = engine._runtime
        return (
            engine.position, engine.evicted, engine.hash_table_size(), runtime._swept_upto,
            sorted(runtime.buckets), vars(engine.stats),
        )

    @pytest.mark.parametrize("one_store", (True, False))
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_ingest_equals_dense_with_a_restore_inside_a_gap(self, seed, one_store):
        stream = self.stream(400, seed)
        dense = self.engine(one_store)
        sparse = self.engine(one_store)
        assert len(sparse._runtime.lanes()) == (1 if one_store else 3)
        assert set(sparse.watched_relations()) == {"A", "B", "C"}
        # Cut where unwatched tuples sit on both sides, so the checkpoint is
        # taken with the stream position inside a gap.
        cuts = [
            index for index in range(1, 399)
            if stream[index - 1].relation in "UVW" and stream[index].relation in "UVW"
        ]
        rng = random.Random(seed)
        bounds = [0] + sorted(rng.sample(cuts, 5)) + [400]
        for step, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            chunk = stream[start:stop]
            assert ingest_sparse(sparse, chunk) == dense.process_many(chunk)
            assert self.fingerprint(sparse) == self.fingerprint(dense)
            if step == 2:
                snapshot = sparse.snapshot()
                sparse = self.engine(one_store)
                sparse.restore(snapshot)
        assert dense.stats.tuples_processed == 400 and dense.stats.outputs_enumerated > 0

    def test_a_plain_list_is_the_batch_without_gaps(self):
        stream = self.stream(120, seed=8)
        plain, wrapped = self.engine(), self.engine()
        base, outputs = plain.ingest_batch(stream)
        assert (base, outputs) == wrapped.ingest_batch(SparseBatch(stream))
        assert base == 0 and outputs == self.engine().process_many(stream)
        # Nothing watched at all: the batch is one gap.
        idle = MultiQueryEngine(collect_stats=True)
        assert idle.ingest_batch(as_sparse(idle, stream)) == (0, [])
        assert idle.position == 119 and idle.stats.tuples_processed == 120

    def test_observer_spans_count_the_same_per_kind(self):
        from collections import Counter

        from repro.obs import Observer, TraceRecorder

        stream = self.stream(600, seed=4)
        kinds = []
        for ingest in (lambda engine, chunk: engine.process_many(chunk), ingest_sparse):
            observer = Observer(trace=TraceRecorder(sample_every=8), sample_every=8)
            engine = self.engine()
            engine.attach_observer(observer)
            outputs = []
            for start in range(0, 600, 75):
                outputs += ingest(engine, stream[start : start + 75])
            spans = observer.trace.spans()
            kinds.append((
                Counter(span[0] for span in spans),
                [span[3]["position"] for span in spans if span[0] == "tuple"],
                [span[3]["tuples"] for span in spans if span[0] == "batch"],
                observer.metrics.collect()["repro_batch_tuples_total"],
                outputs,
            ))
        assert kinds[0] == kinds[1]
        assert kinds[0][0]["tuple"] >= 600 // 8 - 1 and kinds[0][0]["batch"] == 8
