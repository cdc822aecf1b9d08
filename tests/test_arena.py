"""Tests for the arena-backed ``DS_w`` (repro.core.arena) and its wiring.

Three layers of protection:

* unit tests of :class:`ArenaDataStructure` semantics (mirroring the object
  structure's test suite: extend / union / windowed enumeration / persistence
  / heap condition), plus the slab-release protocol specifics (release order,
  external-reference blocking, released ids reading as expired);
* differential property tests: the arena and object evaluators — single
  query, multi query, and an automaton with hashed and scanned joins — must produce
  identical outputs position by position across random HCQ workloads,
  including windows small enough that expiry happens mid-stream;
* memory-bound regression: the live arena node count over a long stream stays
  ``O(window)`` while the object structure's allocation total grows with the
  stream.
"""

import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import ArenaDataStructure, BOTTOM_ID
from repro.core.datastructure import DataStructure
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.runtime import StreamRuntime
from repro.valuation import Valuation

from helpers import ARENAS, mixed_join_pcea, mixed_stream, star_query, star_schema, streams_strategy


def collect(ds, node, position):
    return set(ds.enumerate(node, position))


def collect_all(ds, node):
    return set(ds.enumerate_all(node))


class TestArenaBasics:
    def test_leaf_node_represents_single_valuation(self):
        ds = ArenaDataStructure(window=10)
        node = ds.extend({"a"}, 3, [])
        assert collect_all(ds, node) == {Valuation({"a": {3}})}
        assert ds.max_start_of(node) == 3
        assert ds.position_of(node) == 3
        assert ds.labels_of(node) == frozenset({"a"})

    def test_extend_products_children(self):
        ds = ArenaDataStructure(window=10)
        left = ds.extend({"a"}, 0, [])
        right = ds.extend({"b"}, 1, [])
        product = ds.extend({"c"}, 2, [left, right])
        assert collect_all(ds, product) == {Valuation({"a": {0}, "b": {1}, "c": {2}})}
        assert ds.max_start_of(product) == 0

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_extend_validates_children(self, kernel):
        ds = ArenaDataStructure(window=10, kernel=kernel)
        child = ds.extend({"a"}, 5, [])
        with pytest.raises(ValueError):
            ds.extend({"b"}, 5, [child])  # equal position not allowed
        with pytest.raises(ValueError):
            ds.extend({"b"}, 6, [BOTTOM_ID])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ArenaDataStructure(window=-1)

    def test_union_is_set_union_and_persistent(self):
        ds = ArenaDataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        union = ds.union(first, second)
        assert collect_all(ds, union) == {Valuation({"a": {0}}), Valuation({"a": {1}})}
        # Persistence: the original nodes keep their own semantics.
        assert collect_all(ds, first) == {Valuation({"a": {0}})}
        assert collect_all(ds, second) == {Valuation({"a": {1}})}
        third = ds.extend({"a"}, 2, [])
        bigger = ds.union(union, third)
        assert collect_all(ds, union) == {Valuation({"a": {0}}), Valuation({"a": {1}})}
        assert len(collect_all(ds, bigger)) == 3

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_union_requires_fresh_second_argument(self, kernel):
        ds = ArenaDataStructure(window=10, kernel=kernel)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        union = ds.union(first, second)
        third = ds.extend({"a"}, 2, [])
        with pytest.raises(ValueError):
            ds.union(third, union)
        with pytest.raises(ValueError):
            ds.union(first, BOTTOM_ID)

    def test_union_prunes_expired_left_tree(self):
        ds = ArenaDataStructure(window=2)
        old = ds.extend({"a"}, 0, [])
        fresh = ds.extend({"a"}, 10, [])
        union = ds.union(old, fresh)
        assert collect(ds, union, 10) == {Valuation({"a": {10}})}

    def test_window_filters_old_valuations(self):
        ds = ArenaDataStructure(window=3)
        nodes = [ds.extend({"a"}, position, []) for position in range(6)]
        accumulator = nodes[0]
        for node in nodes[1:]:
            accumulator = ds.union(accumulator, node)
        assert collect(ds, accumulator, 6) == {Valuation({"a": {p}}) for p in (3, 4, 5)}

    def test_heap_condition_maintained(self):
        ds = ArenaDataStructure(window=100)
        accumulator = ds.extend({"a"}, 0, [])
        for position in range(1, 30):
            accumulator = ds.union(accumulator, ds.extend({"a"}, position, []))
        assert ds.check_heap_condition(accumulator)
        assert len(collect_all(ds, accumulator)) == 30

    def test_expired_and_bottom(self):
        ds = ArenaDataStructure(window=2)
        node = ds.extend({"a"}, 0, [])
        assert collect(ds, node, 10) == set()
        assert ds.expired(node, 10)
        assert not ds.expired(node, 2)
        assert ds.expired(BOTTOM_ID, 0)
        assert collect(ds, BOTTOM_ID, 3) == set()

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_extend_onto_is_the_union_with_a_fresh_leaf_in_one_record(self, kernel):
        window = 3
        fused = ArenaDataStructure(window, kernel=kernel)
        split = ArenaDataStructure(window, kernel=kernel)
        oracle = DataStructure(window)
        # Chains at one position, and gaps long enough for the entry to expire.
        steps = [({"a"}, 0), ({"a", "b"}, 0), ({"b"}, 1), ({"a"}, 4), ({"c"}, 9), ({"a"}, 9), ({"b"}, 10)]
        entry = top = node = None
        for calls, (labels, position) in enumerate(steps, 1):
            entry = fused.extend_onto((labels,), position, entry)
            node = oracle.extend_onto((labels,), position, node)
            leaf = split.extend(labels, position, [])
            top = leaf if top is None else split.union(top, leaf)
            outputs = list(fused.enumerate(entry, position))
            assert outputs == list(split.enumerate(top, position)) == list(oracle.enumerate(node, position))
            assert len(outputs) == {0: calls, 1: 3, 4: 2, 9: calls - 4, 10: 3}[position]
            assert fused.union_depth(entry) == split.union_depth(top) == oracle.union_depth(node)
            assert fused.nodes_created == oracle.nodes_created == calls
            assert (
                (fused.union_calls, fused.union_copies)
                == (split.union_calls, split.union_copies)
                == (oracle.union_calls, oracle.union_copies)
            )
            assert fused.check_heap_condition(entry)
        # The split path leaves the fresh leaf behind under every copy it stacks.
        assert split.nodes_created == len(steps) + fused.union_copies == 12

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_a_run_of_label_sets_is_the_chain_of_single_calls(self, kernel):
        """``extend_onto((L1, …, Lk), p, entry)`` leaves the records, ``prods``,
        counters and per-slab ``count``/``max_ms`` that k chained one-set calls
        leave — onto a live entry, an expired one, a released one and none,
        across capacity seals and a deadline seal — and a seal mid-run never
        lets ``release_expired`` free a slab early."""
        window = 3
        fused = ArenaDataStructure(window, kernel=kernel)
        split = ArenaDataStructure(window, kernel=kernel)
        oracle = DataStructure(window)
        seals = []  # (fill, capacity) of each slab a fused run seals
        fused.on_seal = lambda fill: seals.append((fill, fused._cur.span << 6))
        pool = [frozenset({name}) for name in "abcde"] + [frozenset({"a", "b"})]
        # (position, run length, entry): the top so far, none, or the top left
        # at position 2.  The 100-, 70- and 64-record runs cross the 64-record
        # capacity; at 9 the top has expired (9 - 2 > 3) and its slab, open
        # since 1, is past its deadline; by 20 the slab of the top left at 2
        # has been released.
        script = [(0, 3, None), (0, 2, "top"), (1, 100, "top"), (2, 1, "top"), (9, 70, "top"),
                  (9, 1, None), (10, 5, "top"), (20, 4, "early"), (21, 64, "top"), (21, 1, "top")]  # fmt: skip
        tops = early = (None, None, None)
        crossed = {"capacity": 0, "deadline": 0}
        for position, length, onto in script:
            label_sets = [pool[i % len(pool)] for i in range(length)]
            entries = {"top": tops, "early": early, None: (None, None, None)}[onto]
            if onto == "early":
                assert fused.max_start_of(entries[0]) < 0  # its slab was released
            sealed_before = len(seals)
            top = fused.extend_onto(label_sets, position, entries[0])
            entry = entries[1]
            for labels in label_sets:
                entry = split.extend_onto([labels], position, entry)
            node = oracle.extend_onto(label_sets, position, entries[2])
            tops = (top, entry, node)
            if position == 2:
                early = tops
            for fill, capacity in seals[sealed_before:]:
                crossed["capacity" if fill == capacity else "deadline"] += 1
            assert fused.snapshot() == split.snapshot()
            assert list(fused.enumerate(top, position)) == list(oracle.enumerate(node, position))
            assert (fused.nodes_created, fused.union_calls, fused.union_copies) == (
                oracle.nodes_created, oracle.union_calls, oracle.union_copies
            )
            assert fused.check_heap_condition(top)
            self._release_nothing_early(fused, split, position, window)
        assert crossed["capacity"] >= 3 and crossed["deadline"] >= 2, seals
        assert fused.released_slabs >= 3

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_enumeration_order_matches_the_object_structure_on_two_link_trees(self, kernel):
        """Products anchored at older runs go below the top of a union chain,
        so nodes get both links; the walk still lists outputs in the object
        structure's order (``ul`` subtree before ``ur`` subtree)."""
        rng = random.Random(5)
        arena, oracle = ArenaDataStructure(40, kernel=kernel), DataStructure(40)
        leaves, arena_acc, oracle_acc = [], None, None
        both_links = 0
        for position in range(120):
            if leaves and rng.random() < 0.6:
                older = rng.randrange(max(0, len(leaves) - 30), len(leaves))
                child_a, child_o = leaves[older]
                fresh_a = arena.extend({"p"}, position, [child_a])
                fresh_o = oracle.extend({"p"}, position, [child_o])
            else:
                fresh_a = arena.extend({"a"}, position, [])
                fresh_o = oracle.extend({"a"}, position, [])
                leaves.append((fresh_a, fresh_o))
            if arena_acc is None:
                arena_acc, oracle_acc = fresh_a, fresh_o
            else:
                arena_acc = arena.union(arena_acc, fresh_a)
                oracle_acc = oracle.union(oracle_acc, fresh_o)
            assert list(arena.enumerate(arena_acc, position)) == list(oracle.enumerate(oracle_acc, position))
            slab = arena._slabs[arena_acc >> 6]
            both_links += all(arena._links_of(slab, arena_acc - slab.base))
        assert both_links > 10

    @staticmethod
    def _release_nothing_early(fused, split, position, window):
        """Release at ``position`` on both arenas: the same slabs go, each
        slab's ``max_ms`` is the largest ``max_start`` of its records, and
        only slabs whose every record expired at ``position`` are freed."""
        from array import array

        slabs = fused.snapshot()["slabs"]
        expirable = set()
        for slab in slabs:
            records = array("q", slab["records"])
            starts = records[1::5][1:] if slab["base"] == 0 else records[1::5]
            if starts:
                assert slab["max_ms"] == max(starts), slab["base"]
            if not starts or position - max(starts) > window:
                expirable.add(slab["base"])
        released = fused.release_expired(position)
        assert split.release_expired(position) == released
        kept = {slab["base"] for slab in fused.snapshot()["slabs"]}
        assert {slab["base"] for slab in slabs} - kept <= expirable
        assert len(slabs) - len(kept) == released

    def test_matches_object_structure_on_random_interleavings(self):
        rng = random.Random(7)
        arena = ArenaDataStructure(window=5)
        oracle = DataStructure(window=5)
        arena_acc = oracle_acc = None
        position = 0
        for _ in range(200):
            position += rng.randrange(1, 3)
            fresh_a = arena.extend({"a"}, position, [])
            fresh_o = oracle.extend({"a"}, position, [])
            if arena_acc is None:
                arena_acc, oracle_acc = fresh_a, fresh_o
            else:
                arena_acc = arena.union(arena_acc, fresh_a)
                oracle_acc = oracle.union(oracle_acc, fresh_o)
            # Same outputs *and* the same order (the arena mirrors the object
            # traversal exactly, so the representations are interchangeable).
            assert list(arena.enumerate(arena_acc, position)) == list(
                oracle.enumerate(oracle_acc, position)
            )
        assert arena.union_calls == oracle.union_calls
        assert arena.union_copies == oracle.union_copies
        assert arena.nodes_created == oracle.nodes_created


class TestOneCopyPerRecordOperation:
    """Each record operation is one method for both kernels: its python-side
    work is written once, then the C kernel or the inlined python write runs."""

    def test_no_native_twins_and_no_sizing_or_release_knobs(self):
        for name in ("_extend_native", "_union_native", "_release_expired_native", "_request_slab", "_adaptive"):
            assert not hasattr(ArenaDataStructure, name), name
        for kernel in ARENAS:
            shadowed = set(vars(ArenaDataStructure(4, kernel=kernel)))
            assert not shadowed & {"extend", "union", "extend_onto", "release_expired"}, kernel
        assert list(inspect.signature(ArenaDataStructure).parameters) == ["window", "kernel"]
        assert not inspect.signature(StreamRuntime).parameters
        assert not hasattr(StreamRuntime(), "release_interval")

    def test_shared_prologues_appear_once(self):
        source = (Path(__file__).resolve().parent.parent / "src" / "repro" / "core" / "arena.py").read_text()
        for line in (
            "self._labels.append(labels)",  # label interning
            "product children must not be the bottom node",  # child validation
            "must be a live product node",  # fresh-node validation
            "must be a fresh product node",
            "del slabs[owned]",  # slab-table drop
            "self.released_nodes +=",  # release accounting
        ):
            assert source.count(line) == 1, line

    @pytest.mark.parametrize("kernel", ARENAS)
    def test_a_fixed_capacity_snapshot_is_refused(self, kernel):
        ds = ArenaDataStructure(4, kernel=kernel)
        ds.extend({"a"}, 0, [])
        snap = ds.snapshot()
        assert snap["adaptive"] is True
        fresh = ArenaDataStructure(4, kernel=kernel)
        with pytest.raises(ValueError):
            fresh.restore(dict(snap, adaptive=False))
        fresh.restore(snap)
        assert fresh.snapshot() == snap


@pytest.mark.parametrize("kernel", ARENAS)
class TestSlabRelease:
    """Small windows start (and, at these rates, keep) 64-node slabs."""

    def test_slabs_released_once_expired(self, kernel):
        ds = ArenaDataStructure(window=8, kernel=kernel)
        accumulator = None
        for position in range(2_000):
            fresh = ds.extend({"a"}, position, [])
            accumulator = fresh if accumulator is None else ds.union(accumulator, fresh)
            ds.release_expired(position)
        assert ds.released_slabs > 0
        # Live storage is bounded by a few slabs, not the stream length.
        assert ds.live_node_count() <= 4 * 64
        stats = ds.memory_stats()
        assert stats["live_nodes"] == ds.live_node_count()
        assert stats["released_slabs"] == ds.released_slabs
        # The tail of the stream still enumerates correctly after releases.
        assert collect(ds, accumulator, 1_999) == {
            Valuation({"a": {p}}) for p in range(1_991, 2_000)
        }

    def test_external_reference_blocks_release(self, kernel):
        ds = ArenaDataStructure(window=4, kernel=kernel)
        pinned = ds.extend({"a"}, 0, [])
        ds.add_ref(pinned)
        filler = None
        for position in range(1, 500):
            fresh = ds.extend({"a"}, position, [])
            filler = fresh if filler is None else ds.union(filler, fresh)
            ds.release_expired(position)
        # The first slab is expired but referenced: nothing may be released
        # (release is strictly in allocation order behind it).
        assert ds.released_slabs == 0
        assert ds.max_start_of(pinned) == 0
        ds.drop_ref(pinned)
        ds.release_expired(499)
        assert ds.released_slabs > 0
        # The released id now reads as expired-forever, never as garbage.
        assert ds.expired(pinned, 499)
        assert ds.max_start_of(pinned) < 0

    def test_check_simple_parity(self, kernel):
        arena = ArenaDataStructure(window=10, kernel=kernel)
        oracle = DataStructure(window=10)
        for ds in (arena, oracle):
            first = ds.extend({"a"}, 0, [])
            product = ds.extend({"b"}, 2, [first])
            assert ds.check_simple(product)
            overlapping = ds.extend({"b"}, 3, [first, ds.extend({"a"}, 1, [first])])
            assert not ds.check_simple(overlapping)

    def test_released_ids_are_pruned_not_dereferenced(self, kernel):
        ds = ArenaDataStructure(window=2, kernel=kernel)
        old = ds.extend({"a"}, 0, [])
        accumulator = old
        for position in range(1, 300):
            accumulator = ds.union(accumulator, ds.extend({"a"}, position, []))
            ds.release_expired(position)
        assert ds.released_slabs > 0
        # Union links from live tops into released slabs enumerate nothing and
        # are pruned by further unions, exactly like expired object subtrees.
        assert collect(ds, accumulator, 299) == {
            Valuation({"a": {p}}) for p in (297, 298, 299)
        }
        assert ds.check_heap_condition(accumulator)
        assert ds.union_depth(accumulator) >= 1


def run_both(pcea, stream, window, **kwargs):
    """Outputs per position for the arena and object evaluators."""
    fast = StreamingEvaluator(pcea, window=window, arena=True, **kwargs)
    oracle = StreamingEvaluator(pcea, window=window, arena=False, **kwargs)
    fast_outputs = []
    oracle_outputs = []
    for tup in stream:
        fast_outputs.append(fast.process(tup))
        oracle_outputs.append(oracle.process(tup))
    return fast, oracle, fast_outputs, oracle_outputs


class TestDifferentialEvaluators:
    @settings(max_examples=60, deadline=None)
    @given(streams_strategy(star_schema(2), max_length=24, domain=2), st.integers(0, 6))
    def test_single_query_arena_equals_object(self, stream, window):
        pcea = hcq_to_pcea(star_query(2))
        _, _, fast_outputs, oracle_outputs = run_both(pcea, stream, window)
        assert fast_outputs == oracle_outputs  # same valuations, same order

    @settings(max_examples=25, deadline=None)
    @given(streams_strategy(star_schema(3), max_length=20, domain=2), st.integers(0, 5))
    def test_three_arm_star_arena_equals_object(self, stream, window):
        pcea = hcq_to_pcea(star_query(3))
        _, _, fast_outputs, oracle_outputs = run_both(pcea, stream, window)
        assert fast_outputs == oracle_outputs

    def test_long_stream_with_mid_stream_expiry(self):
        rng = random.Random(11)
        pcea = hcq_to_pcea(star_query(2))
        stream = [
            Tuple(rng.choice(["A1", "A2"]), (rng.randrange(4), rng.randrange(3)))
            for _ in range(4_000)
        ]
        fast, oracle, fast_outputs, oracle_outputs = run_both(pcea, stream, window=32)
        assert fast_outputs == oracle_outputs
        assert fast.evicted == oracle.evicted
        assert fast.hash_table_size() == oracle.hash_table_size()
        # The arena actually reclaimed (the point of the exercise) ...
        assert fast.ds.released_slabs > 0
        # ... and machine-independent operation counts are identical.
        assert fast.ds.nodes_created == oracle.ds.nodes_created
        assert fast.ds.union_copies == oracle.ds.union_copies

    def test_batched_ingestion_arena_equals_object(self):
        rng = random.Random(3)
        pcea = hcq_to_pcea(star_query(2))
        stream = [
            Tuple(rng.choice(["A1", "A2"]), (rng.randrange(3), rng.randrange(3)))
            for _ in range(600)
        ]
        fast = StreamingEvaluator(pcea, window=16, arena=True)
        oracle = StreamingEvaluator(pcea, window=16, arena=False)
        fast_outputs = fast.process_many(stream)
        oracle_outputs = oracle.process_many(stream)
        assert fast_outputs == oracle_outputs
        assert fast.ds.released_slabs > 0

    def test_multi_engine_arena_equals_object(self):
        rng = random.Random(5)
        queries = [star_query(2, prefix="A"), star_query(2, prefix="B")]
        relations = ["A1", "A2", "B1", "B2"]
        stream = [
            Tuple(rng.choice(relations), (rng.randrange(3), rng.randrange(3)))
            for _ in range(1_500)
        ]
        fast = MultiQueryEngine(arena=True)
        oracle = MultiQueryEngine(arena=False)
        for query in queries:
            fast.register(query, window=24)
            oracle.register(query, window=24)
        for tup in stream:
            assert fast.process(tup) == oracle.process(tup)
        assert fast.evicted == oracle.evicted
        assert fast.memory_info()["released_slabs"] > 0

    def test_general_evaluator_arena_equals_object(self):
        pcea = mixed_join_pcea()
        stream = mixed_stream(800, seed=9)
        fast = StreamingEvaluator(pcea, window=16, arena=True)
        oracle = StreamingEvaluator(pcea, window=16, arena=False)
        for tup in stream:
            assert fast.process(tup) == oracle.process(tup)
        assert fast.ds.released_slabs > 0

    def test_audit_mode_works_on_arena(self):
        pcea = hcq_to_pcea(star_query(2))
        rng = random.Random(1)
        stream = [
            Tuple(rng.choice(["A1", "A2"]), (rng.randrange(3), rng.randrange(3)))
            for _ in range(200)
        ]
        evaluator = StreamingEvaluator(pcea, window=10, arena=True)
        for tup in stream:
            outputs = evaluator.process(tup)
            assert len(outputs) == len(set(outputs))  # unambiguous: no duplicate


class TestMemoryBound:
    def test_live_arena_nodes_stay_window_bounded_over_long_stream(self):
        """Live enumeration-structure storage is O(window) over a 60k stream."""
        length = 60_000  # a leaf run is one record, so ~2 nodes per tuple
        rng = random.Random(0)
        pcea = hcq_to_pcea(star_query(2))
        window = 256
        evaluator = StreamingEvaluator(pcea, window=window, arena=True, collect_stats=False)
        peak_live = 0
        samples = []
        for index in range(length):
            tup = Tuple(rng.choice(["A1", "A2"]), (rng.randrange(16), rng.randrange(8)))
            evaluator.update(tup)
            if index % 500 == 0:
                live = evaluator.ds.live_node_count()
                samples.append(live)
                peak_live = max(peak_live, live)
        created = evaluator.ds.nodes_created
        assert created > 100_000, "workload must allocate heavily"
        # Retained slabs hold at most the last ~2 windows of allocations plus
        # slack for the slab granularity and the release-order skew.  The
        # 3 windows of this workload's allocation rate plus 2 slabs is a safe
        # ceiling that still fails loudly if reclamation regresses to
        # O(stream).
        per_position = created / length
        ceiling = 3 * (window + 1) * per_position + 2 * 4096
        assert peak_live <= ceiling, (peak_live, ceiling)
        # Flat profile: the second half of the stream needs no more storage
        # than the first half already reached.
        half = len(samples) // 2
        assert max(samples[half:]) <= 2 * max(samples[:half])
        assert evaluator.ds.released_slabs > 0

    def test_idle_multi_engine_lane_still_releases(self):
        """A lane whose query stops matching must not retain expired slabs
        forever — the periodic full release pass covers idle lanes."""
        rng = random.Random(2)
        engine = MultiQueryEngine()
        engine.register(star_query(2, prefix="A"), window=32)
        engine.register(star_query(2, prefix="B"), window=48)  # its own store
        # Phase 1: both queries active.
        for _ in range(2_000):
            engine.process(
                Tuple(rng.choice(["A1", "A2", "B1", "B2"]), (rng.randrange(2), 0))
            )
        lanes = engine._runtime.lanes()
        # Phase 2: only B's relations appear; A's lane goes idle.
        for _ in range(2_000):
            engine.process(Tuple(rng.choice(["B1", "B2"]), (rng.randrange(2), 0)))
        for lane in lanes:
            # Every lane (idle included) holds at most a few slabs' worth of
            # nodes — O(window), never O(stream).  Without the periodic full
            # release pass the idle lane would retain ~4.5k nodes here.
            if lane.ds.nodes_created:
                assert lane.ds.live_node_count() <= 4 * lane.ds._cap, (
                    lane,
                    lane.ds.memory_stats(),
                )

    def test_adaptive_capacity_grows_on_bursty_allocation(self):
        """Bursty streams keep the slab count O(1) per window via capacity growth."""
        ds = ArenaDataStructure(window=1000)
        initial_cap = ds.slab_capacity()
        for position in range(3_000):
            for _ in range(100):  # 100 nodes per position: a sustained burst
                ds.extend({"a"}, position, [])
            ds.release_expired(position)
        assert ds.slab_capacity() > initial_cap
        # ~8 slabs per window instead of window*rate/initial_cap ≈ 100.
        assert ds.slab_count() <= 16

    def test_adaptive_capacity_shrinks_after_burst(self):
        """A lull time-seals the oversized slab and shrinks capacity back."""
        ds = ArenaDataStructure(window=500)
        for position in range(2_000):
            for _ in range(100):
                ds.extend({"a"}, position, [])
            ds.release_expired(position)
        burst_cap = ds.slab_capacity()
        assert burst_cap >= 4096
        for position in range(2_000, 8_000):  # 1 node per position
            ds.extend({"a"}, position, [])
            ds.release_expired(position)
        assert ds.slab_capacity() < burst_cap
        # Live storage tracks the window again, not the burst-era capacity.
        assert ds.live_node_count() <= 2 * (500 + 1) + 2 * burst_cap // 4

    def test_adaptive_arena_matches_the_object_structure(self):
        """Slab sizing is invisible to semantics: same outputs, same counters."""
        rng = random.Random(21)
        arena = ArenaDataStructure(window=15)
        oracle = DataStructure(window=15)
        arena_acc = oracle_acc = None
        capacities = {arena.slab_capacity()}
        position = 0
        for _ in range(400):
            position += rng.randrange(1, 3)
            burst = rng.choice([1, 1, 1, 200])  # occasional burst to force adaptation
            for _ in range(burst):
                fresh_a = arena.extend({"a"}, position, [])
                fresh_o = oracle.extend({"a"}, position, [])
            if arena_acc is None:
                arena_acc, oracle_acc = fresh_a, fresh_o
            else:
                arena_acc = arena.union(arena_acc, fresh_a)
                oracle_acc = oracle.union(oracle_acc, fresh_o)
            assert list(arena.enumerate(arena_acc, position)) == list(
                oracle.enumerate(oracle_acc, position)
            )
            arena.release_expired(position)
            capacities.add(arena.slab_capacity())
        assert len(capacities) > 1  # the bursts did resize the slabs
        assert arena.nodes_created == oracle.nodes_created
        assert arena.union_copies == oracle.union_copies
        assert arena.released_slabs > 0

    def test_first_capacity_rounded_and_spanning_slots(self):
        ds = ArenaDataStructure(window=100)
        assert ds.slab_capacity() == 128  # window + 1, rounded up to a power of two
        nodes = [ds.extend({"a"}, p, []) for p in range(200)]
        # Ids from different slabs still resolve correctly across slot spans.
        assert [ds.position_of(n) for n in nodes] == list(range(200))
        assert ds.slab_count() == 2

    def test_no_reclamation_without_evict(self):
        """The eviction sweep is the arena's only reclamation driver: updates
        that skip it release nothing, and the next sweeping one catches up."""
        rng = random.Random(0)
        pcea = hcq_to_pcea(star_query(2))
        evaluator = StreamingEvaluator(pcea, window=8, arena=True)
        for _ in range(2_000):
            evaluator.update(Tuple(rng.choice(["A1", "A2"]), (rng.randrange(3), 0)), sweep=False)
        assert evaluator.ds.released_slabs == 0
        assert evaluator.ds.live_node_count() == evaluator.ds.nodes_created
        evaluator.update(Tuple("A1", (0, 0)))
        assert evaluator.ds.released_slabs > 0
