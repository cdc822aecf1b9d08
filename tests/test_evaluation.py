"""Tests for the streaming evaluation algorithm (repro.core.evaluation) — Section 5."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import NotEqualityPredicateError, StreamingEvaluator, evaluate_pcea
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import AtomUnaryPredicate, LambdaBinaryPredicate, RelationPredicate
from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.valuation import Valuation

from helpers import (
    QUERY_Q0,
    SIGMA0,
    STREAM_S0,
    example_pcea_p0,
    star_query,
    star_schema,
    streams_strategy,
)

X, Y = Variable("x"), Variable("y")


class TestStreamingEvaluatorBasics:
    def test_example_p0_outputs(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        outputs = {}
        for position, tup in enumerate(STREAM_S0):
            outputs[position] = set(evaluator.process(tup))
        assert outputs[5] == {
            Valuation({"dot": {1, 3, 5}}),
            Valuation({"dot": {0, 1, 5}}),
        }
        assert outputs[0] == set()
        assert outputs[6] == set()

    def test_agrees_with_naive_pcea_on_every_position(self):
        pcea = example_pcea_p0()
        evaluator = StreamingEvaluator(pcea, window=len(STREAM_S0) + 1)
        for position, tup in enumerate(STREAM_S0):
            streaming = set(evaluator.process(tup))
            naive = pcea.output_at(STREAM_S0, position)
            assert streaming == naive

    def test_sliding_window_drops_old_matches(self):
        pcea = example_pcea_p0()
        evaluator = StreamingEvaluator(pcea, window=2)
        results = evaluator.run(STREAM_S0)
        # At position 5 the only match within a window of 2 would need min >= 3;
        # both matches use positions 0/1, so nothing is reported.
        assert results[5] == []

    def test_window_zero_only_same_position_matches(self):
        query = star_query(1)
        pcea = hcq_to_pcea(query)
        evaluator = StreamingEvaluator(pcea, window=0)
        outputs = evaluator.process(Tuple("A1", (1, 2)))
        assert outputs == [Valuation({0: {0}})]

    def test_run_collects_per_position(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        results = evaluator.run(STREAM_S0)
        assert set(results.keys()) == set(range(len(STREAM_S0)))
        assert len(results[5]) == 2

    def test_run_without_collection(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        assert evaluator.run(STREAM_S0, collect=False) == {}
        assert evaluator.position == len(STREAM_S0) - 1

    def test_evaluate_pcea_wrapper(self):
        results = evaluate_pcea(example_pcea_p0(), STREAM_S0, window=10, positions=[5])
        assert set(results.keys()) == {5}
        assert len(results[5]) == 2

    def test_rejects_non_equality_predicates(self):
        unary = RelationPredicate("T")
        arbitrary = LambdaBinaryPredicate(lambda a, b: True)
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), unary, {}, {"l"}, "a"),
                PCEATransition({"a"}, unary, {"a": arbitrary}, {"l"}, "b"),
            ],
            final={"b"},
        )
        with pytest.raises(NotEqualityPredicateError):
            StreamingEvaluator(pcea, window=5)

    def test_rejects_mismatched_datastructure_window(self):
        # The engine builds its own DS_w for its window: no structure can be
        # handed in, so none can disagree with the window.
        with pytest.raises(TypeError):
            StreamingEvaluator(example_pcea_p0(), window=5, datastructure=None)
        for arena in (True, False):
            assert StreamingEvaluator(example_pcea_p0(), window=5, arena=arena).ds.window == 5

    def test_statistics_counters(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        evaluator.run(STREAM_S0)
        stats = evaluator.stats
        # Each P0 transition dispatches on a distinct relation, so the index
        # presents exactly one candidate per tuple (the seed engine scanned
        # all three transitions every time).
        assert stats.transitions_scanned == len(STREAM_S0)
        assert stats.transitions_fired > 0
        assert stats.outputs_enumerated == 2
        assert evaluator.hash_table_size() > 0
        evaluator.reset_statistics()
        assert evaluator.stats.transitions_fired == 0

    def test_audit_mode_detects_duplicates(self):
        """An ambiguous PCEA (same valuation via two runs) reports it twice —
        what a duplicate-freeness check on the outputs catches."""
        unary = AtomUnaryPredicate(Atom("T", (X,)))
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), unary, {}, {"l"}, "a"),
                PCEATransition(set(), unary, {}, {"l"}, "b"),
            ],
            final={"a", "b"},
        )
        evaluator = StreamingEvaluator(pcea, window=5)
        outputs = evaluator.process(Tuple("T", (1,)))
        assert outputs == [Valuation({"l": {0}})] * 2
        assert len(outputs) != len(set(outputs))

    def test_linked_list_datastructure_gives_same_outputs(self):
        # (The id predates the removal of the linked-list union ablation; the
        # other structure is now the object-graph DS_w, both against the oracle.)
        pcea = example_pcea_p0()
        balanced = StreamingEvaluator(pcea, window=4)
        objects = StreamingEvaluator(pcea, window=4, arena=False)
        naive = pcea.outputs_upto(STREAM_S0, len(STREAM_S0) - 1, window=4)
        for position, tup in enumerate(STREAM_S0):
            assert set(balanced.process(tup)) == set(objects.process(tup)) == naive[position]


class TestStreamingAgainstGroundTruth:
    @settings(max_examples=30, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=9, domain=2), st.integers(min_value=0, max_value=8))
    def test_matches_naive_pcea_with_windows(self, stream, window):
        pcea = hcq_to_pcea(QUERY_Q0)
        evaluator = StreamingEvaluator(pcea, window=window)
        for position, tup in enumerate(stream):
            outputs = evaluator.process(tup)
            assert len(outputs) == len(set(outputs))
            assert set(outputs) == pcea.output_at(stream, position, window=window)

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(star_schema(2), max_length=10, domain=2), st.integers(min_value=1, max_value=6))
    def test_star_query_windows(self, stream, window):
        pcea = hcq_to_pcea(star_query(2))
        evaluator = StreamingEvaluator(pcea, window=window)
        for position, tup in enumerate(stream):
            outputs = evaluator.process(tup)
            assert len(outputs) == len(set(outputs))
            assert set(outputs) == pcea.output_at(stream, position, window=window)

    @settings(max_examples=15, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=10, domain=2))
    def test_example_p0_random_streams(self, stream):
        pcea = example_pcea_p0()
        evaluator = StreamingEvaluator(pcea, window=len(stream) + 1)
        for position, tup in enumerate(stream):
            outputs = evaluator.process(tup)
            assert len(outputs) == len(set(outputs))
            assert set(outputs) == pcea.output_at(stream, position)


class TestBatchedIngestion:
    """``process_many`` is output-identical to tuple-by-tuple ``process``."""

    @pytest.mark.parametrize("batch_size", [1, 4, 13, 100])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_batched_equals_per_tuple(self, batch_size, seed):
        from repro.streams.generators import random_stream

        stream = random_stream(SIGMA0, length=60, domain_size=3, seed=seed).materialise()
        pcea = hcq_to_pcea(QUERY_Q0)
        batched = StreamingEvaluator(pcea, window=7)
        stepwise = StreamingEvaluator(pcea, window=7)
        batched_outputs = []
        for begin in range(0, len(stream), batch_size):
            batched_outputs.extend(batched.process_many(stream[begin : begin + batch_size]))
        stepwise_outputs = [stepwise.process(tup) for tup in stream]
        assert len(batched_outputs) == len(stepwise_outputs)
        for left, right in zip(batched_outputs, stepwise_outputs):
            assert set(left) == set(right)
        assert batched.position == stepwise.position

    def test_batched_eviction_stays_bounded(self):
        from repro.streams.generators import HCQWorkloadGenerator

        workload = HCQWorkloadGenerator(arms=2, key_domain=5_000, seed=3)
        pcea = hcq_to_pcea(workload.query())
        stream = workload.stream(1_500).materialise()
        window = 32
        evaluator = StreamingEvaluator(pcea, window=window, collect_stats=False)
        max_size = 0
        for begin in range(0, len(stream), 100):
            evaluator.process_many(stream[begin : begin + 100])
            max_size = max(max_size, evaluator.hash_table_size())
        # One sweep per batch: the table may hold up to a batch of extra
        # expired entries mid-batch, but never grows with the stream.
        assert evaluator.evicted > 500
        assert max_size <= 4 * (window + 1) + 4 * 100

    def test_batches_interleave_with_per_tuple_processing(self):
        from repro.streams.generators import random_stream

        stream = random_stream(SIGMA0, length=45, domain_size=3, seed=9).materialise()
        pcea = hcq_to_pcea(QUERY_Q0)
        mixed = StreamingEvaluator(pcea, window=5)
        stepwise = StreamingEvaluator(pcea, window=5)
        mixed_outputs = []
        mixed_outputs.extend(mixed.process_many(stream[:15]))
        for tup in stream[15:30]:
            mixed_outputs.append(mixed.process(tup))
        mixed_outputs.extend(mixed.process_many(stream[30:]))
        stepwise_outputs = [stepwise.process(tup) for tup in stream]
        for left, right in zip(mixed_outputs, stepwise_outputs):
            assert set(left) == set(right)
        assert mixed.hash_table_size() == stepwise.hash_table_size()

    def test_batched_statistics_flushed_once(self):
        stream = STREAM_S0
        counting = StreamingEvaluator(example_pcea_p0(), window=10)
        outputs = counting.process_many(stream)
        total = sum(len(batch) for batch in outputs)
        assert counting.stats.outputs_enumerated == total > 0

    def test_audit_mode_batches_through_checked_path(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        outputs = evaluator.process_many(STREAM_S0)
        assert sum(len(batch) for batch in outputs) > 0
        assert all(len(batch) == len(set(batch)) for batch in outputs)

    def test_unswept_updates_recovered_by_next_sweeping_update(self):
        # Manual update(sweep=False) calls without a batch sweep must not
        # leak their expiry buckets once sweeping processing resumes.
        pcea = hcq_to_pcea(star_query(2))
        window = 3
        evaluator = StreamingEvaluator(pcea, window=window)
        evaluator.update(Tuple("A1", (1, 0)), sweep=False)
        for _ in range(window + 1):
            evaluator.update(Tuple("B", (0,)), sweep=False)  # unknown relation
        assert evaluator.hash_table_size() > 0
        for _ in range(2):
            evaluator.process(Tuple("B", (0,)))
        assert evaluator.hash_table_size() == 0
        assert not evaluator._expiry_buckets


class TestUpdateCostBehaviour:
    def test_hash_table_keys_are_join_keys(self):
        pcea = hcq_to_pcea(star_query(2))
        evaluator = StreamingEvaluator(pcea, window=100)
        evaluator.process(Tuple("A1", (1, 10)))
        evaluator.process(Tuple("A1", (2, 10)))
        evaluator.process(Tuple("A2", (1, 20)))
        # Entries exist for both join keys of A1 (1 and 2) across the transitions.
        assert evaluator.hash_table_size() >= 2

    def test_update_work_does_not_grow_with_output_history(self):
        """The number of hash operations per tuple depends on |Δ|, not on how many
        outputs have been produced so far (Theorem 5.1's key property)."""
        pcea = hcq_to_pcea(star_query(2))
        evaluator = StreamingEvaluator(pcea, window=10_000)
        per_tuple_ops = []
        for position in range(300):
            relation = "A1" if position % 2 == 0 else "A2"
            before = evaluator.stats.hash_lookups + evaluator.stats.hash_updates
            evaluator.update(Tuple(relation, (0, position)))
            after = evaluator.stats.hash_lookups + evaluator.stats.hash_updates
            per_tuple_ops.append(after - before)
        # Outputs grow quadratically along this stream, but per-tuple hash work is flat.
        assert max(per_tuple_ops) <= 4 * len(pcea.transitions)
