"""Tests for the extensions: general (non-equality) evaluation and disambiguation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AtomUnaryPredicate,
    OrderPredicate,
    RelationPredicate,
    TrueEquality,
)
from repro.cq.query import Atom, Variable
from repro.cq.schema import Schema, Tuple
from repro.extensions.disambiguation import ambiguity_witness, is_syntactically_unambiguous
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.streams.generators import random_stream
from repro.valuation import Valuation

from helpers import QUERY_Q0, SIGMA0, STREAM_S0, example_pcea_p0, star_query, streams_strategy

X, Y = Variable("x"), Variable("y")


class TestOrderPredicate:
    def test_basic_comparisons(self):
        pred = OrderPredicate("Buy", 1, "<", "Sell", 1)
        assert pred.holds(Tuple("Buy", (1, 10)), Tuple("Sell", (1, 20)))
        assert not pred.holds(Tuple("Buy", (1, 30)), Tuple("Sell", (1, 20)))
        assert not pred.holds(Tuple("Sell", (1, 10)), Tuple("Sell", (1, 20)))

    def test_out_of_range_and_type_errors_are_false(self):
        pred = OrderPredicate("Buy", 5, "<", "Sell", 1)
        assert not pred.holds(Tuple("Buy", (1, 10)), Tuple("Sell", (1, 20)))
        mixed = OrderPredicate("Buy", 0, "<", "Sell", 0)
        assert not mixed.holds(Tuple("Buy", ("abc",)), Tuple("Sell", (3,)))

    def test_all_operators(self):
        for operator, expected in [("<", True), ("<=", True), (">", False), (">=", False), ("!=", True), ("==", False)]:
            pred = OrderPredicate("A", 0, operator, "B", 0)
            assert pred.holds(Tuple("A", (1,)), Tuple("B", (2,))) is expected


def increasing_price_pcea() -> PCEA:
    """Buy followed by a Sell of the same... no — of *any* symbol at a higher price."""
    buy, sell = Atom("Buy", (X, Y)), Atom("Sell", (X, Y))
    return PCEA(
        states={"b", "s"},
        transitions=[
            PCEATransition(set(), AtomUnaryPredicate(buy), {}, {"buy"}, "b"),
            PCEATransition(
                {"b"},
                AtomUnaryPredicate(sell),
                {"b": OrderPredicate("Buy", 1, "<", "Sell", 1)},
                {"sell"},
                "s",
            ),
        ],
        final={"s"},
    )


class TestGeneralStreamingEvaluator:
    def test_agrees_with_algorithm_1_on_equality_pcea(self):
        pcea = example_pcea_p0()
        general = GeneralStreamingEvaluator(pcea, window=10)
        hashed = StreamingEvaluator(pcea, window=10)
        for tup in STREAM_S0:
            assert set(general.process(tup)) == set(hashed.process(tup))

    def test_agrees_with_naive_pcea_on_hcq(self):
        pcea = hcq_to_pcea(QUERY_Q0)
        general = GeneralStreamingEvaluator(pcea, window=len(STREAM_S0) + 1)
        for position, tup in enumerate(STREAM_S0):
            assert set(general.process(tup)) == pcea.output_at(STREAM_S0, position)

    def test_supports_inequality_predicates(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=10)
        stream = [
            Tuple("Buy", (1, 30)),
            Tuple("Sell", (1, 20)),   # lower price: no match
            Tuple("Sell", (1, 40)),   # higher than the buy at position 0
            Tuple("Buy", (2, 35)),
            Tuple("Sell", (2, 50)),   # higher than both buys
        ]
        outputs = engine.run(stream)
        assert outputs[1] == []
        assert set(outputs[2]) == {Valuation({"buy": {0}, "sell": {2}})}
        assert set(outputs[4]) == {
            Valuation({"buy": {0}, "sell": {4}}),
            Valuation({"buy": {3}, "sell": {4}}),
        }

    def test_inequality_rejected_by_algorithm_1(self):
        with pytest.raises(Exception):
            StreamingEvaluator(increasing_price_pcea(), window=10)

    def test_evaluates_exactly_one_automaton(self):
        """The engine's ``register`` is inherited, but its scan keys live runs
        by the one automaton's state ids: a second query is refused."""
        engine = GeneralStreamingEvaluator(increasing_price_pcea(), window=10)
        with pytest.raises(ValueError, match="exactly one automaton"):
            engine.register(increasing_price_pcea(), window=10)
        assert len(engine.registry) == 1 and len(engine.handles()) == 1
        assert engine.run([Tuple("Buy", (1, 30)), Tuple("Sell", (1, 40))])[1]

    def test_window_eviction(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=1)
        stream = [Tuple("Buy", (1, 10)), Tuple("Sell", (9, 1)), Tuple("Sell", (1, 20))]
        outputs = engine.run(stream)
        assert outputs[2] == []  # the buy at position 0 is out of the window
        assert engine.hash_table_size() <= 2

    def test_naive_node_scan_grows_with_live_runs(self):
        pcea = hcq_to_pcea(star_query(2))
        engine = GeneralStreamingEvaluator(pcea, window=1000)
        for position in range(50):
            engine.process(Tuple("A1" if position % 2 else "A2", (0, position)))
        assert engine.nodes_scanned > 50  # linear-in-data behaviour, unlike Algorithm 1

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=8, domain=2), st.integers(min_value=0, max_value=6))
    def test_random_equivalence_with_algorithm_1(self, stream, window):
        pcea = hcq_to_pcea(QUERY_Q0)
        general = GeneralStreamingEvaluator(pcea, window=window)
        hashed = StreamingEvaluator(pcea, window=window)
        for tup in stream:
            assert set(general.process(tup)) == set(hashed.process(tup))


class TestGeneralRuntimeParity:
    """The general evaluator shares the runtime surface of the hashed engines."""

    def _stream(self, length, seed=7):
        import random

        rng = random.Random(seed)
        return [
            Tuple("Buy" if rng.random() < 0.5 else "Sell", (rng.randrange(3), rng.randrange(50)))
            for _ in range(length)
        ]

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
    def test_process_many_matches_per_tuple(self, batch_size):
        stream = self._stream(120)
        pcea = increasing_price_pcea()
        batched = GeneralStreamingEvaluator(pcea, window=8)
        stepwise = GeneralStreamingEvaluator(pcea, window=8)
        batched_outputs = []
        for begin in range(0, len(stream), batch_size):
            batched_outputs.extend(batched.process_many(stream[begin : begin + batch_size]))
        stepwise_outputs = [stepwise.process(tup) for tup in stream]
        assert len(batched_outputs) == len(stepwise_outputs)
        for left, right in zip(batched_outputs, stepwise_outputs):
            assert left == right  # same valuations, same order
        assert batched.position == stepwise.position
        # Batched eviction reclaims the same runs by the end of the stream.
        assert batched.hash_table_size() == stepwise.hash_table_size()

    def test_dispatch_index_prunes_irrelevant_relations(self):
        pcea = increasing_price_pcea()
        indexed = GeneralStreamingEvaluator(pcea, window=10)
        stream = self._stream(60) + [Tuple("Noise", (1, 2)) for _ in range(60)]
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=10)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]
        # Candidate pruning: the indexed engine never probed Noise tuples
        # (one candidate per Buy or Sell tuple, where a full scan reads both).
        assert indexed.stats.transitions_scanned == 60 < len(stream) * len(pcea.transitions)

    def test_live_runs_window_bounded_by_shared_sweep(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=16)
        peak = 0
        for tup in self._stream(2_000):
            engine.process(tup)
            peak = max(peak, engine.hash_table_size())
        assert engine.evicted > 100
        # At most one stored run per tuple position inside the window (+1 for
        # the position being processed).
        assert peak <= 2 * (16 + 1) + 2
        assert engine.hash_table_size() == sum(map(len, engine._runs.values()))

    def test_stats_and_memory_surface(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=10, collect_stats=True)
        for tup in self._stream(80):
            engine.process(tup)
        stats = engine.stats
        assert stats.tuples_processed == 80
        assert stats.transitions_fired > 0
        assert stats.hash_lookups == engine.nodes_scanned > 0
        assert stats.outputs_enumerated > 0
        memory = engine.memory_info()
        assert memory["arena"] == 1 and memory["nodes_created"] > 0
        info = engine.dispatch_info()
        assert info["queries"] == 1 and info["transitions"] == len(pcea.transitions)
        engine.reset_statistics()
        assert engine.stats.tuples_processed == 0
        assert engine.nodes_scanned == 0

    def test_stats_off_skips_counters(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=10, collect_stats=False)
        for tup in self._stream(40):
            engine.process(tup)
        assert engine.stats.tuples_processed == 0
        assert engine.nodes_scanned > 0  # the signature counter always runs


class TestDisambiguation:
    def test_syntactic_condition_accepts_disjoint_chain(self):
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), RelationPredicate("T"), {}, {"t"}, "a"),
                PCEATransition({"a"}, RelationPredicate("S"), {"a": TrueEquality()}, {"s"}, "b"),
            ],
            final={"b"},
        )
        assert is_syntactically_unambiguous(pcea)

    def test_syntactic_condition_rejects_duplicate_label_writers(self):
        unary = RelationPredicate("T")
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), unary, {}, {"l"}, "a"),
                PCEATransition(set(), unary, {}, {"l"}, "b"),
            ],
            final={"a", "b"},
        )
        assert not is_syntactically_unambiguous(pcea)

    def test_syntactic_condition_is_only_sufficient(self):
        """The Theorem 4.1 automata are unambiguous but not syntactically so."""
        pcea = hcq_to_pcea(QUERY_Q0)
        assert is_syntactically_unambiguous(pcea) in (False,)  # unknown, not a refutation

    def test_witness_found_for_ambiguous_automaton(self):
        unary = RelationPredicate("T")
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), unary, {}, {"l"}, "a"),
                PCEATransition(set(), unary, {}, {"l"}, "b"),
            ],
            final={"a", "b"},
        )
        witness = ambiguity_witness(pcea, Schema({"T": 1}), max_length=1, domain=(0,))
        assert witness is not None
        assert len(witness) == 1

    def test_no_witness_for_unambiguous_automata(self):
        pcea = example_pcea_p0()
        witness = ambiguity_witness(pcea, SIGMA0, max_length=2, domain=(0,), max_streams=500)
        assert witness is None

    def test_witness_search_respects_cap(self):
        pcea = example_pcea_p0()
        assert ambiguity_witness(pcea, SIGMA0, max_length=3, domain=(0, 1), max_streams=5) is None


class TestSequenceRings:
    """The per-state run dicts that replaced the ring buffers (the test ids
    keep the ring names; each checks what replaced the ring feature)."""

    def _stream(self, length, seed=7):
        import random

        rng = random.Random(seed)
        stream = []
        for _ in range(length):
            relation = rng.choice(["Buy", "Sell"])
            stream.append(Tuple(relation, (rng.randrange(3), rng.randrange(60))))
        return stream

    def test_tiny_ring_capacity_grows_and_stays_correct(self):
        """No ring to size: ``ring_capacity=`` is refused, and the dicts give
        Algorithm 1's outputs on an equality automaton."""
        with pytest.raises(TypeError):
            GeneralStreamingEvaluator(increasing_price_pcea(), window=20, ring_capacity=1)
        pcea = hcq_to_pcea(QUERY_Q0)
        general = GeneralStreamingEvaluator(pcea, window=20)
        hashed = StreamingEvaluator(pcea, window=20)
        stream = random_stream(SIGMA0, length=600, domain_size=3, seed=5).materialise()
        for tup in stream:
            assert set(general.process(tup)) == set(hashed.process(tup))
        assert general.evicted > 0

    def test_sweep_advances_ring_heads(self):
        pcea = increasing_price_pcea()
        engine = GeneralStreamingEvaluator(pcea, window=8)
        for tup in self._stream(800):
            engine.process(tup)
            # The sweep pops evicted runs: the dicts hold the live window only.
            live = sum(len(runs) for runs in engine._runs.values())
            assert live <= 2 * (8 + 1) + 2
        assert engine.evicted > 100
        # Every dict entry is the run the lane table holds (no garbage scanned).
        for state, runs in engine._runs.items():
            for seq, run in runs.items():
                assert engine._query.store.hash[(state, seq)][0] is run

    def test_batched_sweep_keeps_rings_consistent(self):
        pcea = increasing_price_pcea()
        batched = GeneralStreamingEvaluator(pcea, window=6)
        stepwise = GeneralStreamingEvaluator(pcea, window=6)
        stream = self._stream(400, seed=9)
        for start in range(0, len(stream), 16):
            batch = stream[start : start + 16]
            assert batched.process_many(batch) == [stepwise.process(t) for t in batch]
        assert {s: list(r) for s, r in batched._runs.items()} == {
            s: list(r) for s, r in stepwise._runs.items()
        }

    def test_ring_capacity_validation_and_memory_exposure(self):
        """No ring knob and no ring keys: ``memory_info`` is the runtime's."""
        pcea = increasing_price_pcea()
        with pytest.raises(TypeError):
            GeneralStreamingEvaluator(pcea, window=5, ring_capacity=16)
        engine = GeneralStreamingEvaluator(pcea, window=5)
        for tup in self._stream(50):
            engine.process(tup)
        memory = engine.memory_info()
        assert memory == engine._runtime.memory_info()
        assert not [key for key in memory if key.startswith("ring_")]
        assert memory["nodes_created"] > 0
