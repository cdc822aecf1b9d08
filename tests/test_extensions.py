"""Tests for the extensions: general (non-equality) evaluation and disambiguation.

The general evaluator is the K=1 engine with scan probes: besides its
differentials against Algorithm 1 and the naive oracle (the latter over
drawn automata mixing inequalities, callables and equalities), its runs on
seeded streams are pinned by digest — outputs, node ids, statistics and
``nodes_scanned`` — as the build with its own update loop produced them.
"""

import hashlib
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, NotEqualityPredicateError, PCEATransition
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    LambdaBinaryPredicate,
    OrderPredicate,
    ProjectionEquality,
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

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


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
        with pytest.raises(NotEqualityPredicateError):
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
        assert engine.hash_table_size() == sum(map(len, engine._query.store.scans.values()))

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
            live = sum(len(runs) for runs in engine._query.store.scans.values())
            assert live <= 2 * (8 + 1) + 2
        assert engine.evicted > 100
        # Every dict entry is the run the lane table holds (no garbage scanned).
        for state, runs in engine._query.store.scans.items():
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
        assert {s: list(r) for s, r in batched._query.store.scans.items()} == {
            s: list(r) for s, r in stepwise._query.store.scans.items()
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


# ------------------------------------------------------- pinned general digest
def _b_below_c(earlier, later):
    return earlier.values[1] < later.values[1]


def mixed_join_pcea() -> PCEA:
    """``C(x, z)`` closes an ``A(x, y)`` it joins on ``x`` (an equality) and any
    ``B`` whose second value is below its ``z`` (a callable, outside ``B_eq``)."""
    a, b, c = Atom("A", (X, Y)), Atom("B", (X, Y)), Atom("C", (X, Z))
    return PCEA(
        states={"a", "b", "c"},
        transitions=[
            PCEATransition(set(), AtomUnaryPredicate(a), {}, {"a"}, "a"),
            PCEATransition(set(), AtomUnaryPredicate(b), {}, {"b"}, "b"),
            PCEATransition(
                {"a", "b"},
                AtomUnaryPredicate(c),
                {"a": AtomJoinEquality(a, c), "b": LambdaBinaryPredicate(_b_below_c, "B.y < C.z")},
                {"c"},
                "c",
            ),
        ],
        final={"c"},
    )


def _seeded_stream(relations, length, domain, seed):
    rng = random.Random(seed)
    return [
        Tuple(rng.choice(relations), (rng.randrange(domain), rng.randrange(4 * domain)))
        for _ in range(length)
    ]


#: (automaton, relations, window) of each pinned general stream.
PINNED_GENERAL = {
    "star": (lambda: hcq_to_pcea(star_query(2)), ["A1", "A2"], 12),
    "order": (increasing_price_pcea, ["Buy", "Sell"], 10),
    "mixed": (mixed_join_pcea, ["A", "B", "C"], 9),
}


def general_digest(name, batch=None):
    """SHA-256 over a seeded general run: per tuple (stepwise) the final nodes'
    arena ids and the outputs in order, else (``batch``) each batch's outputs;
    then ``hash_table_size()``, ``evicted`` and ``nodes_scanned``, and at the
    end the ``EngineStatistics``."""
    make, relations, window = PINNED_GENERAL[name]
    stream = _seeded_stream(relations, 360, 5, seed=len(name))
    engine = GeneralStreamingEvaluator(make(), window)
    digest = hashlib.sha256()

    def record(*items):
        digest.update(repr(items).encode())

    if batch is None:
        for tup in stream:
            nodes = engine.update(tup)
            outputs = [repr(v) for v in engine.enumerate_outputs(nodes)]
            record(list(nodes), outputs, engine.hash_table_size(), engine.evicted, engine.nodes_scanned)
    else:
        for start in range(0, len(stream), batch):
            for outputs in engine.process_many(stream[start : start + batch]):
                record([repr(v) for v in outputs])
            record(engine.hash_table_size(), engine.evicted, engine.nodes_scanned)
    record(asdict(engine.stats))
    return digest.hexdigest()


#: :func:`general_digest` of each pinned stream, written by the build whose
#: general evaluator ran its own update loop over per-state run dicts.
PINNED_GENERAL_DIGESTS = {
    ("mixed", None): "2b35c29ef87db1d15713c3c98766f1af005b8da86c89a25b05d519b7a3549b44",
    ("mixed", 7): "773b47c490422087ac32d52ead23021d0f3dac8080cd3221ab2061fc55139651",
    ("order", None): "6df2f6ecd249253660210d18cbeeb6ff990fad2a378660e3f7bb4199bb9f4186",
    ("order", 7): "b5528d427f173e47b27a2242d2d09eb8daaf4ce6e016757d2f02602599ab1f5b",
    ("star", None): "d5dd8c859c04c95c431c30a1b0e52498d4818924219c85a687477fe438f930be",
    ("star", 7): "81a580c62f21220bf6098c38c2e4bfae2c9c56c7bbca1ee1c8ed46710ae130b1",
}


@pytest.mark.parametrize("batch", [None, 7], ids=["stepwise", "batched"])
@pytest.mark.parametrize("name", sorted(PINNED_GENERAL))
def test_a_general_run_has_the_pinned_digest(name, batch):
    assert general_digest(name, batch) == PINNED_GENERAL_DIGESTS[(name, batch)]


# --------------------------------------- general automata vs the naive oracle
GENERAL_RELATIONS = ("A", "B", "C")


def _sum_is_even(earlier, later):
    return (earlier.values[0] + later.values[1]) % 2 == 0


def _x_at_most_y(earlier, later):
    return earlier.values[0] <= later.values[1]


def _differ(earlier, later):
    return earlier.values != later.values


CALLABLES = (_sum_is_even, _x_at_most_y, _differ)


@st.composite
def general_automata(draw):
    """A tree-shaped automaton over ``A``, ``B``, ``C`` (arity 2): source-less
    leaves, then joins of one or two not yet joined states, each join an
    equality, an :class:`OrderPredicate` or a callable; the last state is
    final.  Every state has one incoming transition, is joined at most once
    and every transition writes its own label, so a valuation has one run:
    the automaton is unambiguous, and its outputs must be duplicate-free."""
    transitions, open_states, relation_of = [], [], {}
    for leaf in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(GENERAL_RELATIONS))
        state = f"s{leaf}"
        transitions.append(PCEATransition(set(), RelationPredicate(relation), {}, {f"l{leaf}"}, state))
        open_states.append(state)
        relation_of[state] = relation
    for join in range(draw(st.integers(0 if len(open_states) == 1 else 1, 2))):
        sources = draw(
            st.lists(st.sampled_from(open_states), min_size=1, max_size=min(2, len(open_states)), unique=True)
        )
        relation = draw(st.sampled_from(GENERAL_RELATIONS))
        binaries = {}
        for source in sources:
            kind = draw(st.sampled_from(["equality", "order", "callable"]))
            if kind == "equality":
                binaries[source] = ProjectionEquality({relation_of[source]: (0,)}, {relation: (0,)})
            elif kind == "order":
                operator = draw(st.sampled_from(["<", "<=", ">", ">=", "!=", "=="]))
                binaries[source] = OrderPredicate(relation_of[source], 1, operator, relation, 1)
            else:
                func = draw(st.sampled_from(CALLABLES))
                binaries[source] = LambdaBinaryPredicate(func, func.__name__)
        state = f"j{join}"
        transitions.append(PCEATransition(set(sources), RelationPredicate(relation), binaries, {f"m{join}"}, state))
        open_states = [s for s in open_states if s not in sources] + [state]
        relation_of[state] = relation
    return PCEA(states=set(relation_of), transitions=transitions, final={transitions[-1].target})


GENERAL_STREAMS = st.lists(
    st.builds(
        Tuple,
        st.sampled_from(GENERAL_RELATIONS),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    ),
    max_size=9,
)


# No ``max_examples`` here: tier-1 runs the default budget, CI the ``fuzz`` profile.
@settings(deadline=None)
@given(pcea=general_automata(), stream=GENERAL_STREAMS, window=st.integers(0, 6))
def test_general_automata_match_the_naive_oracle(pcea, stream, window):
    """Joins mixing inequalities, callables and equalities: the general
    engine's outputs at every position are the naive semantics', on the
    arena and on the object-graph oracle, each once."""
    naive = pcea.outputs_upto(stream, len(stream) - 1, window=window) if stream else {}
    for arena in (True, False):
        engine = GeneralStreamingEvaluator(pcea, window, arena=arena)
        for position, tup in enumerate(stream):
            outputs = list(engine.process(tup))
            assert len(outputs) == len(set(outputs)), (arena, position)
            assert set(outputs) == naive[position], (arena, position)
