"""Tests for the extensions: joins outside ``B_eq`` and disambiguation.

A join outside ``B_eq`` is a scan probe of the one engine, chosen per join:
besides differentials against the naive oracle (over drawn automata mixing
inequalities, callables and equalities, alone and sharing a store with
hashed queries that come and go), runs on seeded streams are pinned by
digest — outputs, node ids, statistics and ``nodes_scanned``.
"""

import hashlib
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
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
from repro.multi import MultiQueryEngine
from repro.valuation import Valuation

from helpers import QUERY_Q0, SIGMA0, example_pcea_p0, mixed_join_pcea, star_query

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


class TestNonEqualityJoins:
    """A join outside ``B_eq`` is a scan probe of the one engine; every other
    join of the same automaton still probes ``H``."""

    def test_supports_inequality_predicates(self):
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=10)
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

    def test_every_automaton_is_admitted(self):
        """No refusal: a non-equality automaton registers next to hashed
        ones, in their store, and each probe kind is chosen per join."""
        engine = MultiQueryEngine()
        hashed = engine.register(example_pcea_p0(), window=10)
        ordered = engine.register(increasing_price_pcea(), window=10)
        mixed = engine.register(mixed_join_pcea(), window=10)
        assert len(engine.handles()) == 3
        assert engine.dispatch_info()["stores"] == 1
        assert engine._queries[hashed.id].dispatch.structure.scan_slots == {}
        kinds = {
            handle: [compiled.scan[0] for compiled in engine._queries[handle.id].dispatch.all_transitions()
                     if compiled.joins]
            for handle in (ordered, mixed)
        }  # fmt: skip
        assert kinds == {ordered: [(True,)], mixed: [(False, True)]}
        out = engine.run([Tuple("Buy", (1, 30)), Tuple("Sell", (1, 40))])
        assert {qid: len(valuations) for qid, valuations in out[1].items()} == {ordered.id: 1}

    def test_window_eviction(self):
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=1)
        stream = [Tuple("Buy", (1, 10)), Tuple("Sell", (9, 1)), Tuple("Sell", (1, 20))]
        outputs = engine.run(stream)
        assert outputs[2] == []  # the buy at position 0 is out of the window
        assert engine.hash_table_size() <= 2

    def test_an_equality_automaton_scans_nothing(self):
        """``star_query(2)`` hashes every join: nothing is scanned, where a
        non-equality automaton's scan grows with its live runs."""
        engine = StreamingEvaluator(hcq_to_pcea(star_query(2)), window=1000)
        ordered = StreamingEvaluator(increasing_price_pcea(), window=1000)
        for position in range(50):
            engine.process(Tuple("A1" if position % 2 else "A2", (0, position)))
            ordered.process(Tuple("Sell" if position % 2 else "Buy", (0, position)))
        assert engine.nodes_scanned == 0 and engine._query.store.scans is None
        assert ordered.nodes_scanned > 50  # linear in the live runs

    def test_only_scanned_states_keep_scan_slots(self):
        """``mixed_join_pcea`` scans ``b`` only: ``a`` is hashed, the final
        ``c`` is read by nothing, so neither gets a scan slot."""
        index = mixed_join_pcea().dispatch_index()
        structure = index.structure
        assert set(structure.scan_slots) == {structure.state_ids["b"]}
        assert [plan is None for _, plan in structure.slots].count(True) == 1
        # A scanned state is never a leaf; the hashed ``a`` is one.
        assert set(structure.leaves()) == {structure.state_ids["a"]}
        into_b = [c for c in index.all_transitions() if c.target == "b"]
        assert [(c.store_through, c.scan) for c in into_b] == [
            (False, ((), structure.scan_slots[structure.state_ids["b"]]))
        ]
        assert [c.store_through for c in index.all_transitions() if c.target == "a"] == [True]


class TestScanRuntimeParity:
    """A scanned join shares the runtime surface of the hashed ones."""

    def _stream(self, length, seed=7):
        rng = random.Random(seed)
        return [
            Tuple("Buy" if rng.random() < 0.5 else "Sell", (rng.randrange(3), rng.randrange(50)))
            for _ in range(length)
        ]

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
    def test_process_many_matches_per_tuple(self, batch_size):
        stream = self._stream(120)
        pcea = increasing_price_pcea()
        batched = StreamingEvaluator(pcea, window=8)
        stepwise = StreamingEvaluator(pcea, window=8)
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
        indexed = StreamingEvaluator(pcea, window=10)
        stream = self._stream(60) + [Tuple("Noise", (1, 2)) for _ in range(60)]
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=10)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]
        # Candidate pruning: the indexed engine never probed Noise tuples
        # (one candidate per Buy or Sell tuple, where a full scan reads both).
        assert indexed.stats.transitions_scanned == 60 < len(stream) * len(pcea.transitions)

    def test_live_runs_window_bounded_by_shared_sweep(self):
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=16)
        peak = 0
        for tup in self._stream(2_000):
            engine.process(tup)
            peak = max(peak, engine.hash_table_size())
        assert engine.evicted > 100
        # At most one stored run per tuple position inside the window (+1 for
        # the position being processed).
        assert peak <= 16 + 2
        # Only the scanned state ``b`` stores runs: the final ``s`` is read by nothing.
        assert engine.hash_table_size() == sum(map(len, engine._query.store.scans.values()))

    def test_stats_and_memory_surface(self):
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=10, collect_stats=True)
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
        engine = StreamingEvaluator(pcea, window=10, collect_stats=False)
        for tup in self._stream(40):
            engine.process(tup)
        assert engine.stats.tuples_processed == 0
        assert engine.nodes_scanned > 0  # the signature counter always runs

    def test_unregistering_a_scanned_query_takes_its_scan_slots(self):
        """A scanned state is its query's alone: unregistering drops its
        slots and runs at once.  A store left with hashed queries only has
        no scan slots; its scan section keeps the two counters, which a
        restored store goes on from."""
        engine = MultiQueryEngine()
        kept = engine.register(example_pcea_p0(), window=8)
        gone = engine.register(increasing_price_pcea(), window=8)
        engine.run(self._stream(30))
        store = engine._queries[kept.id].store
        assert store.scans and engine.hash_table_size() > len(
            [key for key in store.hash if key[0] not in store.scans]
        )
        engine.unregister(gone)
        assert store.scans is None
        assert engine.snapshot()["lanes"][0]["scan"] == {"next_seq": store.next_seq, "nodes_scanned": store.nodes_scanned}
        engine.run(self._stream(30, seed=8))


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
    """The per-scan-slot run dicts that replaced the ring buffers (the test
    ids keep the ring names; each checks what replaced the ring feature)."""

    def _stream(self, length, seed=7):
        rng = random.Random(seed)
        stream = []
        for _ in range(length):
            relation = rng.choice(["Buy", "Sell"])
            stream.append(Tuple(relation, (rng.randrange(3), rng.randrange(60))))
        return stream

    def test_tiny_ring_capacity_grows_and_stays_correct(self):
        """No ring to size: ``ring_capacity=`` is refused, and the dicts give
        the naive outputs."""
        with pytest.raises(TypeError):
            StreamingEvaluator(increasing_price_pcea(), window=20, ring_capacity=1)
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=3)
        stream = self._stream(25, seed=5)
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=3)
        for position, tup in enumerate(stream):
            assert set(engine.process(tup)) == naive[position]
        assert engine.evicted > 0

    def test_sweep_advances_ring_heads(self):
        pcea = increasing_price_pcea()
        engine = StreamingEvaluator(pcea, window=8)
        for tup in self._stream(800):
            engine.process(tup)
            # The sweep pops evicted runs: the dicts hold the live window only.
            live = sum(len(runs) for runs in engine._query.store.scans.values())
            assert live <= 8 + 2
        assert engine.evicted > 100
        # Every dict entry is the run the lane table holds (no garbage scanned).
        for slot, runs in engine._query.store.scans.items():
            for seq, run in runs.items():
                assert engine._query.store.hash[(slot, seq)][0] is run

    def test_batched_sweep_keeps_rings_consistent(self):
        pcea = increasing_price_pcea()
        batched = StreamingEvaluator(pcea, window=6)
        stepwise = StreamingEvaluator(pcea, window=6)
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
            StreamingEvaluator(pcea, window=5, ring_capacity=16)
        engine = StreamingEvaluator(pcea, window=5)
        for tup in self._stream(50):
            engine.process(tup)
        memory = engine.memory_info()
        assert memory == engine._runtime.memory_info()
        assert not [key for key in memory if key.startswith("ring_")]
        assert memory["nodes_created"] > 0


# ------------------------------------------------------- pinned general digest
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


def _pinned_stream(name):
    _, relations, _ = PINNED_GENERAL[name]
    return _seeded_stream(relations, 360, 5, seed=len(name))


def general_digest(name, batch=None, full=True):
    """SHA-256 over a seeded run: per tuple (stepwise) the final nodes' arena
    ids and the outputs in order, else (``batch``) each batch's outputs; then
    ``hash_table_size()``, ``evicted`` and ``nodes_scanned``, and at the end
    the ``EngineStatistics``.  Without ``full``, the outputs and
    ``nodes_scanned`` only."""
    make, _, window = PINNED_GENERAL[name]
    stream = _pinned_stream(name)
    engine = StreamingEvaluator(make(), window)
    digest = hashlib.sha256()

    def record(*items):
        digest.update(repr(items).encode())

    def cursors():
        return (engine.hash_table_size(), engine.evicted, engine.nodes_scanned) if full else (engine.nodes_scanned,)

    if batch is None:
        for tup in stream:
            if full:
                nodes = engine.update(tup)
                record(list(nodes), [repr(v) for v in engine.enumerate_outputs(nodes)], *cursors())
            else:
                record([repr(v) for v in engine.process(tup)], *cursors())
    else:
        for start in range(0, len(stream), batch):
            for outputs in engine.process_many(stream[start : start + batch]):
                record([repr(v) for v in outputs])
            record(*cursors())
    if full:
        record(asdict(engine.stats))
    return digest.hexdigest()


#: :func:`general_digest` of each pinned stream.  ``star`` hashes every join:
#: its pins are the hashed engine's digests of the same streams, written
#: before one engine admitted every automaton.  ``order`` and ``mixed`` were
#: re-pinned when each join chose its own probe kind: runs into states no
#: join scans are no longer stored (``order``: 314 -> 174 ``hash_updates``),
#: and ``mixed`` hashes its equality join.  ``star`` and ``mixed`` were
#: re-pinned again when a key got one expiry registration, re-armed by the
#: sweep: only ``stats.sweeps`` (non-empty buckets popped) moved — each
#: digest computed without ``sweeps`` is the one the build before gave.
PINNED_GENERAL_DIGESTS = {
    ("mixed", None): "9705638b7e021f68fbfae47bc8473b5a83ec54d1dceff0c14310c548121b9b1a",
    ("mixed", 7): "04f5d00ccbac3e16090e4e0506dab81562c52ca0a4f0456256bb4c97dfe452d4",
    ("order", None): "86eb5232274b4e5b7d045549152a329abdeed74eab206a82fbe525ae8b5122f0",
    ("order", 7): "bdecc275e506f53798689e26388e5098faaa59c7e2f951e8963e6caa37d6922a",
    ("star", None): "ed536b4d1bb5882546c83f51c84aaa28de9ce7532e7a1b96f418d6a49a96cebe",
    ("star", 7): "01fe56457247d49d19d84f834e14a52c9db2b2d2197995944556d1a5ca9460ff",
}

#: ``general_digest(name, batch, full=False)`` of ``order``, written by the
#: build that scanned every join: a scan of every join and a scan of only
#: the non-equality ones read the same runs when no join is in ``B_eq``.
PINNED_ORDER_OUTPUTS = {
    None: "97eb2c00c523d5dd680dacd7f8a460c772d777505ddf4c564c6e6749ef41c431",
    7: "ecffdc09350473749d1fa7c8ebd306e3c56bc4a38d64797fc4c3fd1471b26bda",
}


@pytest.mark.parametrize("batch", [None, 7], ids=["stepwise", "batched"])
@pytest.mark.parametrize("name", sorted(PINNED_GENERAL))
def test_a_general_run_has_the_pinned_digest(name, batch):
    assert general_digest(name, batch) == PINNED_GENERAL_DIGESTS[(name, batch)]


@pytest.mark.parametrize("batch", [None, 7], ids=["stepwise", "batched"])
def test_an_automaton_without_equality_joins_reads_what_it_read(batch):
    assert general_digest("order", batch, full=False) == PINNED_ORDER_OUTPUTS[batch]


def _shifted(valuations, offset):
    return {Valuation({label: {p + offset for p in positions} for label, positions in v.items()})
            for v in valuations}  # fmt: skip


def test_the_mixed_automaton_hashes_its_equality_join():
    """``mixed_join_pcea`` on its pinned stream: the naive outputs at every
    position (each computed over the window's suffix of the stream, which
    holds every run an output can use), and ``nodes_scanned`` counts the
    reads of the scanned state ``b`` only — the build that scanned every
    join read 430 runs, 308 of them of the equality-joined ``a``."""
    make, _, window = PINNED_GENERAL["mixed"]
    pcea, stream = make(), _pinned_stream("mixed")
    engine = StreamingEvaluator(pcea, window)
    for position, tup in enumerate(stream):
        outputs = list(engine.process(tup))
        start = max(0, position - window)
        naive = pcea.outputs_upto(stream[start : position + 1], position - start, window=window)
        assert len(outputs) == len(set(outputs)), position
        assert set(outputs) == _shifted(naive[position - start], start), position
    assert engine.nodes_scanned == 122


# --------------------------------------- general automata vs the naive oracle
GENERAL_RELATIONS = ("A", "B", "C")


def _sum_is_even(earlier, later):
    return (earlier.values[0] + later.values[1]) % 2 == 0


def _x_at_most_y(earlier, later):
    return earlier.values[0] <= later.values[1]


def _differ(earlier, later):
    return earlier.values != later.values


CALLABLES = (_sum_is_even, _x_at_most_y, _differ)
JOIN_KINDS = ("equality", "order", "callable")


@st.composite
def general_automata(draw, kinds=JOIN_KINDS):
    """A tree-shaped automaton over ``A``, ``B``, ``C`` (arity 2): source-less
    leaves, then joins of one or two not yet joined states, each join drawn
    from ``kinds`` — an equality, an :class:`OrderPredicate` or a callable;
    the last state is final.  Every state has one incoming transition, is
    joined at most once and every transition writes its own label, so a
    valuation has one run: the automaton is unambiguous, and its outputs
    must be duplicate-free."""
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
            kind = draw(st.sampled_from(kinds))
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
    """Joins mixing inequalities, callables and equalities: the engine's
    outputs at every position are the naive semantics', on the arena and on
    the object-graph oracle, each once."""
    naive = pcea.outputs_upto(stream, len(stream) - 1, window=window) if stream else {}
    for arena in (True, False):
        engine = StreamingEvaluator(pcea, window, arena=arena)
        for position, tup in enumerate(stream):
            outputs = list(engine.process(tup))
            assert len(outputs) == len(set(outputs)), (arena, position)
            assert set(outputs) == naive[position], (arena, position)


@st.composite
def mixed_store_schedules(draw):
    """2–4 queries for one window — hashed ones (equality joins only) and
    ones from :func:`general_automata` — each with the position it is
    registered before and, maybe, the position it is unregistered before."""
    queries = []
    for _ in range(draw(st.integers(2, 4))):
        hashed = draw(st.booleans())
        pcea = draw(general_automata(kinds=("equality",)) if hashed else general_automata())
        joins = draw(st.integers(0, 6))
        leaves = draw(st.none() | st.integers(joins + 1, 9))
        queries.append((pcea, joins, leaves))
    return queries


# No ``max_examples`` here either: CI runs it under the ``fuzz`` profile.
@settings(deadline=None)
@given(queries=mixed_store_schedules(), stream=GENERAL_STREAMS, window=st.integers(0, 6))
def test_mixed_stores_match_the_naive_oracle(queries, stream, window):
    """K>1: hashed and scanned queries share one store, registered and
    unregistered mid-stream.  A query registered before position ``s``
    outputs, at every position it is registered for, what the naive
    semantics give over the stream from ``s`` on — on the arena and on the
    object-graph oracle."""
    naive = [
        pcea.outputs_upto(stream[joins:], len(stream) - joins - 1, window=window) if joins < len(stream) else {}
        for pcea, joins, _ in queries
    ]
    for arena in (True, False):
        engine = MultiQueryEngine(arena=arena)
        handles = {}
        for position, tup in enumerate(stream):
            for index, (pcea, joins, leaves) in enumerate(queries):
                if joins == position:
                    handles[index] = engine.register(pcea, window)
                elif leaves == position:
                    engine.unregister(handles.pop(index))
            outputs = engine.process(tup)
            for index, handle in handles.items():
                got = list(outputs.get(handle.id, ()))
                joins = queries[index][1]
                assert len(got) == len(set(got)), (arena, position, index)
                assert set(got) == _shifted(naive[index][position - joins], joins), (arena, position, index)
            assert set(outputs) <= {handle.id for handle in handles.values()}
        assert engine.dispatch_info()["stores"] <= 1
