"""Tests for the transition dispatch index and the indexed streaming engine.

Covers the compile-once index itself (`repro.core.dispatch`), the predicate
dispatch keys, the differential equivalence of the indexed engine against the
naive PCEA reference, the hash-table eviction bound, and the
optional-statistics fast mode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import TransitionDispatchIndex
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AtomUnaryPredicate,
    AttributeFilter,
    LambdaUnaryPredicate,
    ProjectionEquality,
    RelationPredicate,
    TruePredicate,
    TrueEquality,
)
from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.engine.compiler import compile_pattern
from repro.engine.dsl import atom, conjunction, sequence
from repro.multi import MergedDispatchIndex
from repro.streams.generators import HCQWorkloadGenerator, random_stream

from helpers import QUERY_Q0, SIGMA0, STREAM_S0, example_pcea_p0, one_member, star_query

X, Y = Variable("x"), Variable("y")


def relation_candidates(merged, relation):
    """The members a tuple of ``relation`` is evaluated against, guards aside."""
    return merged.plans.get(relation, merged.wildcard_plan).flat()


def two_relation_pcea():
    """states a->b; a fed by T tuples, b fed by S tuples joined trivially."""
    return PCEA(
        states={"a", "b"},
        transitions=[
            PCEATransition(set(), RelationPredicate("T"), {}, {"t"}, "a"),
            PCEATransition({"a"}, RelationPredicate("S"), {"a": TrueEquality()}, {"s"}, "b"),
            PCEATransition(set(), TruePredicate(), {}, {"w"}, "a"),
        ],
        final={"b"},
    )


class TestDispatchRelations:
    def test_relation_predicate(self):
        assert RelationPredicate({"T", "S"}).dispatch_relations() == {"T", "S"}

    def test_atom_predicate(self):
        assert AtomUnaryPredicate(Atom("R", (X, Y))).dispatch_relations() == {"R"}

    def test_attribute_filter(self):
        assert AttributeFilter("R", 0, ">", 5).dispatch_relations() == {"R"}

    def test_true_and_lambda_are_wildcards(self):
        assert TruePredicate().dispatch_relations() is None
        assert LambdaUnaryPredicate(lambda t: True).dispatch_relations() is None

    def test_lambda_with_declared_relations(self):
        pred = LambdaUnaryPredicate(lambda t: True, relations=frozenset({"T"}))
        assert pred.dispatch_relations() == {"T"}

    def test_conjunction_intersects(self):
        pred = RelationPredicate({"T", "S"}) & RelationPredicate({"S", "R"})
        assert pred.dispatch_relations() == {"S"}
        assert (RelationPredicate("T") & TruePredicate()).dispatch_relations() == {"T"}

    def test_disjunction_unions(self):
        pred = RelationPredicate("T") | RelationPredicate("S")
        assert pred.dispatch_relations() == {"T", "S"}
        assert (RelationPredicate("T") | TruePredicate()).dispatch_relations() is None

    def test_compiled_pattern_filters_keep_dispatch_key(self):
        pattern = sequence(
            atom("Buy", "s", "p", filters=[("p", ">", 10)]),
            atom("Sell", "s", "q"),
        )
        pcea = compile_pattern(pattern)
        index = pcea.dispatch_index()
        assert MergedDispatchIndex([("q", index)]).describe()["wildcard_transitions"] == 0
        assert {c.transition.unary.dispatch_relations() == frozenset({"Buy"}) or
                c.transition.unary.dispatch_relations() == frozenset({"Sell"})
                for c in index.all_transitions()} == {True}


class TestTransitionDispatchIndex:
    def test_candidates_grouped_by_relation(self):
        merged = one_member(two_relation_pcea())
        t_candidates = [c.index for c in relation_candidates(merged, "T")]
        s_candidates = [c.index for c in relation_candidates(merged, "S")]
        assert t_candidates == [0, 2]  # the T transition plus the wildcard
        assert s_candidates == [1, 2]

    def test_unknown_relation_gets_only_wildcards(self):
        merged = one_member(two_relation_pcea())
        assert [c.index for c in relation_candidates(merged, "Unknown")] == [2]

    def test_consumers_reverse_map(self):
        pcea = two_relation_pcea()
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        consumers = index.consumers_by_id(index.state_ids["a"])
        assert len(consumers) == 1
        slot, left_key = consumers[0]
        reader = index.all_transitions()[1]
        assert isinstance(reader.joins[0][2], TrueEquality)
        assert [probe_slot for probe_slot, _ in reader.probes] == [slot]
        assert left_key(Tuple("T", (1,))) == ()  # the join's compiled left extractor
        assert index.consumers_by_id(index.state_ids["b"]) == ()
        assert index.consumers_by_id(len(index.state_ids)) == ()
        # Alone in a fresh store, a query keeps its slots: the plan members
        # into "a" carry the same readers.
        into_a = [e for e in MergedDispatchIndex([("q", index)]).all_entries() if e.compiled.target == "a"]
        assert [entry.consumers for entry in into_a] == [consumers, consumers]

    def test_readers_share_a_slot_per_state_and_key_plan(self):
        """Two transitions reading one state through one left key plan probe
        (and are fed through) one slot; a different plan — or a join that has
        no plan at all — gets its own."""
        on_first = lambda right: ProjectionEquality({"T": (0,)}, {right: (0,)})
        pcea = PCEA(
            states={"a", "b"},
            transitions=[
                PCEATransition(set(), RelationPredicate("T"), {}, {"t"}, "a"),
                PCEATransition({"a"}, RelationPredicate("S"), {"a": on_first("S")}, {"s"}, "b"),
                PCEATransition({"a"}, RelationPredicate("R"), {"a": on_first("R")}, {"r"}, "b"),
                PCEATransition(
                    {"a"}, RelationPredicate("U"), {"a": ProjectionEquality({"T": (1,)}, {"U": (0,)})}, {"u"}, "b"
                ),
                PCEATransition({"a"}, RelationPredicate("V"), {"a": TrueEquality()}, {"v"}, "b"),
                PCEATransition({"a"}, RelationPredicate("W"), {"a": TrueEquality()}, {"w"}, "b"),
            ],
            final={"b"},
        )
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        leaf, *readers = index.all_transitions()
        slots = [c.probes[0][0] for c in readers]
        assert slots[0] == slots[1]
        assert len(set(slots)) == 4 and sorted(set(slots)) == list(range(4))
        readers_of_a = index.consumers_by_id(index.state_ids["a"])
        assert [slot for slot, _ in readers_of_a] == sorted(set(slots))
        assert leaf.consumers == readers_of_a and not leaf.store_through  # four slots
        sample = Tuple("T", (7, 8))
        assert [left(sample) for _, left in readers_of_a] == [(7,), (8,), (), ()]
        # One slot, not final: the leaf run is written straight onto its entry.
        single = TransitionDispatchIndex(pcea.transitions[:3], final=pcea.final)
        assert single.all_transitions()[0].store_through
        assert not any(c.store_through for c in single.all_transitions()[1:])

    def test_final_flags_and_state_interning(self):
        pcea = two_relation_pcea()
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        by_index = {c.index: c for c in index.all_transitions()}
        assert not by_index[0].is_final and not by_index[2].is_final
        assert by_index[1].is_final
        # Ids are dense ints covering exactly the states touched by transitions.
        assert sorted(index.state_ids.values()) == list(range(len(index.state_ids)))

    def test_describe(self):
        info = one_member(two_relation_pcea()).describe()
        assert info["transitions"] == 3
        assert info["relations"] == 2
        assert info["wildcard_transitions"] == 1
        assert info["max_candidates"] == 2

    def test_the_index_is_built_once_on_first_use(self):
        """Compilers build no index (a pattern's conjunction is compiled only for
        its states and transitions); the first engine builds it, later ones share it."""
        for pcea in (
            hcq_to_pcea(QUERY_Q0),
            compile_pattern(conjunction(atom("T", "x"), atom("S", "x", "y"))),
            compile_pattern(conjunction(atom("T", "x"), atom("S", "x", "y"), atom("R", "x", "y"))),
        ):
            assert pcea._dispatch_index is None
            StreamingEvaluator(pcea, window=5)
            index = pcea._dispatch_index
            assert index is not None
            StreamingEvaluator(pcea, window=9)
            assert pcea.dispatch_index() is index

    def test_mismatched_dispatch_final_rejected(self):
        # No index can be handed in — the engine plans from the automaton's
        # own — so none can disagree with its final states.
        pcea = two_relation_pcea()
        foreign = TransitionDispatchIndex(pcea.transitions, final=set())
        with pytest.raises(TypeError):
            StreamingEvaluator(pcea, window=5, dispatch=foreign)

    def test_dispatch_from_other_automaton_rejected(self):
        # State planned from another automaton's index does not restore.
        source = StreamingEvaluator(example_pcea_p0(), window=5)
        source.process(Tuple("T", (1,)))
        with pytest.raises(ValueError, match="signatures differ"):
            StreamingEvaluator(two_relation_pcea(), window=5).restore(source.snapshot())

    def test_own_dispatch_accepted(self):
        pcea = two_relation_pcea()
        evaluator = StreamingEvaluator(pcea, window=5)
        assert evaluator.process(Tuple("T", (1,))) == []
        assert [entry.compiled for entry in evaluator._merged.all_entries()] == list(
            pcea.dispatch_index().all_transitions()
        )


def guarded_branches_pcea(branches):
    """A disjunction of single-atom branches, branch ``b`` guarded by ``t == b``."""
    from repro.engine.dsl import disjunction

    return compile_pattern(
        disjunction(*(atom("E", "t", "y", filters=[("t", "==", b)]) for b in range(branches)))
    )


class TestConstantGuardDispatch:
    def test_guarded_candidates_pruned_by_value(self):
        pcea = guarded_branches_pcea(4)
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        for value in range(4):
            candidates = index.candidates_for(Tuple("E", (value, 9)))
            assert len(candidates) == 1
            assert candidates[0].guard == (0, value)
        assert list(index.candidates_for(Tuple("E", (99, 9)))) == []
        # Relation-only dispatch still returns every branch.
        assert len(relation_candidates(one_member(pcea), "E")) == 4

    def test_short_tuples_skip_guard_buckets(self):
        # A tuple without the guarded attribute cannot satisfy any guarded
        # candidate; the lookup must not raise and must return none of them.
        pcea = guarded_branches_pcea(3)
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        assert list(index.candidates_for(Tuple("E", ()))) == []

    def test_mixed_guarded_and_unguarded_preserve_order(self):
        from repro.engine.dsl import disjunction

        pcea = compile_pattern(
            disjunction(
                atom("E", "t", "y", filters=[("t", "==", 1)]),
                atom("E", "t", "y"),
                atom("E", "t", "y", filters=[("t", "==", 2)]),
            )
        )
        index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        assert [c.index for c in index.candidates_for(Tuple("E", (1, 0)))] == [0, 1]
        assert [c.index for c in index.candidates_for(Tuple("E", (2, 0)))] == [1, 2]
        assert [c.index for c in index.candidates_for(Tuple("E", (9, 0)))] == [1]

    def test_describe_reports_guard_statistics(self):
        info = one_member(guarded_branches_pcea(5)).describe()
        assert info["guarded_transitions"] == 5
        assert info["guard_values"] == 5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_guarded_engine_differential(self, seed):
        import random

        pcea = guarded_branches_pcea(6)
        rng = random.Random(seed)
        stream = [Tuple("E", (rng.randrange(8), rng.randrange(4))) for _ in range(120)]
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=10)
        guarded = StreamingEvaluator(pcea, window=10)
        for position, tup in enumerate(stream):
            assert set(guarded.process(tup)) == naive[position]

    def test_atom_constants_provide_guards(self):
        # A query atom with a constant term guards its transition.
        pcea = hcq_to_pcea(
            __import__("repro.cq.query", fromlist=["ConjunctiveQuery"]).ConjunctiveQuery(
                [Y], [Atom("S", (2, Y))], name="Const"
            )
        )
        index = pcea.dispatch_index()
        guarded = [c for c in index.all_transitions() if c.guard is not None]
        assert guarded and all(c.guard == (0, 2) for c in guarded)
        assert list(index.candidates_for(Tuple("S", (3, 1)))) == []
        assert len(index.candidates_for(Tuple("S", (2, 1)))) == len(index)


#: What the K=1 differential's unaries are drawn from: constant guards (at a
#: position a short tuple lacks, too), threshold families, plain relations
#: and wildcards.
GUARD_VALUES = (0, 1, "a")
unaries = st.one_of(
    st.builds(
        AttributeFilter, st.sampled_from("EF"), st.integers(0, 2), st.just("=="), st.sampled_from(GUARD_VALUES)
    ),
    st.builds(lambda operator, constant: AttributeFilter("E", 1, operator, constant),
              st.sampled_from(["<", ">="]), st.integers(0, 2)),  # fmt: skip
    st.builds(lambda constant: AtomUnaryPredicate(Atom("E", (X, constant))), st.sampled_from(GUARD_VALUES)),
    st.builds(RelationPredicate, st.sampled_from(["E", "F", "G", ("E", "F")])),
    st.just(TruePredicate()),
    st.just(LambdaUnaryPredicate(bool)),
)


@st.composite
def dispatch_automata(draw):
    """Transitions into states ``s0, s1, ...`` over drawn unaries, each run
    starting or — by a trivial join — extending the previous state's runs."""
    drawn = draw(st.lists(unaries, min_size=1, max_size=8))
    transitions = []
    for i, unary in enumerate(drawn):
        joins = {f"s{i - 1}": TrueEquality()} if i and draw(st.booleans()) else {}
        transitions.append(PCEATransition(set(joins), unary, joins, {f"l{i}"}, f"s{i}"))
    return PCEA({f"s{i}" for i in range(len(drawn))}, transitions, {f"s{len(drawn) - 1}"})


dispatch_tuples = st.builds(
    Tuple, st.sampled_from("EFGH"), st.lists(st.sampled_from((0, 1, 2, "a")), max_size=3).map(tuple)
)


@settings(deadline=None)  # no max_examples: the ``fuzz`` profile raises the budget
@given(pcea=dispatch_automata(), tuples=st.lists(dispatch_tuples, min_size=1, max_size=12))
def test_a_one_member_merged_index_plans_what_the_linear_filter_lists(pcea, tuples):
    """The K=1 reference: for every tuple, the plan a one-member merged index
    serves lists the transitions ``candidates_for`` filters out of the
    automaton, in canonical order — guards, short tuples, wildcards and
    threshold families included."""
    merged, index = one_member(pcea), pcea.dispatch_index()
    for tup in tuples:
        plan = merged.plan_for(tup)
        assert [entry.index for entry in plan.flat()] == [c.index for c in index.candidates_for(tup)], tup
        assert plan.total == len(plan.flat())


class TestIndexedEngineDifferential:
    """The indexed engine and the naive reference agree."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_q0_random_streams(self, seed, window):
        pcea = hcq_to_pcea(QUERY_Q0)
        stream = random_stream(SIGMA0, length=28, domain_size=3, seed=seed).materialise()
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=window)
        indexed = StreamingEvaluator(pcea, window=window)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_star_workload_streams(self, seed):
        workload = HCQWorkloadGenerator(arms=2, key_domain=3, seed=seed)
        pcea = hcq_to_pcea(workload.query())
        stream = workload.stream(26).materialise()
        window = 8
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=window)
        indexed = StreamingEvaluator(pcea, window=window)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]

    def test_example_p0_indexed_vs_full_scan(self):
        pcea = example_pcea_p0()
        naive = pcea.outputs_upto(STREAM_S0, len(STREAM_S0) - 1, window=4)
        indexed = StreamingEvaluator(pcea, window=4)
        for position, tup in enumerate(STREAM_S0):
            assert set(indexed.process(tup)) == naive[position]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_against_naive_ccea_reference(self, seed):
        from helpers import example_ccea_c0

        ccea = example_ccea_c0()
        pcea = ccea.to_pcea()
        stream = random_stream(SIGMA0, length=24, domain_size=3, seed=seed).materialise()
        naive = ccea.outputs_upto(stream, len(stream) - 1)
        indexed = StreamingEvaluator(pcea, window=len(stream) + 1)
        for position, tup in enumerate(stream):
            assert set(indexed.process(tup)) == naive[position]


class TestHashEviction:
    def test_long_stream_small_window_is_bounded(self):
        workload = HCQWorkloadGenerator(arms=2, key_domain=5_000, seed=3)
        pcea = hcq_to_pcea(workload.query())
        stream = workload.stream(2_500).materialise()
        window = 32
        naive = pcea.outputs_upto(stream, len(stream) - 1, window=window)
        evicting = StreamingEvaluator(pcea, window=window)
        max_evicting = 0
        for position, tup in enumerate(stream):
            assert set(evicting.process(tup)) == naive[position]
            max_evicting = max(max_evicting, evicting.hash_table_size())
        # High-cardinality keys: a table without eviction would keep one
        # entry per key ever seen; with eviction it tracks the active window.
        assert len({tup.values[0] for tup in stream}) > 1_000
        assert max_evicting <= 4 * (window + 1)
        assert evicting.evicted > 1_000

    def test_eviction_does_not_lose_live_entries(self):
        # A match whose parts are exactly window-apart must still be found.
        pcea = hcq_to_pcea(star_query(2))
        window = 3
        evaluator = StreamingEvaluator(pcea, window=window)
        evaluator.process(Tuple("A1", (7, 0)))
        for position in range(1, window):
            evaluator.process(Tuple("A1", (99, position)))  # unrelated filler
        outputs = evaluator.process(Tuple("A2", (7, 1)))
        assert len(outputs) == 1

    def test_expired_entries_are_dropped_next_position(self):
        pcea = hcq_to_pcea(star_query(2))
        window = 2
        evaluator = StreamingEvaluator(pcea, window=window)
        evaluator.process(Tuple("A1", (1, 0)))
        size_after_insert = evaluator.hash_table_size()
        assert size_after_insert > 0
        for position in range(window + 2):
            evaluator.process(Tuple("B", (0,)))  # relation unknown to the PCEA
        assert evaluator.evicted >= size_after_insert
        assert evaluator.hash_table_size() == 0


class TestOptionalStatistics:
    def test_fast_mode_skips_counters_but_not_outputs(self):
        pcea = example_pcea_p0()
        counting = StreamingEvaluator(pcea, window=10)
        fast = StreamingEvaluator(pcea, window=10, collect_stats=False)
        for tup in STREAM_S0:
            assert set(counting.process(tup)) == set(fast.process(tup))
        assert counting.stats.transitions_scanned > 0
        assert fast.stats.transitions_scanned == 0
        assert fast.stats.outputs_enumerated == 0

    def test_run_without_collection_disables_counting(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        evaluator.run(STREAM_S0, collect=False)
        assert evaluator.stats.transitions_scanned == 0
        # The flag is restored afterwards: explicit updates count again.
        evaluator.update(Tuple("T", (9,)))
        assert evaluator.stats.transitions_scanned > 0

    def test_run_without_collection_can_opt_back_in(self):
        """``run`` takes no ``stats=`` override; a caller that wants the
        counters without the outputs drives ``process`` itself."""
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        with pytest.raises(TypeError):
            evaluator.run(STREAM_S0, collect=False, stats=True)
        for tup in STREAM_S0:
            evaluator.process(tup)
        assert evaluator.stats.transitions_scanned > 0

    def test_dispatch_info_exposed(self):
        evaluator = StreamingEvaluator(example_pcea_p0(), window=10)
        info = evaluator.dispatch_info()
        assert info["transitions"] == 3
        assert info["relations"] == 3


class TestOdometerEnumeration:
    """The iterative cross-product odometer matches a brute-force reference."""

    def test_multi_child_product_equivalence(self):
        import itertools

        from repro.core.datastructure import DataStructure

        ds = DataStructure(window=100)
        # Three children, each a union of several leaves, under one product node.
        children = []
        for child_id in range(3):
            leaves = [
                ds.extend([f"c{child_id}"], 1 + child_id * 3 + k, []) for k in range(3)
            ]
            union = leaves[0]
            for leaf in leaves[1:]:
                union = ds.union(union, leaf)
            children.append(union)
        root = ds.extend(["root"], 50, children)
        got = set(ds.enumerate(root, 50))
        child_sets = [set(ds.enumerate(child, 50)) for child in children]
        expected = set()
        from repro.valuation import Valuation, product_of

        base = Valuation.singleton(["root"], 50)
        for combo in itertools.product(*child_sets):
            expected.add(product_of([base, *combo]))
        assert got == expected
        assert len(got) == 27

    def test_window_pruning_in_product(self):
        from repro.core.datastructure import DataStructure

        ds = DataStructure(window=10)
        old_leaf = ds.extend(["a"], 0, [])
        new_leaf = ds.extend(["a"], 20, [])
        union = ds.union(old_leaf, new_leaf)
        root = ds.extend(["root"], 25, [union])
        # Only the combination through the fresh leaf is inside the window.
        outputs = list(ds.enumerate(root, 25))
        assert len(outputs) == 1
        assert outputs[0].min_position() == 20
