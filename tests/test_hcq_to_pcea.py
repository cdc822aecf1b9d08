"""Tests for the Theorem 4.1 construction (repro.core.hcq_to_pcea).

The central property: for every hierarchical CQ ``Q`` and stream ``S``, the
PCEA ``P_Q`` outputs at position ``n`` exactly the *new* matches of ``Q`` at
``n`` (the t-homomorphisms whose latest tuple is ``t_n``), and it is
unambiguous.  Both the naive PCEA evaluator and Algorithm 1 are checked against
the naive CQ evaluator.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import SYNTHETIC_ROOT_NAME, build_structure_tree, hcq_to_pcea
from repro.core.pcea import check_unambiguous_on_stream
from repro.cq.hierarchical import NotHierarchicalError
from repro.cq.query import Atom, ConjunctiveQuery, Variable
from repro.cq.schema import Schema, Tuple
from repro.cq.stream_semantics import cq_stream_new_outputs

from helpers import (
    QUERY_NON_HIERARCHICAL,
    QUERY_Q0,
    QUERY_Q2,
    QUERY_STARDEEP,
    SIGMA0,
    STREAM_S0,
    star_query,
    star_schema,
    streams_strategy,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def assert_equivalent_on_stream(query, stream, window=None, use_streaming=True, max_nodes=200_000):
    """Check naive-PCEA and Algorithm-1 outputs against the CQ ground truth."""
    pcea = hcq_to_pcea(query)
    evaluator = (
        StreamingEvaluator(pcea, window if window is not None else len(stream) + 1)
        if use_streaming
        else None
    )
    for position, tup in enumerate(stream):
        expected = cq_stream_new_outputs(query, stream, position, window=window)
        naive = pcea.output_at(stream, position, window=window)
        assert naive == expected, (
            f"naive PCEA mismatch at {position}: {sorted(map(repr, naive))} "
            f"!= {sorted(map(repr, expected))}"
        )
        if evaluator is not None:
            outputs = evaluator.process(tup)
            assert len(outputs) == len(set(outputs)), f"duplicate output at {position}"
            streaming = set(outputs)
            assert streaming == expected, (
                f"streaming mismatch at {position}: {sorted(map(repr, streaming))} "
                f"!= {sorted(map(repr, expected))}"
            )
    return pcea


class TestConstructionStructure:
    def test_q0_states_are_q_tree_nodes(self):
        pcea = hcq_to_pcea(QUERY_Q0)
        assert {0, 1, 2, Variable("x"), Variable("y")} == set(pcea.states)
        assert pcea.final == {Variable("x")}
        assert pcea.labels == {0, 1, 2}

    def test_q0_transition_count_matches_figure_2(self):
        """Figure 2: three initial transitions plus one per (atom, path variable)."""
        pcea = hcq_to_pcea(QUERY_Q0)
        initial = [t for t in pcea.transitions if t.is_initial]
        joining = [t for t in pcea.transitions if not t.is_initial]
        assert len(initial) == 3
        # T(x) has path {x}; S(x,y) and R(x,y) have path {x, y}: 1 + 2 + 2 = 5.
        assert len(joining) == 5

    def test_only_equality_predicates(self):
        for query in (QUERY_Q0, QUERY_Q2, QUERY_STARDEEP, star_query(4)):
            assert hcq_to_pcea(query).uses_only_equality_predicates()

    def test_quadratic_size_without_self_joins(self):
        """Theorem 4.1: without self joins |P_Q| is O(|Q|^2)."""
        sizes = []
        for arms in range(1, 9):
            query = star_query(arms)
            query_size = sum(1 + a.arity for a in query.atoms)
            sizes.append((query_size, hcq_to_pcea(query).size()))
        for query_size, pcea_size in sizes:
            assert pcea_size <= 4 * query_size * query_size + 10

    def test_self_join_construction_is_larger(self):
        x = Variable("x")
        atoms = [Atom("R", (x, Variable(f"y{j}"))) for j in range(3)]
        query = ConjunctiveQuery([x] + [Variable(f"y{j}") for j in range(3)], atoms)
        with_self_joins = hcq_to_pcea(query)
        without = hcq_to_pcea(star_query(3))
        assert with_self_joins.size() > without.size()

    def test_single_atom_query(self):
        query = ConjunctiveQuery([X], [Atom("T", (X,))])
        pcea = hcq_to_pcea(query)
        assert len(pcea.transitions) == 1
        stream = [Tuple("T", (5,)), Tuple("S", (1, 2)), Tuple("T", (7,))]
        assert_equivalent_on_stream(query, stream)

    def test_rejects_non_hierarchical(self):
        with pytest.raises(NotHierarchicalError):
            hcq_to_pcea(QUERY_NON_HIERARCHICAL)

    def test_rejects_non_full(self):
        with pytest.raises(NotHierarchicalError):
            hcq_to_pcea(ConjunctiveQuery([X], [Atom("S", (X, Y))]))

    def test_structure_tree_adds_synthetic_root_for_disconnected(self):
        query = ConjunctiveQuery([X, Y], [Atom("T", (X,)), Atom("U", (Y,))])
        tree = build_structure_tree(query)
        assert tree.root_variable().name == SYNTHETIC_ROOT_NAME

    def test_structure_tree_no_synthetic_root_when_connected(self):
        tree = build_structure_tree(QUERY_Q0)
        assert tree.root_variable() == Variable("x")


class TestEquivalenceOnPaperExamples:
    def test_q0_on_s0(self):
        pcea = assert_equivalent_on_stream(QUERY_Q0, STREAM_S0)
        assert check_unambiguous_on_stream(pcea, STREAM_S0) == []

    def test_q0_with_windows(self):
        for window in (0, 1, 2, 4, 10):
            assert_equivalent_on_stream(QUERY_Q0, STREAM_S0, window=window)

    def test_deep_query(self):
        stream = [
            Tuple("U", (1, 2)),
            Tuple("R", (1, 2, 3)),
            Tuple("T", (1, 9)),
            Tuple("S", (1, 2, 7)),
            Tuple("S", (1, 5, 7)),
            Tuple("R", (1, 2, 4)),
            Tuple("T", (2, 9)),
            Tuple("U", (1, 2)),
        ]
        pcea = assert_equivalent_on_stream(QUERY_STARDEEP, stream)
        assert check_unambiguous_on_stream(pcea, stream) == []

    def test_self_join_query_q2(self):
        stream = [
            Tuple("R", (0, 1, 2)),
            Tuple("U", (0, 1)),
            Tuple("R", (0, 1, 3)),
            Tuple("R", (0, 2, 2)),
            Tuple("U", (0, 2)),
            Tuple("R", (0, 1, 2)),
            Tuple("U", (0, 1)),
        ]
        pcea = assert_equivalent_on_stream(QUERY_Q2, stream)
        assert check_unambiguous_on_stream(pcea, stream) == []

    def test_pure_self_join_single_relation(self):
        """Q(x, y, z) <- E(x, y), E(x, z): every pair (and every single tuple twice)."""
        query = ConjunctiveQuery([X, Y, Z], [Atom("E", (X, Y)), Atom("E", (X, Z))])
        stream = [
            Tuple("E", (0, 1)),
            Tuple("E", (0, 2)),
            Tuple("E", (1, 1)),
            Tuple("E", (0, 1)),
        ]
        assert_equivalent_on_stream(query, stream)

    def test_disconnected_query(self):
        query = ConjunctiveQuery([X, Y], [Atom("T", (X,)), Atom("U", (Y,))])
        stream = [
            Tuple("T", (1,)),
            Tuple("U", (5,)),
            Tuple("T", (2,)),
            Tuple("U", (6,)),
            Tuple("U", (5,)),
        ]
        assert_equivalent_on_stream(query, stream)

    def test_disconnected_query_with_self_joins(self):
        query = ConjunctiveQuery([X, Y], [Atom("T", (X,)), Atom("T", (Y,)), Atom("U", (Y,))])
        # T(x) is disconnected from T(y), U(y) only through the hierarchy of y... actually
        # x and y never co-occur, so the query is Gaifman-disconnected and has a self join.
        stream = [Tuple("T", (1,)), Tuple("U", (1,)), Tuple("T", (2,)), Tuple("U", (2,))]
        assert_equivalent_on_stream(query, stream)

    def test_query_with_constants(self):
        query = ConjunctiveQuery([Y], [Atom("S", (2, Y)), Atom("R", (2, Y))])
        stream = [
            Tuple("S", (2, 11)),
            Tuple("R", (2, 11)),
            Tuple("S", (3, 11)),
            Tuple("R", (2, 12)),
            Tuple("S", (2, 12)),
        ]
        assert_equivalent_on_stream(query, stream)

    def test_query_with_repeated_variable_in_atom(self):
        query = ConjunctiveQuery([X, Y], [Atom("E", (X, X)), Atom("F", (X, Y))])
        stream = [
            Tuple("E", (1, 1)),
            Tuple("E", (1, 2)),
            Tuple("F", (1, 5)),
            Tuple("E", (5, 5)),
            Tuple("F", (5, 5)),
        ]
        assert_equivalent_on_stream(query, stream)

    def test_force_general_construction_agrees_with_simple(self):
        stream = STREAM_S0
        simple = hcq_to_pcea(QUERY_Q0, force_general=False)
        general = hcq_to_pcea(QUERY_Q0, force_general=True)
        for position in range(len(stream)):
            assert simple.output_at(stream, position) == general.output_at(stream, position)


class TestEquivalenceOnRandomStreams:
    @settings(max_examples=40, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=9, domain=2))
    def test_q0_random_streams(self, stream):
        assert_equivalent_on_stream(QUERY_Q0, stream)

    @settings(max_examples=25, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=8, domain=2), st.integers(min_value=0, max_value=6))
    def test_q0_random_streams_with_window(self, stream, window):
        assert_equivalent_on_stream(QUERY_Q0, stream, window=window)

    @settings(max_examples=25, deadline=None)
    @given(streams_strategy(star_schema(3), max_length=9, domain=2))
    def test_star3_random_streams(self, stream):
        assert_equivalent_on_stream(star_query(3), stream)

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(Schema({"E": 2, "U": 1}), max_length=7, domain=2))
    def test_self_join_random_streams(self, stream):
        query = ConjunctiveQuery(
            [X, Y, Z], [Atom("E", (X, Y)), Atom("E", (X, Z)), Atom("U", (X,))]
        )
        assert_equivalent_on_stream(query, stream)

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(Schema({"R": 2, "S": 3, "T": 1, "U": 2}), max_length=8, domain=2))
    def test_deep_query_random_streams(self, stream):
        # QUERY_STARDEEP uses R(x,y,z), S(x,y,v), T(x,w), U(x,y): adjust schema arities.
        schema = Schema({"R": 3, "S": 3, "T": 2, "U": 2})
        fixed = [Tuple(t.relation, t.values[: schema.arity(t.relation)] + (0,) * max(0, schema.arity(t.relation) - t.arity)) for t in stream]
        assert_equivalent_on_stream(QUERY_STARDEEP, fixed)

    @settings(max_examples=25, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=8, domain=2))
    def test_unambiguity_on_random_streams(self, stream):
        pcea = hcq_to_pcea(QUERY_Q0)
        assert check_unambiguous_on_stream(pcea, stream) == []

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(SIGMA0, max_length=7, domain=2))
    def test_general_construction_agrees_with_simple_on_random_streams(self, stream):
        """The self-join (general) construction specialises to the simple one."""
        simple = hcq_to_pcea(QUERY_Q0, force_general=False)
        general = hcq_to_pcea(QUERY_Q0, force_general=True)
        for position in range(len(stream)):
            assert simple.output_at(stream, position) == general.output_at(stream, position)

    @settings(max_examples=15, deadline=None)
    @given(
        streams_strategy(Schema({"E": 2, "U": 1}), max_length=6, domain=2),
        st.integers(min_value=0, max_value=4),
    )
    def test_self_join_random_streams_with_window(self, stream, window):
        query = ConjunctiveQuery(
            [X, Y, Z], [Atom("E", (X, Y)), Atom("E", (X, Z)), Atom("U", (X,))]
        )
        assert_equivalent_on_stream(query, stream, window=window)
