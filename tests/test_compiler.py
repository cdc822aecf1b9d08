"""Tests for compiling CER patterns to PCEA (repro.engine.compiler)."""

import importlib

import pytest

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import check_unambiguous_on_stream
from repro.cq.schema import Tuple
from repro.cq.stream_semantics import cq_stream_new_outputs
from repro.engine.compiler import PatternCompilationError, compile_pattern
from repro.engine.dsl import atom, conjunction, disjunction, sequence
from repro.valuation import Valuation

from helpers import QUERY_Q0, STREAM_S0


class TestCompileAtomsAndConjunctions:
    def test_single_atom_pattern(self):
        pcea = compile_pattern(atom("T", "x"))
        evaluator = StreamingEvaluator(pcea, window=10)
        stream = [Tuple("S", (1, 2)), Tuple("T", (5,))]
        assert evaluator.process(stream[0]) == []
        assert evaluator.process(stream[1]) == [Valuation({0: {1}})]

    def test_conjunction_equals_hcq_translation(self):
        pattern = conjunction(atom("T", "x"), atom("S", "x", "y"), atom("R", "x", "y"))
        compiled = compile_pattern(pattern)
        reference = hcq_to_pcea(QUERY_Q0)
        for position in range(len(STREAM_S0)):
            assert compiled.output_at(STREAM_S0, position) == reference.output_at(
                STREAM_S0, position
            )

    def test_conjunction_requires_hierarchical_structure(self):
        pattern = conjunction(atom("A", "x"), atom("B", "y"), atom("C", "x", "y"))
        with pytest.raises(PatternCompilationError):
            compile_pattern(pattern)

    def test_filters_restrict_matches(self):
        pattern = conjunction(
            atom("Buy", "s", "p", filters=[("p", ">", 100)]),
            atom("Sell", "s", "q"),
        )
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=10)
        evaluator.process(Tuple("Buy", (1, 50)))
        assert evaluator.process(Tuple("Sell", (1, 70))) == []
        evaluator.process(Tuple("Buy", (1, 150)))
        outputs = evaluator.process(Tuple("Sell", (1, 70)))
        assert outputs == [Valuation({0: {2}, 1: {3}})]

    def test_repeated_variable_filter(self):
        pcea = compile_pattern(atom("E", "x", "x"))
        evaluator = StreamingEvaluator(pcea, window=10)
        assert evaluator.process(Tuple("E", (1, 2))) == []
        assert evaluator.process(Tuple("E", (3, 3))) == [Valuation({0: {1}})]

    @pytest.mark.parametrize(
        "raised, seen",
        [
            (KeyError("atom 7 not in structure tree"), PatternCompilationError),
            (ValueError("structure tree root must be a variable"), PatternCompilationError),
            (TypeError("'<' not supported between instances"), TypeError),
        ],
        ids=["key", "value", "bug"],
    )
    def test_only_construction_errors_are_relabelled(self, monkeypatch, raised, seen):
        """What the Theorem 4.1 construction raises on a pattern it cannot
        build becomes a ``PatternCompilationError``; a bug of any other type
        surfaces as itself."""

        def broken(query):
            raise raised

        construction = importlib.import_module("repro.core.hcq_to_pcea")  # the module, not the function
        monkeypatch.setattr(construction, "build_structure_tree", broken)
        with pytest.raises(seen) as caught:
            compile_pattern(conjunction(atom("T", "x"), atom("S", "x", "y")))
        assert (caught.value is raised) == (seen is TypeError)

    def test_compilation_error_on_unknown_filter_variable(self):
        with pytest.raises(PatternCompilationError):
            compile_pattern(atom("Buy", "s", filters=[("nope", ">", 1)]))

    def test_conjunction_matches_cq_ground_truth_on_random_streams(self):
        """Compiled conjunctions agree with the CQ stream semantics position by position."""
        import random

        from repro.cq.query import ConjunctiveQuery

        rng = random.Random(7)
        pattern = conjunction(atom("T", "x"), atom("S", "x", "y"), atom("R", "x", "y"))
        compiled = compile_pattern(pattern)
        for _ in range(5):
            stream = []
            for _ in range(8):
                relation = rng.choice(["T", "S", "R"])
                arity = 1 if relation == "T" else 2
                stream.append(Tuple(relation, tuple(rng.randrange(2) for _ in range(arity))))
            evaluator = StreamingEvaluator(compiled, window=len(stream) + 1)
            for position, tup in enumerate(stream):
                expected = cq_stream_new_outputs(QUERY_Q0, stream, position)
                assert set(evaluator.process(tup)) == expected


class TestCompileSequence:
    def test_sequence_enforces_order(self):
        pattern = sequence(atom("T", "x"), atom("S", "x", "y"), atom("R", "x", "y"))
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=20)
        results = evaluator.run(STREAM_S0)
        # Like the CCEA C0 of Example 2.1: only the ordered match at position 5.
        assert results[5] == [Valuation({0: {1}, 1: {3}, 2: {5}})]
        assert all(not outs for pos, outs in results.items() if pos != 5)

    def test_sequence_correlates_consecutive_components(self):
        pattern = sequence(atom("A", "x"), atom("B", "x"))
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=20)
        evaluator.process(Tuple("A", (1,)))
        assert evaluator.process(Tuple("B", (2,))) == []
        assert evaluator.process(Tuple("B", (1,))) == [Valuation({0: {0}, 1: {2}})]

    def test_conjunction_then_atom_is_example_p0(self):
        """sequence(conjunction(T, S), R) is the automaton P0 of Example 3.3."""
        pattern = sequence(
            conjunction(atom("T", "x"), atom("S", "x", "y")),
            atom("R", "x", "y"),
        )
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=20)
        results = evaluator.run(STREAM_S0)
        # Correlation with the last tuple of the conjunction is on x only (the
        # variable shared by T and S), so both T/S orders are found at position 5.
        assert len(results[5]) >= 2
        labels = {frozenset(v.labels()) for v in results[5]}
        assert labels == {frozenset({0, 1, 2})}

    def test_sequence_rejects_non_atom_later_components(self):
        pattern = sequence(atom("A", "x"), conjunction(atom("B", "x"), atom("C", "x")))
        with pytest.raises(PatternCompilationError):
            compile_pattern(pattern)

    def test_sequence_without_shared_variables_uses_true_equality(self):
        pattern = sequence(atom("A", "x"), atom("B", "y"))
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=20)
        evaluator.process(Tuple("A", (1,)))
        assert evaluator.process(Tuple("B", (9,))) == [Valuation({0: {0}, 1: {1}})]


class TestCompileDisjunction:
    def test_disjunction_of_atoms(self):
        pattern = disjunction(atom("A", "x"), atom("B", "x"))
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=10)
        assert evaluator.process(Tuple("A", (1,))) == [Valuation({0: {0}})]
        assert evaluator.process(Tuple("B", (1,))) == [Valuation({1: {1}})]
        assert evaluator.process(Tuple("C", (1,))) == []

    def test_disjunction_of_sequences(self):
        pattern = disjunction(
            sequence(atom("A", "x"), atom("B", "x")),
            sequence(atom("C", "x"), atom("B", "x")),
        )
        pcea = compile_pattern(pattern)
        evaluator = StreamingEvaluator(pcea, window=10)
        evaluator.process(Tuple("A", (1,)))
        evaluator.process(Tuple("C", (1,)))
        outputs = set(evaluator.process(Tuple("B", (1,))))
        assert outputs == {
            Valuation({0: {0}, 1: {2}}),
            Valuation({2: {1}, 3: {2}}),
        }

    def test_compiled_patterns_stay_unambiguous_on_streams(self):
        pattern = sequence(conjunction(atom("T", "x"), atom("S", "x", "y")), atom("R", "x", "y"))
        pcea = compile_pattern(pattern)
        assert check_unambiguous_on_stream(pcea, STREAM_S0) == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternCompilationError):
            compile_pattern(conjunction(atom("A", "x")).__class__(parts=()))
