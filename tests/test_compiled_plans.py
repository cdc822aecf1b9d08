"""Differential and set-up tests for the compiled predicate plans.

``repro.core.predicates`` compiles every predicate once, at dispatch-index
build, into a flat acceptor / key extractor.  The interpretive path it
replaced — walking the query atom per call — lives on here as the oracle:

* hypothesis differentials — every acceptor and extractor must agree with the
  oracle on random atoms and tuples: repeated variables, constant terms, a
  shared variable absent from an atom (the ``("*",)`` key component), arity
  mismatch, foreign relations, several left atoms, self-join groups,
  projections, mixed-type attribute comparisons (``TypeError`` → ``False``);
* fallbacks — predicate objects that predate the protocol (only ``holds`` /
  ``left_key`` / ``right_key``) run through the engines unchanged;
* set-up budget — building a dispatch index re-interprets no atom: plans are
  read off the frozen predicate objects and extractors come from the intern
  table, so the compile step is a fixed handful of calls per transition.
"""

import os
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.dispatch import TransitionDispatchIndex
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    AttributeFilter,
    EqualityPredicate,
    ProjectionEquality,
    SelfJoinEquality,
    SelfJoinUnaryPredicate,
    TrueEquality,
    VariableAtomEquality,
    _atom_entry,
    compile_acceptor,
    compile_key_extractors,
    compile_key_plan,
    unify_self_join_atoms,
)
from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.engine.compiler import _FilteredUnary, compile_pattern
from repro.engine.dsl import atom, conjunction
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.multi import MultiQueryEngine

from helpers import star_query, union_storm_workload


# ------------------------------------------------------------------ the oracle
def oracle_matches(atom, tup):
    """``U_{R(x̄)}`` by building the homomorphism (the pre-compilation ``Atom.matches``)."""
    if tup.relation != atom.relation or len(tup.values) != len(atom.terms):
        return False
    assignment = {}
    for term, value in zip(atom.terms, tup.values):
        if isinstance(term, Variable):
            if term in assignment and assignment[term] != value:
                return False
            assignment[term] = value
        elif term != value:
            return False
    return True


def oracle_shared_key(atom, shared, tup):
    """Project ``tup`` (matched against ``atom``) onto ``shared`` — the
    ``_shared_variable_key`` the predicates used to call per tuple."""
    if not oracle_matches(atom, tup):
        return None
    values = []
    for variable in shared:
        positions = [i for i, term in enumerate(atom.terms) if term == variable]
        values.append(tup.values[positions[0]] if positions else ("*",))
    return tuple(values)


def oracle_first_key(atoms, shared, tup):
    """``VariableAtomEquality``'s left side: the key of the first atom that matches."""
    for atom in atoms:
        key = oracle_shared_key(atom, shared, tup)
        if key is not None:
            return key
    return None


def oracle_self_join_key(atoms, shared, tup):
    """Lemma B.4's side key: every atom of the group maps onto ``tup``."""
    if not oracle_matches(unify_self_join_atoms(atoms), tup):
        return None
    values = []
    for variable in shared:
        position = next(
            i for atom in atoms for i, term in enumerate(atom.terms) if term == variable
        )
        values.append(tup.values[position])
    return tuple(values)


def oracle_projection_key(spec, tup):
    positions = spec.get(tup.relation)
    if positions is None or any(position >= len(tup.values) for position in positions):
        return None
    return tuple(tup.values[position] for position in positions)


ORACLE_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def oracle_filter(flt, tup):
    if tup.relation != flt.relation or flt.position >= len(tup.values):
        return False
    try:
        return ORACLE_OPS[flt.operator](tup.values[flt.position], flt.constant)
    except TypeError:
        return False


# ------------------------------------------------------------------ strategies
VARIABLES = [Variable(name) for name in "xyz"]
#: ints, a string, a float equal to an int and ``None``: mixed-type comparisons
#: raise ``TypeError``, ``1 == 1.0`` exercises value (not type) equality.
VALUES = st.sampled_from([0, 1, 2, "a", 1.0, None])
RELATIONS = st.sampled_from(["R", "S"])
terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from([0, 1, "a"]))
atoms = st.builds(Atom, RELATIONS, st.lists(terms, max_size=3).map(tuple))
tuples = st.builds(
    Tuple, st.sampled_from(["R", "S", "T"]), st.lists(VALUES, max_size=4).map(tuple)
)
variable_lists = st.lists(st.sampled_from(VARIABLES), max_size=3, unique=True)


def by_name(variables):
    return sorted(variables, key=lambda v: v.name)


# ---------------------------------------------------------------- differentials
class TestAcceptors:
    @settings(max_examples=300, deadline=None)
    @given(atom=atoms, tup=tuples)
    def test_atom_acceptor(self, atom, tup):
        predicate = AtomUnaryPredicate(atom)
        expected = oracle_matches(atom, tup)
        assert compile_acceptor(predicate)(tup) is expected
        assert predicate.holds(tup) is expected
        assert atom.matches(tup) is expected

    @settings(max_examples=200, deadline=None)
    @given(group=st.lists(atoms, min_size=1, max_size=3), tup=tuples)
    def test_self_join_acceptor(self, group, tup):
        assume(len({(a.relation, len(a.terms)) for a in group}) == 1)
        predicate = SelfJoinUnaryPredicate(group)
        expected = oracle_matches(predicate.unified, tup)
        assert compile_acceptor(predicate)(tup) is expected
        assert predicate.holds(tup) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        relation=RELATIONS,
        position=st.integers(0, 3),
        comparison=st.sampled_from(sorted(ORACLE_OPS)),
        constant=VALUES,
        tup=tuples,
    )
    def test_attribute_filter_mixed_types(self, relation, position, comparison, constant, tup):
        flt = AttributeFilter(relation, position, comparison, constant)
        expected = oracle_filter(flt, tup)
        assert compile_acceptor(flt)(tup) == expected
        assert flt.holds(tup) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        atom=atoms,
        filters=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(sorted(ORACLE_OPS)), VALUES), max_size=2
        ),
        tup=tuples,
    )
    def test_filtered_conjunction(self, atom, filters, tup):
        conjuncts = tuple(AttributeFilter(atom.relation, *spec) for spec in filters)
        predicate = _FilteredUnary(AtomUnaryPredicate(atom), conjuncts)
        expected = oracle_matches(atom, tup) and all(oracle_filter(f, tup) for f in conjuncts)
        assert bool(compile_acceptor(predicate)(tup)) == expected
        assert bool(predicate.holds(tup)) == expected


class TestKeyExtractors:
    @settings(max_examples=300, deadline=None)
    @given(atom=atoms, shared=variable_lists, tup=tuples)
    def test_plan_entry_with_absent_variables(self, atom, shared, tup):
        # ``shared`` is arbitrary here, so variables the atom lacks occur: the
        # ``("*",)`` component.
        extract = compile_key_plan((_atom_entry(atom, shared),))
        assert extract(tup) == oracle_shared_key(atom, shared, tup)

    @settings(max_examples=300, deadline=None)
    @given(left=atoms, right=atoms, first=tuples, second=tuples)
    def test_atom_join(self, left, right, first, second):
        predicate = AtomJoinEquality(left, right)
        shared = by_name(left.variables() & right.variables())
        assert list(predicate.shared) == shared
        left_key, right_key = compile_key_extractors(predicate)
        for tup in (first, second):
            assert left_key(tup) == predicate.left_key(tup) == oracle_shared_key(left, shared, tup)
            assert right_key(tup) == predicate.right_key(tup) == oracle_shared_key(right, shared, tup)
        expected = oracle_shared_key(left, shared, first)
        expected = expected is not None and expected == oracle_shared_key(right, shared, second)
        assert predicate.holds(first, second) is expected

    @settings(max_examples=300, deadline=None)
    @given(lefts=st.lists(atoms, min_size=1, max_size=3), right=atoms, tup=tuples)
    def test_variable_atom_equality_several_left_atoms(self, lefts, right, tup):
        assume(len({frozenset(a.variables() & right.variables()) for a in lefts}) == 1)
        predicate = VariableAtomEquality(lefts, right)
        shared = by_name(lefts[0].variables() & right.variables())
        left_key, right_key = compile_key_extractors(predicate)
        assert left_key(tup) == predicate.left_key(tup) == oracle_first_key(lefts, shared, tup)
        assert right_key(tup) == predicate.right_key(tup) == oracle_shared_key(right, shared, tup)

    @settings(max_examples=200, deadline=None)
    @given(
        lefts=st.lists(atoms, min_size=1, max_size=2),
        rights=st.lists(atoms, min_size=1, max_size=2),
        tup=tuples,
    )
    def test_self_join_equality(self, lefts, rights, tup):
        for group in (lefts, rights):
            assume(len({(a.relation, len(a.terms)) for a in group}) == 1)
        predicate = SelfJoinEquality(lefts, rights)
        left_key, right_key = compile_key_extractors(predicate)
        assert left_key(tup) == predicate.left_key(tup)
        assert left_key(tup) == oracle_self_join_key(lefts, predicate.shared, tup)
        assert right_key(tup) == predicate.right_key(tup)
        assert right_key(tup) == oracle_self_join_key(rights, predicate.shared, tup)

    @settings(max_examples=300, deadline=None)
    @given(
        left=st.dictionaries(RELATIONS, st.lists(st.integers(0, 3), max_size=3), max_size=2),
        right=st.dictionaries(RELATIONS, st.lists(st.integers(0, 3), max_size=3), max_size=2),
        tup=tuples,
    )
    def test_projection_equality(self, left, right, tup):
        predicate = ProjectionEquality(left, right)
        left_key, right_key = compile_key_extractors(predicate)
        assert left_key(tup) == predicate.left_key(tup) == oracle_projection_key(left, tup)
        assert right_key(tup) == predicate.right_key(tup) == oracle_projection_key(right, tup)

    @given(tup=tuples)
    def test_true_equality(self, tup):
        left_key, right_key = compile_key_extractors(TrueEquality())
        assert left_key(tup) == () and right_key(tup) == ()

    def test_structurally_identical_sides_share_one_extractor(self):
        x, y, z = VARIABLES
        first = AtomJoinEquality(Atom("R", (x, y)), Atom("S", (x, z)))
        second = AtomJoinEquality(Atom("T", (x,)), Atom("S", (x, y)))  # S keyed on x again
        assert compile_key_extractors(first)[1] is compile_key_extractors(second)[1]
        assert compile_key_extractors(first)[0] is not compile_key_extractors(second)[0]

    def test_key_types_are_value_identical_to_the_interpretive_path(self):
        x, y = VARIABLES[:2]
        key = AtomJoinEquality(Atom("R", (x, y)), Atom("S", (x,))).left_key(Tuple("R", (7, 8)))
        assert key == (7,) and type(key) is tuple
        wildcard = compile_key_plan((_atom_entry(Atom("R", (x,)), (x, y)),))(Tuple("R", (7,)))
        assert wildcard == (7, ("*",))


# --------------------------------------------------------------------- fallbacks
class ParityEquality(EqualityPredicate):
    """A ``B_eq`` predicate written against the key methods only."""

    def left_key(self, tup):
        return (tup.values[0] % 2,) if tup.relation == "A" else None

    def right_key(self, tup):
        return (tup.values[0] % 2,) if tup.relation == "B" else None


class LegacyUnary:
    """A unary predicate object predating the protocol: ``holds`` and nothing else."""

    def __init__(self, relation):
        self.relation = relation

    def holds(self, tup):
        return tup.relation == self.relation

    def dispatch_relations(self):
        return frozenset((self.relation,))


class LegacyBinary:
    """A duck-typed join predicate with key methods but no base class."""

    def left_key(self, tup):
        return tup.values[:1]

    right_key = left_key


class TestFallbacks:
    def _pcea(self):
        transitions = [
            PCEATransition(frozenset(), LegacyUnary("A"), {}, {"a"}, "p"),
            PCEATransition(frozenset({"p"}), LegacyUnary("B"), {"p": ParityEquality()}, {"b"}, "q"),
        ]
        return PCEA(states={"p", "q"}, transitions=transitions, final={"q"})

    def test_compile_helpers_fall_back_to_the_objects_own_methods(self):
        unary, binary = LegacyUnary("A"), LegacyBinary()
        assert compile_acceptor(unary)(Tuple("A", (1,))) is True
        left_key, right_key = compile_key_extractors(binary)
        assert left_key(Tuple("A", (3, 4))) == right_key(Tuple("B", (3,))) == (3,)
        assert compile_key_extractors(object()) == (None, None)  # outside B_eq: no keys

    @pytest.mark.parametrize("arena", [True, False])
    def test_engines_run_legacy_predicates(self, arena):
        pcea = self._pcea()
        stream = [Tuple("A", (1,)), Tuple("A", (2,)), Tuple("B", (3,)), Tuple("C", (4,)), Tuple("B", (4,))]
        hashed = StreamingEvaluator(pcea, window=10, arena=arena)
        general = GeneralStreamingEvaluator(pcea, window=10, arena=arena)
        for position, tup in enumerate(stream):
            expected = pcea.outputs_upto(stream, position, window=10)[position]
            assert set(hashed.process(tup)) == expected
            assert set(general.process(tup)) == expected


# ----------------------------------------------------------------- set-up budget
def python_calls_during(build):
    """``(file, function)`` of every Python-level call made while ``build()`` runs."""
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.append((os.path.basename(code.co_filename), code.co_name))

    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


class TestSetupBudget:
    """Index build = read the plans off the predicates + intern-table lookups."""

    def _automata(self):
        union_enum, _ = union_storm_workload(1, 0)  # 8 arm readings + 1 closing join
        assert len(union_enum.transitions) == 9
        return {"union_enum": union_enum, "star": hcq_to_pcea(star_query(3))}

    @pytest.mark.parametrize("name", ["union_enum", "star"])
    def test_build_re_interprets_no_atom(self, name):
        pcea = self._automata()[name]
        joins = sum(len(t.sources) for t in pcea.transitions)
        assert (name, joins) in {("union_enum", 1), ("star", 6)}
        TransitionDispatchIndex(pcea.transitions, final=pcea.final)  # warm the intern table
        before = compile_key_plan.cache_info()
        calls = python_calls_during(
            lambda: TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        )
        after = compile_key_plan.cache_info()
        # No query atom is walked (nothing in cq/query.py runs), nothing is
        # compiled again, and the compile step enters the predicate layer a
        # fixed number of times: the helper and the predicate's own hook, once
        # per transition (acceptor) and once per join (both extractors), plus
        # the hook reading the left key plan that names the join's slot.  The
        # rest is the dispatch metadata every index build has always read.
        assert not [call for call in calls if call[0] == "query.py"]
        assert after.misses == before.misses
        assert after.hits == before.hits + 2 * joins
        in_predicates = [name for file, name in calls if file == "predicates.py"]
        compile_step = {
            "compile_acceptor", "acceptor", "compile_key_extractors", "key_extractors", "left_key_plan"
        }  # fmt: skip
        metadata = {
            "dispatch_relations", "constant_guard", "canonical_key", "_atom_constant_guard", "threshold"
        }  # fmt: skip
        assert set(in_predicates) <= compile_step | metadata
        assert sum(name in compile_step for name in in_predicates) == (
            2 * len(pcea.transitions) + 3 * joins
        )

    def test_rebuilt_indexes_share_extractors(self):
        pcea = self._automata()["star"]
        first = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        second = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
        for a, b in zip(first.all_transitions(), second.all_transitions()):
            assert all(x[1] is y[1] for x, y in zip(a.probes, b.probes))
        # Both joins of one star transition key the arriving tuple on ``x``:
        # one extractor object, so the fire loop extracts the key once.
        joined = [c for c in first.all_transitions() if len(c.probes) == 2]
        assert joined and all(c.probes[0][1] is c.probes[1][1] for c in joined)

    def test_one_index_per_compiled_pattern(self, monkeypatch):
        """Compiling builds no index, not even for the automaton a pattern's
        conjunction is translated through; the engines then share one per
        probe kind: the hashed engines the automaton's hash index, the
        general evaluator its scan index."""
        built = []
        build = TransitionDispatchIndex.__init__

        def counted(index, *args, **kwargs):
            built.append(index)
            build(index, *args, **kwargs)

        monkeypatch.setattr(TransitionDispatchIndex, "__init__", counted)
        pattern = conjunction(
            atom("A1", "x", "y", filters=[("y", "<", 5)]), atom("A2", "x", "z"), atom("A3", "x", "w")
        )
        pceas = [compile_pattern(pattern), hcq_to_pcea(star_query(3))]
        assert built == []
        for pcea in pceas:
            StreamingEvaluator(pcea, window=8)
            MultiQueryEngine().register(pcea, window=8)
            GeneralStreamingEvaluator(pcea, window=8)
        assert built == [index for pcea in pceas for index in (pcea.dispatch_index(), pcea.dispatch_index("scan"))]
