"""Compilation of CER patterns (:mod:`repro.engine.dsl`) into PCEA.

The compiler maps the pattern combinators onto the automaton constructions of
the paper:

* an unordered :class:`~repro.engine.dsl.Conjunction` is translated through the
  Theorem 4.1 construction (its variable structure must therefore be
  hierarchical);
* a :class:`~repro.engine.dsl.Sequence` appends, for each later component, a
  fresh state reachable from the final states of the prefix automaton — the
  correlation with the previous component uses the variables shared with *all*
  of its atoms, reflecting the model's "compare with the last tuple"
  discipline;
* a :class:`~repro.engine.dsl.Disjunction` is a disjoint union of the
  alternatives' automata.

Labels of the resulting PCEA are the integer positions of the atom patterns in
a left-to-right traversal of the pattern; output valuations map these labels to
stream positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence as Seq, Set, Tuple as Tup

from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AttributeFilter,
    AtomUnaryPredicate,
    BinaryPredicate,
    EqualityPredicate,
    ProjectionEquality,
    TrueEquality,
    UnaryPredicate,
    compile_acceptor,
)
from repro.cq.query import ConjunctiveQuery, Variable
from repro.cq.schema import Tuple
from repro.engine.dsl import AtomPattern, Conjunction, Disjunction, Pattern, Sequence


class PatternCompilationError(ValueError):
    """Raised when a pattern cannot be compiled to a PCEA."""


@dataclass(frozen=True)
class _FilteredUnary(UnaryPredicate):
    """A unary predicate conjoined with local attribute filters (still in ``U_lin``)."""

    base: UnaryPredicate
    filters: Tup[AttributeFilter, ...]

    def acceptor(self):
        parts = (compile_acceptor(self.base), *(flt.acceptor() for flt in self.filters))

        def accept(tup):
            for part in parts:
                if not part(tup):
                    return False
            return True

        return accept

    def holds(self, tup: Tuple) -> bool:
        return self.acceptor()(tup)

    def dispatch_relations(self):
        # The conjunction only accepts tuples accepted by every conjunct, so
        # the dispatch key is the intersection of the known relation sets.
        result = self.base.dispatch_relations()
        for flt in self.filters:
            relations = flt.dispatch_relations()
            if relations is None:
                continue
            result = relations if result is None else result & relations
        return result

    def canonical_key(self):
        return (
            "filtered",
            self.base.canonical_key(),
            tuple(flt.canonical_key() for flt in self.filters),
        )

    def constant_guard(self):
        # Any conjunct's guard is a guard of the conjunction.
        guard = self.base.constant_guard()
        if guard is not None:
            return guard
        for flt in self.filters:
            guard = flt.constant_guard()
            if guard is not None:
                return guard
        return None

    def threshold(self):
        # The first order filter splits off; the rest joins the base.
        for i, flt in enumerate(self.filters):
            split = flt.threshold()
            if split is not None:
                rest = self.filters[:i] + self.filters[i + 1 :]
                return (_FilteredUnary(self.base, rest) if rest else self.base, *split[1:])
        return None

    def __str__(self) -> str:
        if not self.filters:
            return str(self.base)
        return f"{self.base} ∧ " + " ∧ ".join(str(f) for f in self.filters)


@dataclass
class _Fragment:
    """An automaton fragment produced while compiling a sub-pattern."""

    states: Set[Hashable]
    transitions: List[PCEATransition]
    final: Set[Hashable]
    labels: Set[int]
    # Atom patterns whose tuple can be the *last* one read by an accepting run
    # of the fragment (needed to correlate the next sequence step).
    closing_atoms: List[AtomPattern]


def _attribute_filters(pattern: AtomPattern) -> Tup[AttributeFilter, ...]:
    filters: List[AttributeFilter] = []
    for variable, operator, constant in pattern.filters:
        positions = pattern.variable_positions(variable)
        if not positions:
            raise PatternCompilationError(
                f"filter on unknown variable {variable!r} in pattern {pattern}"
            )
        filters.append(AttributeFilter(pattern.relation, positions[0], operator, constant))
    return tuple(filters)


def _unary_for(pattern: AtomPattern) -> UnaryPredicate:
    base = AtomUnaryPredicate(pattern.as_atom())
    filters = _attribute_filters(pattern)
    if not filters:
        return base
    return _FilteredUnary(base, filters)


def _prefix_state(prefix: Tup[Hashable, ...], state: Hashable) -> Hashable:
    return prefix + (state,)


def _compile_atom(pattern: AtomPattern, label: int, prefix: Tup[Hashable, ...]) -> _Fragment:
    state = _prefix_state(prefix, ("atom", label))
    transition = PCEATransition(frozenset(), _unary_for(pattern), {}, {label}, state)
    return _Fragment({state}, [transition], {state}, {label}, [pattern])


def _compile_conjunction(
    pattern: Conjunction, labels: List[int], prefix: Tup[Hashable, ...]
) -> _Fragment:
    atom_patterns = list(pattern.atoms())
    if len(atom_patterns) != len(labels):
        raise AssertionError("label/atom count mismatch")
    if len(atom_patterns) == 1:
        return _compile_atom(atom_patterns[0], labels[0], prefix)
    query = ConjunctiveQuery(
        sorted({v for p in atom_patterns for v in p.as_atom().variables()}, key=lambda v: v.name),
        [p.as_atom() for p in atom_patterns],
        name="Pattern",
    )
    try:
        pcea = hcq_to_pcea(query)
    except (ValueError, KeyError) as exc:
        # NotHierarchicalError is a ValueError; the structure tree raises
        # ValueError/KeyError.  Anything else is a bug and propagates as is.
        raise PatternCompilationError(
            f"conjunction {pattern} is not a hierarchical pattern: {exc}"
        ) from exc

    filters_by_local = {i: _attribute_filters(p) for i, p in enumerate(atom_patterns)}
    label_of_local = {i: labels[i] for i in range(len(atom_patterns))}

    states = {_prefix_state(prefix, state) for state in pcea.states}
    transitions: List[PCEATransition] = []
    for transition in pcea.transitions:
        local_labels = sorted(transition.labels)  # local atom identifiers
        new_labels = {label_of_local[l] for l in local_labels}
        filters: List[AttributeFilter] = []
        for local in local_labels:
            filters.extend(filters_by_local[local])
        unary = transition.unary if not filters else _FilteredUnary(transition.unary, tuple(filters))
        binaries = {
            _prefix_state(prefix, source): predicate
            for source, predicate in transition.binaries.items()
        }
        transitions.append(
            PCEATransition(
                {_prefix_state(prefix, s) for s in transition.sources},
                unary,
                binaries,
                new_labels,
                _prefix_state(prefix, transition.target),
            )
        )
    final = {_prefix_state(prefix, state) for state in pcea.final}
    return _Fragment(states, transitions, final, set(labels), atom_patterns)


def _sequence_equality(
    previous_closers: Seq[AtomPattern], next_pattern: AtomPattern
) -> EqualityPredicate:
    """Equality predicate correlating the next atom with the previous component.

    The correlated variables are those shared by the next atom and *every*
    atom of the previous component — only those are guaranteed to be carried by
    whichever tuple happens to close the previous component.
    """
    next_vars = set(next_pattern.variables)
    shared = set.intersection(*(set(p.variables) for p in previous_closers)) & next_vars
    if not shared:
        return TrueEquality()
    ordered = sorted(shared)
    left_spec: Dict[str, Tup[int, ...]] = {}
    for closer in previous_closers:
        if closer.relation in left_spec:
            continue
        left_spec[closer.relation] = tuple(closer.variable_positions(v)[0] for v in ordered)
    right_spec = {next_pattern.relation: tuple(next_pattern.variable_positions(v)[0] for v in ordered)}
    return ProjectionEquality(left_spec, right_spec)


def _compile(pattern: Pattern, labels: List[int], prefix: Tup[Hashable, ...]) -> _Fragment:
    if isinstance(pattern, AtomPattern):
        return _compile_atom(pattern, labels[0], prefix)
    if isinstance(pattern, Conjunction):
        return _compile_conjunction(pattern, labels, prefix)
    if isinstance(pattern, Disjunction):
        states: Set[Hashable] = set()
        transitions: List[PCEATransition] = []
        final: Set[Hashable] = set()
        closing: List[AtomPattern] = []
        offset = 0
        for index, part in enumerate(pattern.parts):
            count = sum(1 for _ in part.atoms())
            fragment = _compile(part, labels[offset : offset + count], prefix + (("or", index),))
            offset += count
            states |= fragment.states
            transitions.extend(fragment.transitions)
            final |= fragment.final
            closing.extend(fragment.closing_atoms)
        return _Fragment(states, transitions, final, set(labels), closing)
    if isinstance(pattern, Sequence):
        parts = pattern.parts
        counts = [sum(1 for _ in part.atoms()) for part in parts]
        offset = counts[0]
        fragment = _compile(parts[0], labels[:offset], prefix + (("seq", 0),))
        states = set(fragment.states)
        transitions = list(fragment.transitions)
        current_final = set(fragment.final)
        current_closers = list(fragment.closing_atoms)
        for index, part in enumerate(parts[1:], start=1):
            if not isinstance(part, AtomPattern):
                raise PatternCompilationError(
                    "sequence components after the first must be single atoms "
                    f"(got {part}); wrap unordered groups in the first component"
                )
            label = labels[offset]
            offset += counts[index]
            new_state = _prefix_state(prefix, ("seq", index, label))
            states.add(new_state)
            unary = _unary_for(part)
            equality = _sequence_equality(current_closers, part)
            for final_state in current_final:
                transitions.append(
                    PCEATransition({final_state}, unary, {final_state: equality}, {label}, new_state)
                )
            current_final = {new_state}
            current_closers = [part]
        return _Fragment(states, transitions, current_final, set(labels), current_closers)
    raise PatternCompilationError(f"unsupported pattern type {type(pattern).__name__}")


def compile_pattern(pattern: Pattern) -> PCEA:
    """Compile a CER pattern into a PCEA with equality predicates.

    The automaton's labels are the integer positions of the atom patterns in a
    left-to-right traversal of ``pattern``; every binary predicate is an
    equality predicate, so the result can be fed directly to
    :class:`repro.core.evaluation.StreamingEvaluator`.

    Raises
    ------
    PatternCompilationError
        If a conjunction is not hierarchical or a sequence uses an unsupported
        component shape.
    """
    atom_patterns = list(pattern.atoms())
    if not atom_patterns:
        raise PatternCompilationError("pattern has no atoms")
    labels = list(range(len(atom_patterns)))
    fragment = _compile(pattern, labels, ())
    return PCEA(fragment.states, fragment.transitions, fragment.final, labels=labels)
