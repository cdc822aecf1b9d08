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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Hashable, List, Sequence as Seq, Set, Tuple as Tup

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
from repro.cq.query import Atom, ConjunctiveQuery, Variable
from repro.cq.schema import Tuple
from repro.engine.dsl import AtomPattern, Conjunction, Disjunction, Pattern, Sequence


class PatternCompilationError(ValueError):
    """Raised when a pattern cannot be compiled to a PCEA."""


@dataclass(frozen=True)
class _FilteredUnary(UnaryPredicate):
    """A unary predicate conjoined with local attribute filters (still in ``U_lin``)."""

    base: UnaryPredicate
    filters: Tup[AttributeFilter, ...]
    #: ``compile_acceptor(base)`` and ``base.canonical_key()``: what a shape's
    #: template keeps per transition (computed here when not given).
    base_accepts: Callable = field(default=None, compare=False, repr=False)
    base_key: Hashable = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_accepts is None:
            object.__setattr__(self, "base_accepts", compile_acceptor(self.base))
            object.__setattr__(self, "base_key", self.base.canonical_key())

    def acceptor(self):
        parts = (self.base_accepts, *(flt.acceptor() for flt in self.filters))

        def accept(tup):
            for part in parts:
                if not part(tup):
                    return False
            return True

        return accept

    def holds(self, tup: Tuple) -> bool:
        # The naive oracles ask this of every tuple on every transition: test
        # the conjuncts in place rather than build ``acceptor()`` each time.
        return self.base.holds(tup) and all(flt.holds(tup) for flt in self.filters)

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
        return ("filtered", self.base_key, tuple([flt.canonical_key() for flt in self.filters]))

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
                base = self.base
                if rest:
                    base = _FilteredUnary(base, rest, self.base_accepts, self.base_key)
                return (base, *split[1:])
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


#: Conjunction shapes whose template :func:`_shape_automaton` keeps (least
#: recently used first out).
_SHAPE_CACHE = 256


def _shape(atom_patterns: Seq[AtomPattern]) -> Tup[Tup[str, Tup[str, ...]], ...]:
    """The filter-free conjunction of ``atom_patterns`` — the query *shape* —
    as each atom's relation and variable names."""
    return tuple([(p.relation, tuple(p.variables)) for p in atom_patterns])


class _Template(PCEA):
    """The Theorem 4.1 automaton of one conjunction shape, its states named as
    a top-level pattern names them, plus what binding a pattern's filters onto
    each transition reads: the atoms its labels stand for, in order, and its
    unary's acceptor and canonical key (the base of a ``_FilteredUnary``)."""

    def __init__(self, core: PCEA, atoms: int) -> None:
        top = lambda state: _prefix_state((), state)
        super().__init__(
            map(top, core.states),
            [
                PCEATransition(
                    map(top, t.sources),
                    t.unary,
                    {top(source): binary for source, binary in t.binaries.items()},
                    t.labels,
                    top(t.target),
                )
                for t in core.transitions
            ],
            map(top, core.final),
            labels=range(atoms),
        )
        # Transitions reading the same atoms through equal unaries take one
        # filtered unary: the first such transition's, bound once per index.
        first: Dict[Tup, int] = {}
        self.bases = tuple(
            (reads, compile_acceptor(t.unary), key, first.setdefault((reads, key), i))
            for i, t in enumerate(self.transitions)
            for reads, key in [(tuple(sorted(t.labels)), t.unary.canonical_key())]
        )


@lru_cache(maxsize=_SHAPE_CACHE)
def _shape_automaton(shape: Tup[Tup[str, Tup[str, ...]], ...]) -> _Template:
    """The template of a conjunction shape, built once per shape.

    The Theorem 4.1 construction reads only the atoms' structure, and a
    filter is bound afterwards, onto a transition's unary; so patterns equal
    but for their filters share one template.  The key is sound because it
    holds relation and variable names only (a variable is compared by name),
    never constants that compare equal across types.  A pattern that is one
    conjunction is the template with its filtered unaries bound on
    (:meth:`PCEA.with_unaries <repro.core.pcea.PCEA.with_unaries>`): its
    dispatch index binds them onto the one dispatch structure the template
    keeps, built by the first such index.  A nested conjunction reads the
    template's transitions.  Nothing calls the template's own
    ``dispatch_index`` (the predicates it holds are immutable and keyed
    structurally, so sharing them is safe).  A construction that raises is
    not kept.
    """
    atoms = [Atom(relation, tuple([Variable(name) for name in names])) for relation, names in shape]
    head = sorted({v for a in atoms for v in a.variables()}, key=lambda v: v.name)
    return _Template(hcq_to_pcea(ConjunctiveQuery(head, atoms, name="Pattern")), len(atoms))


def _template_of(pattern: Conjunction, atom_patterns: Seq[AtomPattern]) -> _Template:
    try:
        return _shape_automaton(_shape(atom_patterns))
    except (ValueError, KeyError) as exc:
        # NotHierarchicalError is a ValueError; the structure tree raises
        # ValueError/KeyError.  Anything else is a bug and propagates as is.
        raise PatternCompilationError(
            f"conjunction {pattern} is not a hierarchical pattern: {exc}"
        ) from exc


def _bound_unaries(template: _Template, atom_patterns: Seq[AtomPattern]) -> List[UnaryPredicate]:
    """Each template transition's unary with the filters of the atoms it reads
    conjoined (the base unary itself where they have none)."""
    filters_of = [_attribute_filters(p) for p in atom_patterns]
    unaries: List[UnaryPredicate] = []
    for transition, (atoms, accepts, key, first) in zip(template.transitions, template.bases):
        filters = tuple([flt for local in atoms for flt in filters_of[local]])
        if not filters:
            unaries.append(transition.unary)
        elif first < len(unaries):
            unaries.append(unaries[first])
        else:
            unaries.append(_FilteredUnary(transition.unary, filters, accepts, key))
    return unaries


def _compile_conjunction(
    pattern: Conjunction, labels: List[int], prefix: Tup[Hashable, ...]
) -> _Fragment:
    atom_patterns = list(pattern.atoms())
    if len(atom_patterns) != len(labels):
        raise AssertionError("label/atom count mismatch")
    if len(atom_patterns) == 1:
        return _compile_atom(atom_patterns[0], labels[0], prefix)
    template = _template_of(pattern, atom_patterns)
    # The template's states are already top-level names, ``() + (state,)``.
    transitions = [
        PCEATransition(
            {prefix + source for source in transition.sources},
            unary,
            {prefix + source: binary for source, binary in transition.binaries.items()},
            {labels[local] for local in transition.labels},
            prefix + transition.target,
        )
        for transition, unary in zip(template.transitions, _bound_unaries(template, atom_patterns))
    ]
    states = {prefix + state for state in template.states}
    final = {prefix + state for state in template.final}
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
    if isinstance(pattern, Conjunction) and len(atom_patterns) > 1:
        # The whole pattern is one conjunction: its shape's template with
        # the filters bound on — no state, source or join is re-derived.
        template = _template_of(pattern, atom_patterns)
        return template.with_unaries(_bound_unaries(template, atom_patterns))
    labels = list(range(len(atom_patterns)))
    fragment = _compile(pattern, labels, ())
    return PCEA(fragment.states, fragment.transitions, fragment.final, labels=labels)
