"""Parallelized Complex Event Automata (paper, Section 3).

A PCEA transition ``(P, U, B, L, q)`` fires on the current tuple when the
unary predicate ``U`` holds and, for every source state ``p ∈ P``, some
previously completed parallel run ending in ``p`` joins with the current tuple
through the binary predicate ``B(p)``.  Transitions with ``P = ∅`` start new
parallel runs (they play the role of the CCEA initial function).

This module provides the model itself, the *naive* reference evaluator that
materialises every run tree (exponential, used as ground truth in tests), and
the unambiguity audit that the tests and :mod:`repro.extensions.disambiguation`
run.  The streaming evaluation algorithm with the Theorem 5.1 guarantees is
in :mod:`repro.core.evaluation`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple as Tup

from repro.core.predicates import BinaryPredicate, EqualityPredicate, UnaryPredicate
from repro.core.runtree import Configuration, RunTreeNode
from repro.cq.schema import Tuple
from repro.valuation import Valuation


State = Hashable
Label = Hashable


@dataclass(frozen=True)
class PCEATransition:
    """A PCEA transition ``(P, U, B, L, q)``.

    Parameters
    ----------
    sources:
        The source state set ``P`` (possibly empty for run-starting transitions).
    unary:
        The unary predicate ``U`` checked on the current tuple.
    binaries:
        The partial function ``B : P -> binary predicates``; must be defined on
        exactly the states of ``sources``.
    labels:
        The non-empty label set ``L`` marking the current position.
    target:
        The target state ``q``.
    """

    sources: FrozenSet[State]
    unary: UnaryPredicate
    binaries: Mapping[State, BinaryPredicate]
    labels: FrozenSet[Label]
    target: State

    def __init__(
        self,
        sources: Iterable[State],
        unary: UnaryPredicate,
        binaries: Mapping[State, BinaryPredicate],
        labels: Iterable[Label],
        target: State,
    ) -> None:
        sources = frozenset(sources)
        labels = frozenset(labels)
        binaries = dict(binaries)
        if not labels:
            raise ValueError("transition label sets must be non-empty")
        if set(binaries) != set(sources):
            raise ValueError(
                f"binary predicates must be defined exactly on the source states; "
                f"sources={set(sources)}, binaries on {set(binaries)}"
            )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "binaries", binaries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "target", target)

    @property
    def is_initial(self) -> bool:
        """Whether the transition starts a new parallel run (``P = ∅``)."""
        return not self.sources

    def size(self) -> int:
        """Contribution to ``|P|``: ``|P| + |L|``."""
        return len(self.sources) + len(self.labels)

    def uses_only_equality_predicates(self) -> bool:
        return all(isinstance(b, EqualityPredicate) for b in self.binaries.values())

    def with_unary(self, unary: UnaryPredicate) -> "PCEATransition":
        """This transition checking ``unary`` instead: its sources, joins,
        labels and target are shared as they are, not validated again."""
        bound = object.__new__(PCEATransition)
        fields = {"sources": self.sources, "unary": unary, "binaries": self.binaries,
                  "labels": self.labels, "target": self.target}  # fmt: skip
        for name, value in fields.items():
            object.__setattr__(bound, name, value)
        return bound

    def __hash__(self) -> int:
        return hash((self.sources, self.labels, self.target, id(self.unary)))

    def __repr__(self) -> str:
        sources = "{" + ",".join(str(s) for s in sorted(self.sources, key=str)) + "}"
        labels = "{" + ",".join(str(l) for l in sorted(self.labels, key=str)) + "}"
        return f"PCEATransition({sources}, {self.unary}, {labels}, -> {self.target!r})"


class PCEA:
    """A Parallelized Complex Event Automaton ``(Q, U, B, Ω, Δ, F)``.

    Examples
    --------
    The automaton of Example 3.3 (a ``T`` and an ``S`` with equal first
    attribute, joined later by an ``R`` matching both) is built in
    ``examples/quickstart.py`` and in the test suite.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Iterable[PCEATransition],
        final: Iterable[State],
        labels: Iterable[Label] | None = None,
    ) -> None:
        self.states: FrozenSet[State] = frozenset(states)
        self.transitions: Tup[PCEATransition, ...] = tuple(transitions)
        self.final: FrozenSet[State] = frozenset(final)
        inferred: Set[Label] = set()
        for transition in self.transitions:
            inferred |= transition.labels
        self.labels: FrozenSet[Label] = frozenset(labels) if labels is not None else frozenset(inferred)
        self._dispatch_index = None  # built lazily by ``dispatch_index``
        self._validate()

    #: The automaton this one was bound from (:meth:`with_unaries`), and, on
    #: such a template, the dispatch structure its bound automata share.
    _template: "PCEA | None" = None
    _structure = None

    def _validate(self) -> None:
        if not self.final <= self.states:
            raise ValueError("final states must be states")
        for transition in self.transitions:
            if transition.target not in self.states:
                raise ValueError(f"transition target {transition.target!r} not in states")
            if not transition.sources <= self.states:
                raise ValueError(f"transition sources {set(transition.sources)} not in states")

    # ----------------------------------------------------------------- sizing
    def size(self) -> int:
        """``|P| = |Q| + Σ_{(P,U,B,L,q) ∈ Δ} (|P| + |L|)`` as defined in the paper."""
        return len(self.states) + sum(t.size() for t in self.transitions)

    def uses_only_equality_predicates(self) -> bool:
        """Whether every binary predicate belongs to ``B_eq`` (required by Algorithm 1)."""
        return all(
            isinstance(b, EqualityPredicate) for t in self.transitions for b in t.binaries.values()
        )

    def initial_transitions(self) -> Iterator[PCEATransition]:
        return (t for t in self.transitions if t.is_initial)

    def with_unaries(self, unaries: Sequence[UnaryPredicate]) -> "PCEA":
        """This automaton with transition ``i`` checking ``unaries[i]``.

        States, sources, joins, labels and finals are this automaton's,
        shared and not validated again, so the two differ in their unary
        predicates only — which is all a dispatch index binds: every
        automaton bound from this one shares one
        :class:`~repro.core.dispatch.DispatchStructure` (see
        :meth:`dispatch_index`).  The pattern compiler binds each pattern's
        filters onto its shape's memoised automaton this way.
        """
        if len(unaries) != len(self.transitions):
            raise ValueError(
                f"{len(unaries)} unaries bound onto {len(self.transitions)} transitions"
            )
        bound = PCEA.__new__(PCEA)
        bound.states, bound.final, bound.labels = self.states, self.final, self.labels
        bound.transitions = tuple([
            transition if unary is transition.unary else transition.with_unary(unary)
            for transition, unary in zip(self.transitions, unaries)
        ])  # fmt: skip
        bound._dispatch_index = None
        bound._template = self
        return bound

    def dispatch_index(self):
        """The compile-once transition dispatch index (cached on the automaton).

        Built by the first call (every engine makes one at construction) and
        shared by later engines.  An index is a dispatch structure (state
        ids, joins, slots, readers: what the transitions' unaries do not
        decide) with the unaries bound onto it.  An automaton made by
        :meth:`with_unaries` takes the structure its template keeps — built
        by the first index of an automaton bound from it, then shared by all
        of them — so its index costs only the binding; any other builds its
        own.  The compilers never build an index, and nothing builds one on
        a template: the pattern compiler's memoised automata are templates,
        one shared by every pattern of its shape
        (:func:`repro.engine.compiler._shape_automaton`).  See
        :mod:`repro.core.dispatch`.

        Each join compiles to its own probe kind: a join in ``B_eq`` probes
        Algorithm 1's ``H`` by key, any other scans its source's live runs
        (Section 6's open case), so every automaton has an index.
        """
        if self._dispatch_index is None:
            from repro.core.dispatch import DispatchStructure, TransitionDispatchIndex

            template = self._template
            structure = None
            if template is not None:
                structure = template._structure
                if structure is None:
                    structure = DispatchStructure(template.transitions, template.final)
                    template._structure = structure
            self._dispatch_index = TransitionDispatchIndex(
                self.transitions, final=self.final, structure=structure
            )
        return self._dispatch_index

    # ----------------------------------------------- naive (reference) semantics
    def run_trees_upto(
        self,
        stream: Sequence[Tuple],
        upto: int,
        max_nodes: int | None = None,
    ) -> Dict[int, List[RunTreeNode]]:
        """Materialise every run tree whose root position is at most ``upto``.

        Returns a mapping ``position -> run-tree roots created at that
        position``.  The number of run trees can be exponential in the stream
        length; ``max_nodes`` guards against runaway blow-up in tests.
        """
        nodes_by_state: Dict[State, List[RunTreeNode]] = {state: [] for state in self.states}
        roots_by_position: Dict[int, List[RunTreeNode]] = {}
        total_nodes = 0
        limit = min(upto + 1, len(stream))
        for position in range(limit):
            tup = stream[position]
            created: List[RunTreeNode] = []
            for transition in self.transitions:
                if not transition.unary.holds(tup):
                    continue
                if transition.is_initial:
                    configuration = Configuration(transition.target, position, transition.labels)
                    created.append(RunTreeNode(configuration))
                    continue
                # For every source state, collect the compatible earlier nodes.
                alternatives: List[List[RunTreeNode]] = []
                feasible = True
                for source in sorted(transition.sources, key=str):
                    binary = transition.binaries[source]
                    compatible = [
                        node
                        for node in nodes_by_state[source]
                        if binary.holds(stream[node.position], tup)
                    ]
                    if not compatible:
                        feasible = False
                        break
                    alternatives.append(compatible)
                if not feasible:
                    continue
                for combination in itertools.product(*alternatives):
                    configuration = Configuration(transition.target, position, transition.labels)
                    created.append(RunTreeNode(configuration, combination))
            for node in created:
                nodes_by_state[node.state].append(node)
            roots_by_position[position] = created
            total_nodes += len(created)
            if max_nodes is not None and total_nodes > max_nodes:
                raise RuntimeError(
                    f"naive PCEA evaluation exceeded {max_nodes} run-tree nodes; "
                    "use the streaming evaluator for long streams"
                )
        return roots_by_position

    def output_at(
        self,
        stream: Sequence[Tuple],
        position: int,
        window: int | None = None,
    ) -> Set[Valuation]:
        """``⟦P⟧_position(S)`` (optionally restricted to a sliding window).

        An accepting run at position ``n`` is a run tree whose root
        configuration has position ``n`` and a final state.
        """
        roots = self.run_trees_upto(stream, position)
        outputs: Set[Valuation] = set()
        for node in roots.get(position, []):
            if node.state in self.final:
                valuation = node.valuation
                if window is None or valuation.within_window(position, window):
                    outputs.add(valuation)
        return outputs

    def outputs_upto(
        self,
        stream: Sequence[Tuple],
        upto: int,
        window: int | None = None,
    ) -> Dict[int, Set[Valuation]]:
        """Outputs at every position ``0..upto`` in a single naive pass."""
        roots = self.run_trees_upto(stream, upto)
        results: Dict[int, Set[Valuation]] = {i: set() for i in range(upto + 1)}
        for position, nodes in roots.items():
            for node in nodes:
                if node.state in self.final:
                    valuation = node.valuation
                    if window is None or valuation.within_window(position, window):
                        results[position].add(valuation)
        return results

    def accepting_runs_at(
        self, stream: Sequence[Tuple], position: int
    ) -> List[RunTreeNode]:
        """The accepting run trees at ``position`` (used by the unambiguity audit)."""
        roots = self.run_trees_upto(stream, position)
        return [node for node in roots.get(position, []) if node.state in self.final]

    def __repr__(self) -> str:
        return (
            f"PCEA(|Q|={len(self.states)}, |Δ|={len(self.transitions)}, "
            f"|F|={len(self.final)}, size={self.size()})"
        )


def check_unambiguous_on_stream(
    pcea: PCEA, stream: Sequence[Tuple], upto: int | None = None
) -> List[str]:
    """Audit the two unambiguity conditions of Section 3 on a concrete stream.

    Returns a list of human-readable violation descriptions (empty when no
    violation was observed).  Unambiguity is a property over *all* streams, so
    this audit can only refute it; the Theorem 4.1 construction guarantees it
    by construction, and the tests combine both.
    """
    if upto is None:
        upto = len(stream) - 1
    violations: List[str] = []
    roots = pcea.run_trees_upto(stream, upto)
    for position in range(min(upto + 1, len(stream))):
        accepting = [n for n in roots.get(position, []) if n.state in pcea.final]
        seen_forms: Set[Hashable] = set()
        by_valuation: Dict[Valuation, List[RunTreeNode]] = {}
        for node in accepting:
            if not node.is_simple():
                violations.append(
                    f"non-simple accepting run at position {position}: {node.pretty()}"
                )
            form = node.canonical_form()
            if form in seen_forms:
                continue
            seen_forms.add(form)
            by_valuation.setdefault(node.valuation, []).append(node)
        for valuation, nodes in by_valuation.items():
            if len(nodes) > 1:
                violations.append(
                    f"{len(nodes)} distinct accepting runs share the valuation {valuation} "
                    f"at position {position}"
                )
    return violations
