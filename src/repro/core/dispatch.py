"""Compile-once transition dispatch index for the streaming evaluator.

Algorithm 1 as written visits *every* transition of the PCEA twice per tuple:
once in FireTransitions (to test the unary predicate) and once in
UpdateIndices (to look for source states that just received new runs).  Both
scans are ``O(|Δ|)`` regardless of how many transitions are actually relevant
to the incoming tuple.  This module precomputes, once per automaton, the
indexes that remove those scans:

* a **candidate index** grouping transitions by the relation names their unary
  predicates can accept (``UnaryPredicate.dispatch_relations``).  Predicates
  that cannot name their relations land in a *wildcard* group that is probed
  for every tuple, so the index is a pure over-approximation — firing
  behaviour is bit-for-bit identical to the full scan, only cheaper.
* a **consumer index** mapping each state ``p`` to the transitions that read
  from ``p`` (i.e. have ``p`` in their source set), so UpdateIndices only
  touches the transitions that can consume the runs created this position.

States are also **interned to dense integer ids** at compile time.  Automaton
states produced by the HCQ / pattern compilers are nested tuples containing
:class:`~repro.cq.query.Variable` objects, whose Python-level dataclass
``__hash__`` would otherwise run on every hot-path dictionary operation; after
interning, every per-tuple key (run-index hash table, new-node buckets,
consumer lookups) is a plain integer.  Each transition additionally carries an
``is_final`` flag so reaching a final state is a boolean check instead of a
set-membership test on a composite state.

The per-transition data (target, labels, join predicates ordered by source) is
flattened into slot-based :class:`CompiledTransition` records so the per-tuple
loop performs no mapping lookups on the transition itself.
"""

from __future__ import annotations

import re
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as Tup, TYPE_CHECKING

from repro.core.predicates import compile_acceptor, compile_key_extractors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pcea builds the index lazily)
    from repro.core.pcea import PCEATransition


State = Hashable


#: Memory addresses inside default/dataclass reprs (``<function f at 0x...>``)
#: are process-local and must not leak into cross-process signatures.
_REPR_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def join_signature(compiled: "CompiledTransition") -> Tup[Tup[int, str], ...]:
    """The transition's joins as ``(source id, predicate descriptor)`` pairs.

    The descriptor is the predicate's repr with memory addresses stripped —
    the standard binary predicates are dataclasses whose reprs carry their
    full configuration (projection tables, comparison positions), so two
    transitions joining on different positions get different signatures;
    callable-backed predicates degrade to their class name plus description,
    mirroring how :func:`~repro.runtime.snapshot.stable_signature` treats
    id-based unary canonical keys.
    """
    return tuple(
        (source_id, _REPR_ADDRESS.sub("", repr(predicate)))
        for _, source_id, predicate in compiled.joins
    )


def _transition_order(compiled: "CompiledTransition") -> int:
    return compiled.index


def build_guard_buckets(members: Sequence):
    """Split one relation's candidates into unguarded + per-guard-value buckets.

    ``members`` are candidate records exposing a ``guard`` attribute
    (``None`` or ``(position, value)``) — either :class:`CompiledTransition`
    or the multi-query engine's merged entries.  Returns ``None`` when no
    member is guarded (the caller then keeps plain relation dispatch), else
    ``(unguarded, ((position, {value: members}), ...))`` with member order
    preserved inside every bucket.
    """
    if not any(member.guard is not None for member in members):
        return None
    unguarded = tuple(member for member in members if member.guard is None)
    groups: Dict[int, Dict[Hashable, List]] = {}
    for member in members:
        if member.guard is None:
            continue
        position, value = member.guard
        groups.setdefault(position, {}).setdefault(value, []).append(member)
    frozen = tuple(
        (position, {value: tuple(bucket) for value, bucket in by_value.items()})
        for position, by_value in sorted(groups.items())
    )
    return (unguarded, frozen)


def probe_guard_buckets(entry, tup, order_key):
    """Look one tuple up in a :func:`build_guard_buckets` structure.

    Returns the unguarded candidates plus every guarded bucket whose value
    matches the tuple's attribute (guards at positions beyond the tuple's
    arity cannot hold and are skipped), re-sorted by ``order_key`` so the
    result preserves the original candidate order.
    """
    unguarded, groups = entry
    result = list(unguarded)
    arity = tup.arity
    for position, by_value in groups:
        if position < arity:
            matched = by_value.get(tup.value(position))
            if matched:
                result.extend(matched)
    if len(result) > 1:
        result.sort(key=order_key)
    return result


class CompiledTransition:
    """A transition flattened for the per-tuple hot loop.

    ``joins`` fixes an iteration order over ``(source state, source id, binary
    predicate)`` triples so FireTransitions does not re-derive it from the
    transition's mapping on every tuple; ``relations`` is the dispatch key
    (``None`` for wildcards).  ``accepts`` and ``probes`` are what the fire
    loops call: the unary predicate compiled to a flat ``tup -> bool`` and, in
    ``joins`` order, ``(source id, right-key extractor)`` pairs (see "compiled
    plans" in :mod:`repro.core.predicates`; the extractor is ``None`` for a
    join outside ``B_eq``, which only the general evaluator runs).
    """

    __slots__ = (
        "index",
        "transition",
        "unary",
        "accepts",
        "joins",
        "probes",
        "labels",
        "target",
        "target_id",
        "is_final",
        "relations",
        "guard",
        "pred_key",
        "hits",
    )

    def __init__(self, index: int, transition: "PCEATransition") -> None:
        self.index = index
        self.transition = transition
        self.unary = transition.unary
        self.accepts = compile_acceptor(transition.unary)
        self.labels = transition.labels
        self.target = transition.target
        self.relations: Optional[frozenset] = transition.unary.dispatch_relations()
        # A ``(position, value)`` equality implied by the unary predicate, so
        # the index can key this transition by its guard value; the canonical
        # key lets the multi-query engine share one ``unary.holds`` verdict
        # across structurally identical predicates.  Both default soundly for
        # predicate objects predating the protocol.
        guard = getattr(transition.unary, "constant_guard", None)
        self.guard: Optional[Tup[int, object]] = guard() if guard is not None else None
        canonical = getattr(transition.unary, "canonical_key", None)
        self.pred_key: Hashable = (
            canonical() if canonical is not None else ("id", id(transition.unary))
        )
        # Filled in by the index: interned ids and the final-state flag.
        self.target_id = -1
        self.is_final = False
        self.joins: Tup[Tup[State, int, object], ...] = ()
        self.probes: Tup[Tup[int, object], ...] = ()
        # Adaptive-dispatch hit counter (repro.core.adaptive): bumped when
        # this transition leads a predicate group whose unary held, halved at
        # every flush.  Pure feedback — never read on a correctness path and
        # excluded from signature().
        self.hits = 0

    def __repr__(self) -> str:
        key = "*" if self.relations is None else "|".join(sorted(self.relations))
        final = ", final" if self.is_final else ""
        return f"CompiledTransition(#{self.index}, key={key}, -> {self.target!r}{final})"


class TransitionDispatchIndex:
    """The per-automaton dispatch indexes (built once, read per tuple).

    Parameters
    ----------
    transitions:
        The PCEA transition list, in automaton order (the order determines the
        candidate iteration order and therefore matches the full-scan engine's
        node-creation order exactly).
    indexed:
        With ``False`` the candidate index degenerates to the full transition
        list for every tuple — the seed engine's scan behaviour, kept for
        ablation benchmarks and differential tests.
    final:
        The automaton's final-state set; fired transitions into these states
        carry ``is_final=True`` so the evaluator can collect output nodes
        without hashing composite states.
    guards:
        With ``True`` (the default), candidates carrying a constant equality
        guard (``UnaryPredicate.constant_guard``) are additionally keyed by
        ``(relation, guard value)``; :meth:`candidates_for` then prunes
        guarded transitions whose value does not match the tuple before their
        ``unary.holds`` ever runs.  ``False`` restores pure relation-name
        dispatch (ablation).
    """

    def __init__(
        self,
        transitions: Sequence["PCEATransition"],
        indexed: bool = True,
        final: Iterable[State] = (),
        guards: bool = True,
    ) -> None:
        self.indexed = indexed
        self.guards = guards
        self.final = frozenset(final)
        self.state_ids: Dict[State, int] = {}
        compiled: List[CompiledTransition] = []
        consumers: Dict[int, List[Tup[CompiledTransition, int, object]]] = {}
        for i, transition in enumerate(transitions):
            c = CompiledTransition(i, transition)
            c.target_id = self._intern(transition.target)
            c.is_final = transition.target in self.final
            c.joins = tuple(
                (source, self._intern(source), transition.binaries[source])
                for source in sorted(transition.sources, key=str)
            )
            probes = []
            for _, source_id, predicate in c.joins:
                left, right = compile_key_extractors(predicate)
                probes.append((source_id, right))
                consumers.setdefault(source_id, []).append((c, source_id, left))
            c.probes = tuple(probes)
            compiled.append(c)
        self._all: Tup[CompiledTransition, ...] = tuple(compiled)
        self._wildcard: Tup[CompiledTransition, ...] = tuple(
            c for c in compiled if c.relations is None
        )
        relations: set = set()
        for c in compiled:
            if c.relations is not None:
                relations.update(c.relations)
        # Precompute the merged (wildcard + specific) candidate list per known
        # relation, preserving transition order.  Unknown relations fall back
        # to the wildcard list via ``candidates``.
        self._by_relation: Dict[str, Tup[CompiledTransition, ...]] = {
            relation: tuple(
                c for c in compiled if c.relations is None or relation in c.relations
            )
            for relation in relations
        }
        # Constant-guard index: within a relation whose candidates carry
        # ``(position, value)`` equality guards, bucket those candidates by
        # guard value so a lookup probes ``value(position)`` instead of
        # running every guarded ``unary.holds``.  Relations without any
        # guarded candidate are omitted — ``candidates_for`` then falls back
        # to the plain per-relation list, so the guard index costs nothing
        # where it cannot help.
        self._guarded: Dict[
            str,
            Tup[
                Tup[CompiledTransition, ...],
                Tup[Tup[int, Dict[Hashable, Tup[CompiledTransition, ...]]], ...],
            ],
        ] = {}
        if guards:
            for relation, members in self._by_relation.items():
                buckets = build_guard_buckets(members)
                if buckets is not None:
                    self._guarded[relation] = buckets
        self._consumers: Dict[int, Tup[Tup[CompiledTransition, int, object], ...]] = {
            source_id: tuple(entries) for source_id, entries in consumers.items()
        }

    def __reduce__(self):
        # Pickled as its constructor arguments: compiled closures do not
        # pickle, and a compiled automaton must still cross process boundaries.
        transitions = tuple(c.transition for c in self._all)
        return (type(self), (transitions, self.indexed, self.final, self.guards))

    def _intern(self, state: State) -> int:
        state_id = self.state_ids.get(state)
        if state_id is None:
            state_id = self.state_ids[state] = len(self.state_ids)
        return state_id

    # ----------------------------------------------------------------- lookups
    def candidates(self, relation: str) -> Tup[CompiledTransition, ...]:
        """Transitions whose unary predicate may accept a tuple of ``relation``."""
        if not self.indexed:
            return self._all
        return self._by_relation.get(relation, self._wildcard)

    def candidates_for(self, tup) -> Sequence[CompiledTransition]:
        """Candidates for a concrete tuple: relation dispatch plus guard pruning.

        A pure refinement of :meth:`candidates`: guarded transitions whose
        guard value differs from the tuple's are dropped (their ``holds`` is
        necessarily false), everything else is returned in transition order so
        firing behaviour matches the unguarded engine exactly.
        """
        if not self.indexed:
            return self._all
        entry = self._guarded.get(tup.relation)
        if entry is None:
            return self._by_relation.get(tup.relation, self._wildcard)
        return probe_guard_buckets(entry, tup, _transition_order)

    def consumers_by_id(self, state_id: int) -> Tup[Tup[CompiledTransition, int, object], ...]:
        """``(compiled transition, source id, left-key extractor)`` triples reading the state."""
        return self._consumers.get(state_id, ())

    def consumers(self, state: State) -> Tup[Tup[CompiledTransition, int, object], ...]:
        """Like :meth:`consumers_by_id`, addressed by the original state."""
        state_id = self.state_ids.get(state)
        if state_id is None:
            return ()
        return self._consumers.get(state_id, ())

    def all_transitions(self) -> Tup[CompiledTransition, ...]:
        return self._all

    def build_adaptive(self, config=None):
        """An engine-owned :class:`~repro.core.adaptive.AdaptiveState` over
        this index.

        Each adaptive engine builds its own state (the index itself may be
        shared through ``PCEA.dispatch_index`` caching), so learned plans
        never leak between engines; only the ``hits`` feedback counters live
        on the shared :class:`CompiledTransition` records.
        """
        from repro.core.adaptive import AdaptiveState

        return AdaptiveState(self, _transition_order, config)

    # ------------------------------------------------------------ introspection
    def __len__(self) -> int:
        return len(self._all)

    def signature(self) -> Dict[str, object]:
        """A canonical structural summary of the compiled automaton.

        The single-engine counterpart of
        :meth:`~repro.multi.merged_index.MergedDispatchIndex.signature`: two
        indexes compiled from the same transition list and final-state set
        have equal signatures.  The snapshot protocol stores it (run through
        :func:`~repro.runtime.snapshot.stable_signature`) so a checkpoint
        can only be restored into an engine evaluating the same query —
        including the *binary* join predicates, via
        :func:`join_signature` (two automata differing only in a join
        position must not verify as equal).
        """
        return {
            "transitions": tuple(
                (
                    c.index,
                    c.pred_key,
                    None if c.relations is None else tuple(sorted(c.relations)),
                    join_signature(c),
                    c.target_id,
                    c.is_final,
                    tuple(sorted(c.labels, key=repr)),
                )
                for c in self._all
            ),
            "finals": tuple(sorted((repr(state) for state in self.final))),
            "indexed": self.indexed,
        }

    def describe(self) -> Dict[str, float]:
        """Summary statistics for benchmark / CLI reporting.

        The key set matches ``MergedDispatchIndex.describe`` (``queries`` is
        always 1 here; ``predicate_groups`` count distinct canonical unary
        keys within the automaton) so the CLI ``--stats`` dispatch line is
        identical across engine modes.
        """
        sizes = [len(candidates) for candidates in self._by_relation.values()]
        guarded = sum(1 for c in self._all if c.guard is not None)
        guard_values = sum(
            len(by_value)
            for _, groups in self._guarded.values()
            for _, by_value in groups
        )
        key_counts: Dict[Hashable, int] = {}
        for c in self._all:
            key_counts[c.pred_key] = key_counts.get(c.pred_key, 0) + 1
        return {
            "queries": 1.0,
            "transitions": float(len(self._all)),
            "predicate_groups": float(len(key_counts)),
            "shared_predicate_groups": float(
                sum(1 for count in key_counts.values() if count > 1)
            ),
            "relations": float(len(self._by_relation)),
            "wildcard_transitions": float(len(self._wildcard)),
            "max_candidates": float(max(sizes, default=len(self._wildcard))),
            "mean_candidates": float(sum(sizes) / len(sizes)) if sizes else float(len(self._wildcard)),
            "guarded_transitions": float(guarded if self.guards else 0),
            "guard_values": float(guard_values),
            # A single-automaton index is built once and never patched; the
            # keys exist so the merged index's describe() stays key-identical.
            "patched_adds": 0.0,
            "patched_removes": 0.0,
        }

    def relation_fanout(self) -> Dict[str, int]:
        """Per-relation candidate-list sizes (``"*"`` = wildcard fallback).

        The fan-out a tuple of each relation scans — sampled over time (the
        observability gauges) this is the per-bucket hit-rate series the
        adaptive-dispatch roadmap item needs.
        """
        fanout = {
            relation: len(members) for relation, members in self._by_relation.items()
        }
        fanout["*"] = len(self._wildcard)
        return fanout

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"TransitionDispatchIndex(|Δ|={int(info['transitions'])}, "
            f"relations={int(info['relations'])}, "
            f"wildcards={int(info['wildcard_transitions'])})"
        )
