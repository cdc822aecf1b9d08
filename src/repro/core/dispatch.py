"""Compile-once transition dispatch index for the streaming evaluator.

Algorithm 1 as written visits *every* transition of the PCEA twice per tuple:
once in FireTransitions (to test the unary predicate) and once in
UpdateIndices (to look for source states that just received new runs).  Both
scans are ``O(|Δ|)`` regardless of how many transitions are actually relevant
to the incoming tuple.  This module precomputes, once per automaton, the
indexes that remove those scans:

* a **candidate key** per transition: the relation names its unary
  predicate can accept (``UnaryPredicate.dispatch_relations``) and its
  constant guard, which the merged index groups transitions by.  Predicates
  that cannot name their relations are *wildcards*, candidates for every
  tuple, so the keys are a pure over-approximation — firing behaviour is
  bit-for-bit identical to the full scan, only cheaper.
* a **consumer index** mapping each state ``p`` to the *slots* its readers
  join through — one per distinct ``(p, left key plan)``, however many
  transitions have ``p`` in their source set — so UpdateIndices writes each
  run created this position once per projection, not once per reader.  A
  join outside ``B_eq`` has no key: it reads ``p``'s one *scan slot*, the
  list of its live runs, instead.

States are also **interned to dense integer ids** at compile time.  Automaton
states produced by the HCQ / pattern compilers are nested tuples containing
:class:`~repro.cq.query.Variable` objects, whose Python-level dataclass
``__hash__`` would otherwise run on every hot-path dictionary operation; after
interning, every per-tuple key (run-index hash table, new-node buckets,
consumer lookups) is a plain integer.  Each transition additionally carries an
``is_final`` flag so reaching a final state is a boolean check instead of a
set-membership test on a composite state.

The per-transition data (target, labels, join predicates ordered by source) is
flattened into ``__slots__`` :class:`CompiledTransition` records so the per-tuple
loop performs no mapping lookups on the transition itself.

An index is built in two steps.  The *structure* step
(:class:`DispatchStructure`) reads the transitions' sources, targets, joins,
labels and the final states: state ids, slots, probes, consumers.  The *bind*
step reads the unary predicates: acceptors, dispatch relations, guards,
canonical keys and threshold families.  Automata that differ only in their
unaries share one structure — the pattern compiler keeps one per conjunction
shape — so binding is all such an index costs.

Candidates are evaluated as **plans** (:class:`EvalPlan`): pre-grouped by
the canonical key of their unary predicate, so the fire loop
(:func:`repro.runtime.fire`) evaluates one predicate per group — or, for
groups differing only in the ``c`` of an ``attr ⋈ c`` conjunct, one per
**threshold family** (:class:`EvalFamily`).  The plans live in the
multi-query engine's merged index
(:class:`~repro.multi.merged_index.MergedDispatchIndex`), which every engine
reads through its ``plan_for``: one per relation, one for the wildcards and
one per constant-guard bucket, each kept patched a few members at a time by
a :class:`PlanCell`.  :func:`plan_of` and :func:`_split_by_guard` group a
member list at once — the references the cells are tested against — and
:meth:`TransitionDispatchIndex.candidates_for` is the linear filter the
merged index's lookups are tested against.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from hashlib import sha256
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as Tup, TYPE_CHECKING

from repro.core.predicates import compile_acceptor, compile_key_extractors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pcea builds the index lazily)
    from repro.core.pcea import PCEATransition


State = Hashable


#: Memory addresses inside default/dataclass reprs (``<function f at 0x...>``)
#: are process-local and must not leak into cross-process signatures.
_REPR_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def join_signature(joins: Tup, probes: Tup) -> Tup[Tup[int, str, int], ...]:
    """A transition's ``joins`` and ``probes`` as ``(source id, predicate
    descriptor, slot)`` triples.

    The descriptor is the predicate's repr with memory addresses stripped —
    the standard binary predicates are dataclasses whose reprs carry their
    full configuration (projection tables, comparison positions), so two
    transitions joining on different positions get different signatures;
    callable-backed predicates degrade to their class name plus description,
    as :func:`canonical_bytes` treats id-based unary canonical keys.  The
    slot is the ``H`` slot the join probes: run-index tables are keyed by
    it, so a snapshot only restores into an index that numbered its slots
    the same way.
    """
    return tuple(
        (source_id, _REPR_ADDRESS.sub("", repr(predicate)), slot)
        for (_, source_id, predicate), (slot, _) in zip(joins, probes)
    )


#: The tags of identity-based canonical keys (``("lambda", id(func))``,
#: ``("id", id(predicate))``): the id means nothing in another process.
_PROCESS_LOCAL = ("lambda", "id")


def canonical_bytes(value: Any) -> bytes:
    """``value``'s canonical byte form, what a checkpoint's query digests hash.

    ``value`` is hashable data, a canonical key or a slot table.  Tuples are
    written in order, frozensets with their members sorted by their own
    encoded bytes, so the bytes do not follow set iteration order (which
    varies with ``PYTHONHASHSEED``).  A process-local ``("lambda" |
    "id", id)`` canonical-key atom is written as its bare tag.  Any other
    value is its type name and its repr, memory addresses stripped.
    """
    out = bytearray()
    _put_canonical(out, value)
    return bytes(out)


def _put_canonical(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is tuple:
        if len(value) == 2 and type(value[1]) is int and value[0] in _PROCESS_LOCAL:
            value = value[:1]
        out += b"(%d:" % len(value)
        for item in value:
            _put_canonical(out, item)
    elif kind is frozenset:
        out += b"{%d:" % len(value)
        out += b"".join(sorted([canonical_bytes(item) for item in value]))
    else:
        data = f"{kind.__qualname__}={_REPR_ADDRESS.sub('', repr(value))}".encode("utf-8", "backslashreplace")
        out += b"%d:" % len(data)
        out += data


class EvalGroup:
    """One predicate group: members sharing a canonical unary key.

    Equal canonical keys accept exactly the same tuples, so one ``accepts``
    call — the first member's, unless one is given — decides the whole group.
    """

    __slots__ = ("accepts", "members")

    def __init__(self, members: Sequence, accepts: Optional[Any] = None) -> None:
        self.accepts = members[0].accepts if accepts is None else accepts
        self.members = members


#: How the sorted constants of a ``v ⋈ c`` family split on the value ``v``:
#: the bisect that finds the cut, and whether the members past it (the
#: larger constants) are the accepting ones.
_CUTS = {"<": (bisect_right, True), "<=": (bisect_left, True),
         ">": (bisect_left, False), ">=": (bisect_right, False)}  # fmt: skip


def _canonical_key(unary) -> Hashable:
    canonical = getattr(unary, "canonical_key", None)
    return canonical() if canonical is not None else ("id", id(unary))


def threshold_family(unary) -> Optional[Tup[Tup, object, Any, object]]:
    """``(family key, constant, base acceptor, base)`` of a ``base ∧ (attr ⋈ c)`` unary
    (:meth:`~repro.core.predicates.UnaryPredicate.threshold`), or ``None``.  The base
    stays alive with its key: an identity-based canonical key must not outlive it."""
    threshold = getattr(unary, "threshold", None)
    split = threshold() if threshold is not None else None
    if split is None:
        return None
    base, relation, position, operator, constant = split
    # The total orders family constants may share: numbers (NaN aside), or strings.
    sortable = type(constant) is str or type(constant) in (int, float, bool) and constant == constant
    if operator not in _CUTS or not sortable:
        return None
    key = (_canonical_key(base), relation, position, operator, type(constant) is str)
    return key, constant, compile_acceptor(base), base


def _held(tup) -> bool:
    return True


_NONE_HELD = EvalGroup((), _held)


class EvalFamily:
    """Two or more groups whose unaries are ``base ∧ (v ⋈ c)`` with one base,
    relation, position and ``⋈ ∈ {<, ≤, >, ≥}``: one ``base`` call and one bisect
    of ``v`` into the sorted constants decide them all — the accepting members
    are a prefix or a suffix of ``members``, which are listed by constant (the
    ``groups`` given must be)."""

    __slots__ = ("accepts", "relation", "position", "cut", "suffix", "constants", "members",
                 "groups")  # fmt: skip

    def __init__(self, groups: Sequence[EvalGroup]) -> None:
        self.groups = tuple(groups)
        key, _, self.accepts, _ = groups[0].members[0].family
        _, self.relation, self.position, operator, _ = key
        self.cut, self.suffix = _CUTS[operator]
        self.members = tuple([member for group in self.groups for member in group.members])
        self.constants = [member.family[1] for member in self.members]

    def held(self, tup) -> EvalGroup:
        """The members whose predicate accepts ``tup``, as a group already accepted."""
        values = tup.values
        position = self.position
        if not self.accepts(tup) or tup.relation != self.relation or position >= len(values):
            return _NONE_HELD
        value = values[position]
        if value == value:
            try:
                cut = self.cut(self.constants, value)
            except TypeError:
                pass
            else:
                held = self.members[cut:] if self.suffix else self.members[:cut]
                return EvalGroup(held, _held) if held else _NONE_HELD
        # NaN (which a bisect would misplace) or a value that does not compare
        # with the constants: each group's own acceptor decides, as unfamilied.
        held = [member for group in self.groups if group.accepts(tup) for member in group.members]
        return EvalGroup(held, _held) if held else _NONE_HELD


class EvalPlan:
    """What one tuple is evaluated against: predicate groups and threshold
    families, pre-built.

    ``total`` is the member count across ``groups`` and ``families`` (the
    scan width the statistics report).  Plans stored in an index are never
    mutated; the fire loop evaluates every group and family, so their order
    decides nothing it applies (effects go in canonical candidate order).
    """

    __slots__ = ("groups", "total", "families", "_flat")

    def __init__(self, groups: List[EvalGroup], total: int, families: Tup = ()) -> None:
        self.groups = groups
        self.total = total
        self.families = families
        self._flat: Optional[Tup] = None

    def flat(self) -> Tup:
        """The members back in canonical candidate order (computed once)."""
        if self._flat is None:
            members = [member for group in self.groups for member in group.members]
            for family in self.families:
                members.extend(family.members)
            self._flat = tuple(sorted(members, key=member_order))
        return self._flat


#: A plan member's canonical candidate rank.
member_order = attrgetter("index")


def plan_of(members: Sequence) -> EvalPlan:
    """Group canonically ordered members by predicate key (first-member order),
    then gather the groups of each threshold family key into an
    :class:`EvalFamily` where there are two or more (a lone one stays a group)."""
    grouped: Dict[Hashable, List] = {}
    for member in members:
        bucket = grouped.get(member.pred_key)
        if bucket is None:
            grouped[member.pred_key] = [member]
        else:
            bucket.append(member)
    groups: List[EvalGroup] = []
    by_family: Dict[Tup, List[EvalGroup]] = {}
    for bucket in grouped.values():
        family = bucket[0].family
        kin = groups if family is None else by_family.setdefault(family[0], [])
        kin.append(EvalGroup(tuple(bucket)))
    groups += [kin[0] for kin in by_family.values() if len(kin) == 1]
    families = tuple(
        EvalFamily(sorted(kin, key=lambda group: group.members[0].family[1]))
        for kin in by_family.values()
        if len(kin) > 1
    )
    return EvalPlan(groups, len(members), families)


def _split_by_guard(members: Sequence):
    """Split a relation's members into unguarded + per-guard-value plans.

    Returns ``None`` when no member is guarded, else ``(unguarded plan,
    ((position, {value: plan}), ...))``.  A group lands whole on one side:
    equal canonical keys mean equal extensions, hence equal declared guards —
    a predicate class breaking that is rejected here, at build time.
    """
    if all(member.guard is None for member in members):
        return None
    guards: Dict[Hashable, Optional[Tup[int, object]]] = {}
    unguarded: List = []
    by_position: Dict[int, Dict[Hashable, List]] = {}
    for member in members:
        guard = member.guard
        if guards.setdefault(member.pred_key, guard) != guard:
            raise ValueError(
                f"unary predicates with canonical key {member.pred_key!r} declare "
                "different constant guards; equal keys must imply equal guards"
            )
        if guard is None:
            unguarded.append(member)
        else:
            position, value = guard
            by_position.setdefault(position, {}).setdefault(value, []).append(member)
    return (
        plan_of(unguarded),
        tuple(
            (position, {value: plan_of(bucket) for value, bucket in by_value.items()})
            for position, by_value in sorted(by_position.items())
        ),
    )


#: The plan of no members (plans in an index are never mutated: one serves all).
_EMPTY_PLAN = plan_of(())


def _constant(group: EvalGroup):
    return group.members[0].family[1]


class PlanCell:
    """One plan bucket patched a few members at a time: the incremental
    counterpart of :func:`plan_of`, by the same grouping rule (the tests
    compare the two).  The multi-query engine's merged index keeps one per
    relation and constant guard (or none), and one for the wildcards.

    ``groups`` maps each predicate key to its :class:`EvalGroup` (members in
    canonical order); ``kin`` each threshold family key to its groups by
    constant, ``families`` those with two or more (by the identity of their
    ``kin`` list) to their :class:`EvalFamily` (both ``None`` until a family
    key appears), and ``loose`` holds the groups no family took.
    :meth:`patch` rebuilds only the groups its members belong to and their
    families, then assembles :attr:`plan` from the cached ones: what
    :func:`plan_of` builds over the cell's members, but for the order of the
    groups (which decides nothing the fire loop applies).  Plans handed out
    are never mutated.
    """

    __slots__ = ("groups", "loose", "kin", "families", "total", "plan")

    def __init__(self) -> None:
        self.groups: Dict[Hashable, EvalGroup] = {}
        self.loose: Dict[Hashable, EvalGroup] = {}
        # Made with the first group that has a threshold family.
        self.kin: Optional[Dict[Hashable, List[EvalGroup]]] = None
        self.families: Optional[Dict[int, EvalFamily]] = None
        self.total = 0
        self.plan = _EMPTY_PLAN

    def patch(self, changed: Dict[Hashable, Tup[List, List]]) -> None:
        """Apply ``{predicate key: (members in, members out)}``."""
        groups, loose, kin_of, families = self.groups, self.loose, self.kin, self.families
        touched: Optional[Dict[int, List[EvalGroup]]] = None  # id(kin) -> kin, of changed families
        for pred_id, (plus, minus) in changed.items():
            old = groups.get(pred_id)
            if old is None:
                members = plus
            else:
                members = list(old.members)
                if minus:
                    gone = set(map(id, minus))
                    members = [member for member in members if id(member) not in gone]
                members += plus
            if plus and len(members) > 1:
                members.sort(key=member_order)
            self.total += len(plus) - len(minus)
            group = EvalGroup(tuple(members)) if members else None
            if group is None:
                del groups[pred_id]
            else:
                groups[pred_id] = group
            family = (old if group is None else group).members[0].family
            if family is None:
                if group is None:
                    del loose[pred_id]
                else:
                    loose[pred_id] = group
                continue
            # A family key's lone group is loose; two or more are a family.
            if kin_of is None:
                kin_of, families = self.kin, self.families = {}, {}
            kin = kin_of.get(family[0])
            if kin is None:
                kin = kin_of[family[0]] = []
            elif len(kin) == 1:
                del loose[kin[0].members[0].pred_key]
            if old is not None:
                kin.remove(old)
            if group is not None:
                insort(kin, group, key=_constant)
            if len(kin) == 1:
                loose[kin[0].members[0].pred_key] = kin[0]
            elif not kin:
                del kin_of[family[0]]
            if touched is None:
                touched = {}
            touched[id(kin)] = kin
        if touched:
            for key, kin in touched.items():
                if len(kin) > 1:
                    families[key] = EvalFamily(kin)
                else:
                    families.pop(key, None)
        self.plan = EvalPlan(
            list(loose.values()), self.total, tuple(families.values()) if families else ()
        )


class CompiledTransition:
    """A transition flattened for the per-tuple hot loop.

    ``joins`` fixes an iteration order over ``(source state, source id, binary
    predicate)`` triples so FireTransitions does not re-derive it from the
    transition's mapping on every tuple; ``relations`` is the dispatch key
    (``None`` for wildcards).  ``accepts`` and ``probes`` are what the fire
    loop calls: the unary predicate compiled to a flat ``tup -> bool`` and, in
    ``joins`` order, one probe per join.  A join in ``B_eq`` is a *hash
    probe*, a ``(slot, right-key extractor)`` pair (see "compiled plans" in
    :mod:`repro.core.predicates`); any other join a *scan probe*, a ``(scan
    slot, holds)`` pair.  A *slot* is the index's dense id of one ``(source
    state, left key plan)`` pair: ``H`` holds one entry per ``(slot, key)``,
    shared by every transition that reads the state through that
    projection; a *scan slot* is a state's one list of live runs, which
    every scan probe of the state reads.  ``consumers`` are the ``(slot,
    left-key extractor)`` pairs of this transition's target state — what
    UpdateIndices walks for a node this transition created — and
    ``store_through`` says the node need not be built first: a source-less,
    non-final transition into a one-slot, unscanned state is written
    straight onto that slot's entry (``DS_w.extend_onto``).  ``scan`` is
    ``None`` unless the transition has a scan probe or its target a scan
    slot; then it is ``(scanned, into)``: per probe whether it scans, and
    the target's scan slot (``-1``: none).  ``into_leaf`` says the target is
    a leaf state (:meth:`DispatchStructure.leaves`): a store-through run
    into it joins the leaf item before it, written as one record.
    ``index``, the transition's position in the automaton, is its canonical
    candidate rank.

    Those fields up to ``into_leaf`` are the transition's *shape*, taken whole
    from a :class:`DispatchStructure`; the rest are *bound* here from the
    transition's unary predicate.
    """

    __slots__ = (
        "index",
        "transition",
        "unary",
        "accepts",
        "joins",
        "probes",
        "consumers",
        "store_through",
        "scan",
        "into_leaf",
        "labels",
        "target",
        "target_id",
        "is_final",
        "relations",
        "guard",
        "pred_key",
        "family",
    )

    def __init__(self, shape: Tup, transition: "PCEATransition", binding: Tup) -> None:
        # ``binding``: ``(accepts, relations, guard, pred_key, family)`` of the unary.
        (self.index, self.labels, self.target, self.target_id, self.is_final,
         self.joins, self.probes, self.consumers, self.store_through, self.scan, self.into_leaf) = shape  # fmt: skip
        self.transition = transition
        self.unary = transition.unary
        self.accepts, self.relations, self.guard, self.pred_key, self.family = binding

    def __repr__(self) -> str:
        key = "*" if self.relations is None else "|".join(sorted(self.relations))
        final = ", final" if self.is_final else ""
        return f"CompiledTransition(#{self.index}, key={key}, -> {self.target!r}{final})"


class DispatchStructure:
    """What a compiled automaton is apart from its unary predicates.

    Built from the transitions' sources, targets, binary predicates and
    labels and the final-state set: the interned state ids, the slot table,
    each state's readers and, per transition, its *shape* — ``(index,
    labels, target, target id, is final, joins, probes, consumers, store
    through, scan, into leaf)``, the :class:`CompiledTransition` fields no
    unary decides.
    Automata equal but for their unaries share one structure: the pattern
    compiler keeps one per conjunction shape (:meth:`PCEA.with_unaries
    <repro.core.pcea.PCEA.with_unaries>`), and each index binds only its own
    unaries onto it.  Never mutated once built.

    Each join picks its own probe kind: a join whose predicate gives a
    right-key extractor (``B_eq``) probes ``H`` by key, any other scans the
    source's live runs.  A state some join scans gets one *scan slot* (its
    key plan is ``None``, listed in ``scan_slots``): every run created into
    the state is also stored there.  A scanned state is never stored through
    and never a leaf.

    :meth:`digest` is the shape half of a query's checkpoint digest
    (:meth:`TransitionDispatchIndex.digest`), kept here so every query of
    one shape shares it.
    """

    __slots__ = ("final", "state_ids", "slots", "consumers", "scan_slots", "shapes", "_leaves", "_digest")

    def __init__(self, transitions: Sequence["PCEATransition"], final: Iterable[State] = ()) -> None:
        self.final = final = frozenset(final)
        state_ids: Dict[State, int] = {}
        intern = lambda state: state_ids.setdefault(state, len(state_ids))
        # (source id, left key plan) -> slot.  Interned on the plan *data*:
        # slot numbers are part of the snapshot contract, so they must come
        # out the same in every process.  A hash join without a plan is its
        # own slot; a state's scan slot is keyed by the plan ``None``.
        slots: Dict[Hashable, int] = {}
        readers: Dict[int, Dict[int, object]] = {}
        scan_slots: Dict[int, int] = {}
        shapes = []
        for i, transition in enumerate(transitions):
            target_id = intern(transition.target)
            if not transition.sources:  # a run-starting transition joins nothing
                shapes.append((transition, target_id, (), (), ()))
                continue
            joins = tuple(
                (source, intern(source), transition.binaries[source])
                for source in sorted(transition.sources, key=str)
            )
            probes = []
            scanned = []
            for _, source_id, predicate in joins:
                left, right = compile_key_extractors(predicate)
                if right is None:  # outside B_eq: no key, scan the live runs
                    slot = scan_slots[source_id] = slots.setdefault((source_id, None), len(slots))
                    probes.append((slot, predicate.holds))
                else:
                    plan = getattr(predicate, "left_key_plan", lambda: None)()
                    slot = slots.setdefault((source_id, i if plan is None else plan), len(slots))
                    probes.append((slot, right))
                    readers.setdefault(source_id, {}).setdefault(slot, left)
                scanned.append(right is None)
            shapes.append((transition, target_id, joins, tuple(probes), tuple(scanned)))
        self.state_ids = state_ids
        #: slot -> ``(source state id, left key plan)`` (a transition index
        #: where a hash join has no plan, ``None`` for a scan slot), in slot order.
        self.slots: Tup[Tup[int, Hashable], ...] = tuple(slots)
        consumers = self.consumers = {
            source_id: tuple(by_slot.items()) for source_id, by_slot in readers.items()
        }
        #: state id -> its scan slot, for the states some join scans.
        self.scan_slots = scan_slots
        # The leaf states (see leaves()): a slot without a plan (a
        # hand-written key, a scan) bars its state, and so does a transition
        # into it that joins or is final.
        barred = {source for source, plan in self.slots if plan is None or isinstance(plan, int)}
        starting: Dict[int, List[int]] = {}  # state id -> the source-less transitions into it
        for i, (transition, target_id, joins, _, _) in enumerate(shapes):
            if joins or transition.target in final:
                barred.add(target_id)
            else:
                starting.setdefault(target_id, []).append(i)
        self._leaves: Dict[int, Tup[Tup[int, ...], Tup[Hashable, ...]]] = {
            state_id: (tuple(starting[state_id]), tuple([self.slots[slot][1] for slot, _ in readers]))
            for state_id, readers in consumers.items()
            if state_id in starting and state_id not in barred
        }
        self.shapes: Tup[Tup, ...] = tuple([
            (i, transition.labels, transition.target, target_id, is_final, joins, probes, into,
             not joins and not is_final and len(into) == 1 and scan is None, scan,
             target_id in self._leaves)
            for i, (transition, target_id, joins, probes, scanned) in enumerate(shapes)
            for is_final, into, scan in [(
                transition.target in final,
                consumers.get(target_id, ()),
                None if not any(scanned) and target_id not in scan_slots
                else (scanned, scan_slots.get(target_id, -1)),
            )]
        ])  # fmt: skip
        self._digest: Optional[bytes] = None

    def digest(self) -> bytes:
        """SHA-256 of the structure's canonical form (:func:`canonical_bytes`):
        per transition its labels, target id, whether it is final, its joins
        (:func:`join_signature`) and its scan flags, then the slot table.
        Computed on first use — a checkpoint or a restore, never a build."""
        digest = self._digest
        if digest is None:
            rows = tuple([
                (labels, target_id, is_final, join_signature(joins, probes), scan)
                for _, labels, _, target_id, is_final, joins, probes, _, _, scan, _ in self.shapes
            ])  # fmt: skip
            digest = self._digest = sha256(canonical_bytes((rows, self.slots))).digest()
        return digest

    def leaves(self) -> Dict[int, Tup[Tup[int, ...], Tup[Hashable, ...]]]:
        """The leaf states (see :meth:`TransitionDispatchIndex.leaf_states`):
        state id -> (its incoming transitions, the left key plan of each slot)."""
        return self._leaves


class MergedEntry:
    """A compiled transition placed in the store that holds its run state.

    The plan member :func:`repro.runtime.fire` consumes.  ``owner`` is the
    store (an :class:`~repro.runtime.EvictionLane`: one ``DS_w`` + one ``H``)
    and ``handle`` whoever its final nodes are collected for: the registered
    query, where one store serves every query of a window (``None`` for the
    entries of a leaf state several queries may share: a leaf is never
    final).  ``probes`` /
    ``consumers`` are the compiled transition's, renumbered into the store's
    slot space, and ``target_id`` any id unique to the target state within
    the store: its first slot; ``since`` is the first stream position the
    query observed (``-1``: all of it).  ``pred_key`` is the predicate-group
    key — the canonical key's dense *interned* id, so grouping hashes a plain
    int instead of a nested tuple — and ``index`` the canonical candidate
    rank, named as on :class:`CompiledTransition` (a counter in registration
    order, then transition order within a query), ``family`` its
    threshold family and ``scan`` the compiled transition's, its target's
    scan slot renumbered into the store's slot space.
    """

    __slots__ = (
        "owner", "handle", "compiled", "accepts", "pred_key", "family", "guard", "index",
        "probes", "consumers", "target_id", "since", "scan",
    )  # fmt: skip

    def __init__(
        self,
        owner: object,
        handle: object,
        compiled: CompiledTransition,
        pred_key: Hashable,
        index: int,
        since: int,
        probes: Tup[Tup[int, object], ...],
        consumers: Tup[Tup[int, object], ...],
        scan: Optional[Tup[Tup[bool, ...], int]],
    ) -> None:
        self.owner = owner
        self.handle = handle
        self.compiled = compiled
        self.accepts = compiled.accepts
        self.pred_key = pred_key
        self.family = compiled.family
        self.guard: Optional[Tup[int, object]] = compiled.guard
        self.index = index
        self.since = since
        self.probes = probes
        self.consumers = consumers
        self.target_id = consumers[0][0] if consumers else -1
        self.scan = scan

    def __repr__(self) -> str:
        return f"MergedEntry(owner={self.owner!r}, {self.compiled!r})"


class TransitionDispatchIndex:
    """One automaton compiled for the per-tuple loop (built once, read per tuple).

    Its :class:`CompiledTransition` records, slots, readers and leaf states;
    the engines merge the records under their stores
    (:class:`~repro.multi.merged_index.MergedDispatchIndex`) and read their
    plans from there.

    Parameters
    ----------
    transitions:
        The PCEA transition list, in automaton order (the order determines the
        canonical candidate order and therefore matches the full-scan engine's
        node-creation order exactly).
    final:
        The automaton's final-state set; fired transitions into these states
        carry ``is_final=True`` so the evaluator can collect output nodes
        without hashing composite states.
    structure:
        The :class:`DispatchStructure` of ``transitions`` (whose finals then
        apply), when one is kept for automata of their shape; built here
        from ``transitions`` and ``final`` otherwise.  Either way the index
        is that structure with the transitions' unaries bound onto it.
    """

    def __init__(
        self,
        transitions: Sequence["PCEATransition"],
        final: Iterable[State] = (),
        structure: Optional[DispatchStructure] = None,
    ) -> None:
        if structure is None:
            structure = DispatchStructure(transitions, final)
        elif len(structure.shapes) != len(transitions):
            raise ValueError("the dispatch structure was built for another transition list")
        self.structure = structure
        self.final = structure.final
        self.state_ids = structure.state_ids
        self.slots = structure.slots
        self._consumers = structure.consumers
        compiled: List[CompiledTransition] = []
        bindings: Dict[int, Tup] = {}  # id(unary) -> its binding, once per unary object
        for shape, transition in zip(structure.shapes, transitions):
            unary = transition.unary
            binding = bindings.get(id(unary))
            if binding is None:
                # A ``(position, value)`` equality implied by the unary
                # predicate, so the merged index can key the transition by
                # its guard value; the canonical key lets it share one
                # ``unary.holds`` verdict across structurally identical
                # predicates, the threshold family one bisect across
                # ``base ∧ (attr ⋈ c)`` ones.  All default soundly for
                # predicate objects predating the protocol.
                guard = getattr(unary, "constant_guard", None)
                binding = bindings[id(unary)] = (
                    compile_acceptor(unary),
                    unary.dispatch_relations(),
                    guard() if guard is not None else None,
                    _canonical_key(unary),
                    threshold_family(unary),
                )
            compiled.append(CompiledTransition(shape, transition, binding))
        self._all: Tup[CompiledTransition, ...] = tuple(compiled)
        self._leaves: Optional[Dict[int, Hashable]] = None  # see leaf_states()
        self._digest: Optional[bytes] = None  # see digest()

    # ----------------------------------------------------------------- lookups
    def consumers_by_id(self, state_id: int) -> Tup[Tup[int, object], ...]:
        """The state's ``(slot, left-key extractor)`` pairs, one per left key plan read through."""
        return self._consumers.get(state_id, ())

    def all_transitions(self) -> Tup[CompiledTransition, ...]:
        return self._all

    def candidates_for(self, tup) -> Tup[CompiledTransition, ...]:
        """The transitions whose unary may accept ``tup``, in canonical order:
        those naming its relation (or none) whose constant guard, if any, the
        tuple carries.  A linear filter that builds no plans — the reference
        the merged index's :meth:`~repro.multi.merged_index.MergedDispatchIndex.plan_for`
        is tested against."""
        relation, values = tup.relation, tup.values
        return tuple([
            c for c in self._all
            if (c.relations is None or relation in c.relations)
            and (c.guard is None or c.guard[0] < len(values) and values[c.guard[0]] == c.guard[1])
        ])  # fmt: skip

    def leaf_states(self) -> Dict[int, Hashable]:
        """``state id -> class key`` of the automaton's *leaf* states.

        A leaf state is read (it has slots), is not final and is reached only
        by source-less transitions — its runs are single tuples — so what
        ``H`` holds for it follows from the stream and the key alone: the
        incoming transitions' ``(relations, canonical unary key, label set)``
        in transition order, plus the left key plan of each slot.  Automata
        with an equal key would store identical entries, which lets the
        multi-query engine store them once.  A state read through a
        hand-written key or scanned has no plan to compare: never a leaf.
        """
        leaves = self._leaves
        if leaves is None:
            into_key = lambda c: (c.relations, c.pred_key, c.labels)
            compiled = self._all
            leaves = self._leaves = {
                state_id: (tuple([into_key(compiled[i]) for i in into]), plans)
                for state_id, (into, plans) in self.structure.leaves().items()
            }
        return leaves

    def digest(self) -> bytes:
        """The automaton's 32-byte checkpoint digest: SHA-256 of its
        structure's :meth:`~DispatchStructure.digest` and, per transition, the
        canonical bytes of its dispatch relations, constant guard and
        canonical unary key.  Two indexes with equal digests plan, join and
        number their slots alike, so a checkpoint of one restores into the
        other.  Computed on first use and kept: the index is never mutated."""
        digest = self._digest
        if digest is None:
            hasher = sha256(self.structure.digest())
            rows: Dict[int, bytes] = {}  # id(unary) -> its row's bytes: transitions share unaries
            for c in self._all:
                row = rows.get(id(c.unary))
                if row is None:
                    row = rows[id(c.unary)] = canonical_bytes((c.relations, c.guard, c.pred_key))
                hasher.update(row)
            digest = self._digest = hasher.digest()
        return digest

    # ------------------------------------------------------------ introspection
    def __len__(self) -> int:
        return len(self._all)
