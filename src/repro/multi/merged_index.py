"""The merged transition dispatch index shared by all registered queries.

One :class:`~repro.core.dispatch.TransitionDispatchIndex` serves one automaton;
with a million registered patterns the engine would perform a million
candidate lookups per tuple, one per automaton, even though most lookups
return nothing.  :class:`MergedDispatchIndex` unions the per-PCEA candidate
keys into a single structure keyed by relation name (and, where a member
declares one, by constant-guard value), tagging every
compiled transition with its owning query, so the multi-query engine performs
**one** lookup per tuple and receives the candidate transitions of *all*
registered queries at once.

Each merged entry also carries the canonical key of its unary predicate
(:meth:`~repro.core.predicates.UnaryPredicate.canonical_key`).  Entries with
equal keys accept exactly the same tuples, so every relation's candidates are
stored pre-grouped by key (:class:`~repro.core.dispatch.EvalPlan`) and the
fire loop evaluates one representative per group per tuple — which makes
per-tuple cost scale with the number of distinct predicates instead of the
number of registered queries.

Incremental patching
--------------------
The index is **incrementally patchable**: :meth:`add_query` and
:meth:`remove_query` re-plan only what the query's transitions join.  Each
plan bucket — a relation's members under one constant guard (or none), and
the wildcards — is a plan *cell* keeping its predicate groups by interned
key and its threshold families by family key; a patch rebuilds the one
group each changed member belongs to and, if it has one, that group's
family, then re-assembles the bucket's plan from the cached groups.  So a
registration change costs ``O(|P_q| + Σ sizes of the groups and families it
joins)`` plus a list copy per touched bucket — no predicate key is hashed
again for members it does not touch, and a query with its own predicate
regroups the same number of members however many queries are registered.
Specifically:

* nothing is tombstoned — a removed entry leaves its group (and the group
  its cell) at once, so no per-tuple lookup ever scans residue of an
  unregistered query;
* canonical predicate keys are interned with reference counts (and the
  constant guard they declare); the dense integer ids of keys whose last
  user unregistered are recycled through a free list, so the interned-key
  tables shrink back and grouping keeps hashing small ints;
* a registration is checked before it changes anything: equal canonical
  keys must declare equal guards, and a query breaking that is refused with
  the index as it was;
* wildcard transitions (rare) are the one global case: adding or removing a
  wildcard-carrying query patches every relation's cells, because wildcards
  are merged into each per-relation candidate list.

Leaf states stored once
-----------------------
Queries registered into the same *store* (the engine keeps one ``DS_w`` + one
``H`` per window) whose automata have an identical leaf state
(:meth:`TransitionDispatchIndex.leaf_states
<repro.core.dispatch.TransitionDispatchIndex.leaf_states>`) would fill it with
identical runs.  Such a state is one reference-counted *class*: its incoming
transitions are in the plans once, built from the first query that brought
them, writing the store slots every sharer's readers probe; with its last
user it leaves the plans, and what it stored is left to expire.  Every other
state stays private to its query — a class of one, same mechanism.  A store's
first query registers with no classes at all (nothing could share them yet):
its leaf states become classes when a second query enters the store, by
moving its entries, not rebuilding them.

Entry iteration order is preserved across patching: entry ``index`` values
are assigned from a monotonic counter, so candidates always iterate in
registration order then transition order — exactly the order a from-scratch
rebuild over the surviving queries produces.  :meth:`signature` exposes a
canonical structural summary (independent of raw index values and interned-id
assignment) that the tests compare against a from-scratch rebuild after every
mutation; they also compare each stored plan with what
:func:`~repro.core.dispatch.plan_of` builds over the same members.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple as Tup

from repro.core.dispatch import (
    _EMPTY_PLAN,
    EvalGroup,
    EvalPlan,
    MergedEntry,
    PlanCell,
    TransitionDispatchIndex,
    member_order,
    join_signature,
)


def _file(changes: Dict, key: Optional[str], entry: MergedEntry, side: int) -> None:
    """File ``entry`` among ``changes[key]``, by interned predicate id, as
    coming in (``side`` 0) or going out (1)."""
    by_pred = changes.get(key)
    if by_pred is None:
        by_pred = changes[key] = {}
    change = by_pred.get(entry.pred_key)
    if change is None:
        change = by_pred[entry.pred_key] = ([], [])
    change[side].append(entry)


class _StateClass:
    """One leaf state of a store, stored once for every query that has it.

    ``slots`` are the state's store slots in reader order, ``entries`` the
    plan members of its incoming transitions (built from the first user's
    compiled transitions), ``users`` maps each sharing query to the indexes
    of *its* transitions the entries stand for, in registration order.
    """

    __slots__ = ("key", "slots", "entries", "users")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.slots: Tup[int, ...] = ()
        self.entries: List[MergedEntry] = []
        self.users: Dict[int, List[int]] = {}


class _Member:
    """One registered query: its private plan members and the classes it uses."""

    __slots__ = ("key", "store", "index", "entries", "classes")

    def __init__(self, key: int, store: object, index: TransitionDispatchIndex) -> None:
        self.key = key
        self.store = store
        self.index = index
        self.entries: List[MergedEntry] = []
        self.classes: List[_StateClass] = []


class MergedDispatchIndex:
    """The union of several per-automaton dispatch indexes.

    Parameters
    ----------
    members:
        ``(owner, dispatch index)`` pairs in registration order.  The owner
        names the query — it is what :meth:`remove_query` identifies the
        member by — and, registered this way, is also the store its entries
        carry: every query stands alone, numbered as its automaton is.  The
        multi-query engine registers through :meth:`add_query` with an
        explicit store instead.
    """

    def __init__(self, members: Sequence[Tup[object, TransitionDispatchIndex]] = ()) -> None:
        # The read-optimised plans the per-tuple lookup hits: each relation's
        # (wildcards merged in), the constant-guard refinement of relations
        # with guarded members, and the wildcards' for every other relation.
        self.plans: Dict[str, EvalPlan] = {}
        self.guarded: Dict[str, Tup[EvalPlan, Tup[Tup[int, Dict[Hashable, EvalPlan]], ...]]] = {}
        self.wildcard_plan = _EMPTY_PLAN
        # id(owner) -> member, in registration order (dict insertion order is
        # the canonical query order).
        self._by_owner: Dict[int, _Member] = {}
        # (id(store), leaf class key) -> the live class.
        self._classes: Dict[Tup[int, Hashable], _StateClass] = {}
        # id(store) -> the queries registered into it, and its one query
        # while it has only one (whose leaf states are not classes yet).
        self._store_users: Dict[int, int] = {}
        self._alone: Dict[int, _Member] = {}
        # Interned canonical predicate keys, each ``[dense id, reference
        # count, constant guard]`` (one hash per lookup: a key can be a deep
        # structure): ids are recycled through a free list so the table
        # shrinks back after unregistration and plan grouping keeps hashing
        # small ints.
        self._pred_keys: Dict[Hashable, List[int]] = {}
        self._free_pred_ids: List[int] = []
        self._next_pred_id = 0
        self._next_index = 0
        self._size = 0
        # Lifetime patch counters (``describe()`` surfaces them; the
        # observability layer additionally times each patch at the engine).
        self.patched_adds = 0
        self.patched_removes = 0
        # Per-relation plan cells by constant guard (``None``: unguarded),
        # wildcards merged in, and how many entries name the relation (its
        # plans go with the last); the wildcards' own cell.
        self._cells: Dict[str, Dict[Optional[Tup[int, object]], PlanCell]] = {}
        self._specific: Dict[str, int] = {}
        self._wildcards: Optional[PlanCell] = None  # made with the first wildcard
        for owner, index in members:
            self.add_query(owner, index)

    # ------------------------------------------------------------ intern table
    def _new_pred(self, canonical: Hashable, guard: Optional[Tup[int, object]]) -> int:
        """Intern a canonical key the table does not hold, with the guard it
        declares (``add_query`` counts the further users of a held one in place)."""
        if self._free_pred_ids:
            pred_id = self._free_pred_ids.pop()
        else:
            pred_id = self._next_pred_id
            self._next_pred_id += 1
        self._pred_keys[canonical] = [pred_id, 1, guard]
        return pred_id

    def _refuse(self, entries: Sequence[MergedEntry], canonical: Hashable, held, guard) -> None:
        """Release the keys ``entries`` took and refuse the query: a key
        declares one constant guard (a plan bucket takes a group whole)."""
        for entry in entries:
            self._release_pred(entry.compiled.pred_key)
        raise ValueError(
            f"unary predicates with canonical key {canonical!r} declare different constant "
            f"guards ({held!r}, {guard!r}); equal keys must imply equal guards"
        )

    def _release_pred(self, canonical: Hashable) -> None:
        interned = self._pred_keys[canonical]
        interned[1] -= 1
        if not interned[1]:
            del self._pred_keys[canonical]
            self._free_pred_ids.append(interned[0])

    # ------------------------------------------------------------ registration
    def add_query(
        self,
        owner: object,
        index: TransitionDispatchIndex,
        store: object = None,
        since: int = -1,
        slots: Optional[Sequence[int]] = None,
    ) -> Tup[int, ...]:
        """Merge one automaton's transitions in, re-planning only what they join.

        With a ``store`` (a lane carrying its slot space's ``next_slot``
        counter) the automaton's slots are renumbered into it: a leaf state
        some query of the store already brought joins that query's class —
        nothing is added to the plans for it — every other state takes fresh
        slots.  The store's first query forms no classes: the second one
        makes them out of its entries (:meth:`_form_classes`).  ``since`` is
        the first stream position the query observes
        (see :func:`repro.runtime.fire`).  Returns the automaton-slot ->
        store-slot table; handed back as ``slots`` (a rebuild, a restore) it
        re-places the query exactly there.

        A query is checked before anything changes: one that is already
        registered, or whose canonical keys declare guards other than the
        index holds for them, raises ``ValueError`` and leaves the index
        (and the store's slot counter) as it was.

        Cost: O(|P_q|) for the entry construction and interning, plus the
        rebuild of each group (and threshold family) an entry joins and a
        list copy of each bucket it lands in — not of the whole relation.
        """
        key = id(owner)
        if key in self._by_owner:
            raise ValueError(f"owner {owner!r} is already registered in the merged index")
        member = _Member(key, owner if store is None else store, index)
        store_id = id(member.store)
        sharers = self._store_users.get(store_id, 0)
        # The store's first query, while alone, has no classes: the ones its
        # leaf states become are made here and committed with this query.
        first = formed = None
        if sharers:  # a shared store: leaf states are classes
            first = self._alone.get(store_id)
            if first is not None:
                formed = self._classes_of(first)
            leaves = index.leaf_states()
        else:  # alone: no classes until a second query arrives
            leaves = {}
        classes = self._classes
        joined: Dict[Hashable, Tup[int, _StateClass]] = {}  # class key -> (leaf state id, class)
        for state_id, class_key in leaves.items():
            if class_key not in joined:  # else a twin state of this automaton: private
                cls = formed.get(class_key) if formed is not None else classes.get((store_id, class_key))
                joined[class_key] = (state_id, _StateClass(class_key) if cls is None else cls)
        joined = dict(joined.values())  # leaf state id -> its class (new ones have no users)
        # A store numbering the automaton's slots as the automaton does (a
        # fresh store) keeps the compiled probes/consumers.
        renumbered = False
        if store is not None:
            table = list(slots) if slots is not None else [None] * len(index.slots)
            for state_id, cls in joined.items():
                # A class another query brought: read its slots.
                for (slot, _), placed in zip(index.consumers_by_id(state_id), cls.slots):
                    table[slot] = placed
            next_slot = store.next_slot
            for slot, placed in enumerate(table):
                if placed is None:
                    table[slot] = placed = next_slot
                    next_slot += 1
                if placed != slot:
                    renumbered = True
        # The entries this query brings to the plans — objects nothing else
        # holds until the registration is committed.
        users: Dict[int, List[int]] = {state_id: [] for state_id in joined}
        readers: Dict[int, Tup[Tup[int, object], ...]] = {}  # state id -> placed (slot, left key)
        added: List[MergedEntry] = []
        interned = self._pred_keys
        next_index = self._next_index
        for compiled in index.all_transitions():
            cls = joined.get(compiled.target_id) if joined else None
            if cls is not None:
                users[compiled.target_id].append(compiled.index)
                if cls.users:
                    continue  # already in the plans, for every user of the class
            scan = compiled.scan
            if renumbered:
                probes = tuple([(table[slot], right) for slot, right in compiled.probes])
                placed = readers.get(compiled.target_id)
                if placed is None:
                    placed = readers[compiled.target_id] = tuple(
                        [(table[slot], left) for slot, left in compiled.consumers]
                    )
                if scan is not None and scan[1] >= 0:
                    scan = (scan[0], table[scan[1]])
            else:
                probes = compiled.probes
                placed = compiled.consumers
            # Interning is the check: a canonical key declares one guard.
            held = interned.get(compiled.pred_key)
            if held is None:
                pred_id = self._new_pred(compiled.pred_key, compiled.guard)
            elif held[2] != compiled.guard:
                self._refuse(added, compiled.pred_key, held[2], compiled.guard)
            else:
                held[1] += 1
                pred_id = held[0]
            # A leaf state is never final: a class entry has no handle.
            entry = MergedEntry(
                member.store, owner if cls is None else None, compiled, pred_id, next_index, since,
                probes, placed, scan,
            )  # fmt: skip
            next_index += 1
            if cls is None:
                member.entries.append(entry)
            else:
                if not cls.entries:
                    cls.slots = tuple([slot for slot, _ in placed])
                cls.entries.append(entry)
            added.append(entry)
        # Checked: from here on the registration is committed.
        self._store_users[store_id] = sharers + 1
        if not sharers:
            self._alone[store_id] = member
        elif formed is not None:
            del self._alone[store_id]
            self._form_classes(first, formed)
        for state_id, cls in joined.items():
            if not cls.users:
                classes[(store_id, cls.key)] = cls
            cls.users[key] = users[state_id]
        member.classes = list(joined.values())
        if store is not None:
            store.next_slot = next_slot
        self._next_index = next_index
        self._by_owner[key] = member
        self._size += len(index)
        self._patch(added, ())
        self.patched_adds += 1
        return tuple(table) if store is not None else tuple(range(len(index.slots)))

    def _classes_of(self, member: _Member) -> Dict[Hashable, _StateClass]:
        """The classes a store's first query's leaf states become — those
        :meth:`add_query` would have made had another query been there — by
        class key, holding the query's entries for them; nothing is changed
        until :meth:`_form_classes` commits them."""
        formed: Dict[Hashable, _StateClass] = {}
        by_state: Dict[int, _StateClass] = {}
        for state_id, class_key in member.index.leaf_states().items():
            if class_key not in formed:  # else a twin: private
                cls = formed[class_key] = by_state[state_id] = _StateClass(class_key)
                cls.users[member.key] = []
        for entry in member.entries:
            cls = by_state.get(entry.compiled.target_id)
            if cls is not None:
                if not cls.entries:
                    cls.slots = tuple([slot for slot, _ in entry.consumers])
                cls.entries.append(entry)
                cls.users[member.key].append(entry.compiled.index)
        return formed

    def _form_classes(self, member: _Member, formed: Dict[Hashable, _StateClass]) -> None:
        """Move a store's first query's entries into the classes
        :meth:`_classes_of` made for it: its plans stay as they are."""
        store_id = id(member.store)
        moved = set()
        for cls in formed.values():
            self._classes[(store_id, cls.key)] = cls
            for entry in cls.entries:
                entry.handle = None
                moved.add(id(entry))
        if moved:
            member.entries = [entry for entry in member.entries if id(entry) not in moved]
        member.classes = list(formed.values())

    def remove_query(self, owner: object) -> None:
        """Remove one query's transitions, re-planning only what they left.

        Its private entries go, and so do those of every class it was the
        last user of; each leaves its group (no tombstone: no per-tuple
        lookup ever scans residue of an unregistered query) and the
        interned-key reference counts are released so unused canonical keys
        disappear from the tables.  What the query stored is not touched: it
        expires with its window.
        """
        key = id(owner)
        member = self._by_owner.pop(key, None)
        if member is None:
            raise KeyError(f"owner {owner!r} is not registered in the merged index")
        store_id = id(member.store)
        if self._alone.get(store_id) is member:
            del self._alone[store_id]
        sharers = self._store_users.pop(store_id) - 1
        if sharers:
            self._store_users[store_id] = sharers
        self._size -= len(member.index)
        removed = member.entries
        for cls in member.classes:
            del cls.users[key]
            if not cls.users:
                del self._classes[(id(member.store), cls.key)]
                removed = removed + cls.entries
        for entry in removed:
            self._release_pred(entry.compiled.pred_key)
        self._patch((), removed)
        self.patched_removes += 1

    def _patch(self, added: Sequence[MergedEntry], removed: Sequence[MergedEntry]) -> None:
        """Move entries into (out of) the cells they land in and republish the
        plans of each relation that changed."""
        # relation (``None``: the wildcards) -> interned predicate id ->
        # (entries in, entries out).  A predicate id has one guard (the
        # registration checks it), so each group lies in one cell: its guard's.
        changes: Dict[Optional[str], Dict[int, Tup[List[MergedEntry], List[MergedEntry]]]] = {}
        for side, entries in ((0, added), (1, removed)):
            for entry in entries:
                relations = entry.compiled.relations
                for relation in (None,) if relations is None else relations:
                    _file(changes, relation, entry, side)
        wild = changes.pop(None, None)
        specific = self._specific
        for relation, by_pred in changes.items():
            count = specific.get(relation, 0)
            for plus, minus in by_pred.values():
                count += len(plus) - len(minus)
            specific[relation] = count
        cells = self._cells
        if wild is not None:
            # Wildcards are merged into every relation's plans: the one
            # global patch.
            if self._wildcards is None:
                self._wildcards = PlanCell()
            self._wildcards.patch(wild)
            self.wildcard_plan = self._wildcards.plan
            for relation in cells:
                for change in wild.values():
                    for side, entries in enumerate(change):
                        for entry in entries:
                            _file(changes, relation, entry, side)
        for relation, by_pred in changes.items():
            if not specific[relation]:
                del specific[relation]
                cells.pop(relation, None)
                self.plans.pop(relation, None)
                self.guarded.pop(relation, None)
                continue
            relation_cells = cells.get(relation)
            if relation_cells is None:  # a new relation: every wildcard is a candidate
                relation_cells = cells[relation] = {}
                if self._wildcards is not None:
                    for group in self._wildcards.groups.values():
                        for entry in group.members:
                            _file(changes, relation, entry, 0)
            by_guard: Dict[Hashable, Dict[int, Tup[List, List]]] = {}
            for pred_id, change in by_pred.items():
                guard = (change[0] or change[1])[0].guard
                by_guard.setdefault(guard, {})[pred_id] = change
            for guard, cell_changes in by_guard.items():
                cell = relation_cells.get(guard)
                if cell is None:
                    cell = relation_cells[guard] = PlanCell()
                cell.patch(cell_changes)
                if not cell.total:
                    del relation_cells[guard]
            unguarded = relation_cells.get(None)
            if unguarded is not None and len(relation_cells) == 1:
                self.plans[relation] = unguarded.plan
                self.guarded.pop(relation, None)
            else:
                self._publish_guarded(relation, relation_cells, unguarded)

    def _publish_guarded(self, relation: str, cells: Dict[Hashable, PlanCell], unguarded) -> None:
        """Store a guarded relation's plans from its cells: the per-guard-value
        refinement, and the whole relation's plan as the cells' plans side by
        side (a group lies in one cell, and so do a family's groups, which
        share a base)."""
        groups: List[EvalGroup] = []
        families: Tup = ()
        total = 0
        by_position: Dict[int, Dict[Hashable, EvalPlan]] = {}
        for guard, cell in cells.items():
            plan = cell.plan
            groups += plan.groups
            families += plan.families
            total += plan.total
            if guard is not None:
                by_position.setdefault(guard[0], {})[guard[1]] = plan
        self.plans[relation] = EvalPlan(groups, total, families)
        self.guarded[relation] = (
            _EMPTY_PLAN if unguarded is None else unguarded.plan,
            tuple(sorted(by_position.items())),
        )

    # ----------------------------------------------------------------- lookups
    def plan_for(self, tup) -> EvalPlan:
        """The plan a tuple is evaluated against (never ``None``).

        Guarded members whose value differs from the tuple's are left out —
        their predicate is necessarily false (guards at positions beyond the
        tuple's arity cannot hold either).
        """
        entry = self.guarded.get(tup.relation)
        if entry is None:
            return self.plans.get(tup.relation, self.wildcard_plan)
        unguarded, positions = entry
        groups = unguarded.groups
        families = unguarded.families
        total = unguarded.total
        arity = tup.arity
        for position, by_value in positions:
            if position < arity:
                matched = by_value.get(tup.value(position))
                if matched is not None:
                    groups = groups + matched.groups
                    families = families + matched.families
                    total += matched.total
        if total == unguarded.total:
            return unguarded
        return EvalPlan(groups, total, families)

    def watched_relations(self):
        """The relations whose tuples some stored member may accept, or
        ``None`` when a wildcard member may accept a tuple of any relation.

        A live view of the plan table: a tuple of a relation outside it gets
        the empty wildcard plan, so it changes nothing but the position.
        """
        return None if self.wildcard_plan.total else self.plans.keys()

    def candidates_for(self, tup) -> Tup[MergedEntry, ...]:
        """:meth:`plan_for` as a flat tuple in canonical candidate order.

        The view tests and benchmarks read; the engines consume plans.
        """
        return self.plan_for(tup).flat()

    def relation_fanout(self) -> Dict[str, int]:
        """Per-relation candidate counts (``"*"`` = wildcard fallback).

        The fan-out a tuple of each relation scans, identically keyed in
        every engine mode (the per-relation observability gauges).
        """
        fanout = {relation: plan.total for relation, plan in self.plans.items()}
        fanout["*"] = self.wildcard_plan.total
        return fanout

    def all_entries(self) -> Tup[MergedEntry, ...]:
        """Every entry, in candidate iteration order (introspection/tests)."""
        entries = [e for member in self._by_owner.values() for e in member.entries]
        entries.extend(e for cls in self._classes.values() for e in cls.entries)
        entries.sort(key=member_order)
        return tuple(entries)

    # ------------------------------------------------------------ introspection
    def __len__(self) -> int:
        """Registered transitions — counted per query, shared or not."""
        return self._size

    def interned_key_count(self) -> int:
        """Distinct canonical predicate keys currently interned (leak check)."""
        return len(self._pred_keys)

    def signature(self) -> Dict[str, object]:
        """A canonical structural summary for the patch-vs-rebuild invariant.

        Two indexes over the same owner sequence are *behaviourally
        identical* — same candidates in the same order for every possible
        tuple, same predicate groups — iff their signatures are equal.
        The summary tokenises entries as ``(owner rank, transition index)``
        (independent of raw entry ``index`` values, which a patched index
        assigns with gaps) and maps each token to its canonical predicate key
        (independent of interned-id assignment, which a patched index
        recycles).  An entry shared by a class stands for one token per
        user, so the summary does not depend on what is shared either: it is
        the one the same queries give registered stand-alone.  Tests assert
        ``patched.signature() == rebuilt.signature()`` after every mutation.
        The tokens of members with a scan probe or a scanned target
        (:class:`~repro.core.dispatch.CompiledTransition` ``scan``) are listed
        under ``"scan"``, a key only a signature with a scan slot has.
        """
        ranks = {key: rank for rank, key in enumerate(self._by_owner)}
        shared = {
            id(entry): [(ranks[user], indexes[position]) for user, indexes in cls.users.items()]
            for cls in self._classes.values()
            for position, entry in enumerate(cls.entries)
        }

        def stands_for(entry: MergedEntry) -> List[Tup[int, int]]:
            return shared.get(id(entry)) or [(ranks[id(entry.handle)], entry.compiled.index)]

        def tokens(plan) -> Tup[Tup[int, int], ...]:
            return tuple(sorted(token for e in plan.flat() for token in stands_for(e)))

        # Relations in name order: the summary must not depend on the order
        # relations were first patched.
        relations = {relation: tokens(plan) for relation, plan in sorted(self.plans.items())}
        guards = {}
        for relation, (unguarded, positions) in sorted(self.guarded.items()):
            position_sig = []
            for position, by_value in positions:
                buckets = sorted(
                    ((value, tokens(bucket)) for value, bucket in by_value.items()),
                    key=lambda item: repr(item[0]),
                )
                position_sig.append((position, tuple(buckets)))
            guards[relation] = (tokens(unguarded), tuple(position_sig))
        entries = self.all_entries()
        predicates = {token: e.compiled.pred_key for e in entries for token in stands_for(e)}
        # Binary join predicates, so two query sets differing only in a join
        # (same relations, same unary keys) cannot compare equal.
        joins = {
            token: join_signature(e.compiled.joins, e.compiled.probes)
            for e in entries
            for token in stands_for(e)
        }
        # Interning consistency: equal canonical keys must share one dense id
        # (the group-sharing soundness invariant), checked here so the tests'
        # signature comparison also certifies the intern tables.
        for e in entries:
            if self._pred_keys[e.compiled.pred_key][0] != e.pred_key:
                raise AssertionError(
                    "interned predicate id drifted from the canonical-key table"
                )
        signature = {
            "relations": relations,
            "wildcard": tokens(self.wildcard_plan),
            "guards": guards,
            "predicates": predicates,
            "joins": joins,
            "size": self._size,
        }
        scanned = sorted(token for e in entries if e.scan for token in stands_for(e))
        if scanned:
            signature["scan"] = tuple(scanned)
        return signature

    def describe(self) -> Dict[str, float]:
        """Merged-index statistics for CLI ``--stats`` / benchmark reporting.

        ``predicate_groups`` counts distinct canonical predicate keys across
        the plans; ``shared_predicate_groups`` counts the keys used by two or
        more entries (the groups where sharing actually saves evaluations).
        ``mean_candidates`` / ``max_candidates`` report the per-relation
        candidate fan-out a tuple lookup returns.  ``stores`` counts the run
        stores the queries live in, ``state_classes`` the states stored
        across them and ``shared_state_classes`` those serving two or more
        queries (``transitions`` still counts per query, shared or not).
        """
        members = self._by_owner.values()
        sizes = [plan.total for plan in self.plans.values()]
        wildcards = self.wildcard_plan.total
        return {
            "queries": float(len(members)),
            "transitions": float(self._size),
            "predicate_groups": float(len(self._pred_keys)),
            "shared_predicate_groups": float(
                sum(1 for _, count, _ in self._pred_keys.values() if count > 1)
            ),
            "guarded_transitions": float(
                sum(1 for e in self.all_entries() if e.guard is not None)
            ),
            "patched_adds": float(self.patched_adds),
            "patched_removes": float(self.patched_removes),
            "stores": float(len({id(member.store) for member in members})),
            "state_classes": float(
                sum(len(member.index.state_ids) - len(member.classes) for member in members)
                + len(self._classes)
            ),
            "shared_state_classes": float(
                sum(1 for cls in self._classes.values() if len(cls.users) > 1)
            ),
            "relations": float(len(self.plans)),
            "wildcard_transitions": float(wildcards),
            "max_candidates": float(max(sizes, default=wildcards)),
            "mean_candidates": float(sum(sizes) / len(sizes)) if sizes else float(wildcards),
            "guard_values": float(
                sum(len(by_value) for _, positions in self.guarded.values() for _, by_value in positions)
            ),
            # A family's groups share a base, hence a guard: splitting a
            # relation by guard value moves its families whole.
            "threshold_families": float(sum(len(plan.families) for plan in self.plans.values())),
        }

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"MergedDispatchIndex(queries={int(info['queries'])}, "
            f"|Δ|={int(info['transitions'])}, relations={int(info['relations'])}, "
            f"shared_groups={int(info['shared_predicate_groups'])})"
        )
