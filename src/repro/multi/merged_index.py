"""The merged transition dispatch index shared by all registered queries.

One :class:`~repro.core.dispatch.TransitionDispatchIndex` serves one automaton;
with a million registered patterns the engine would perform a million
candidate lookups per tuple, one per automaton, even though most lookups
return nothing.  :class:`MergedDispatchIndex` unions the per-PCEA candidate
indexes into a single structure keyed by relation name (and, like the
per-automaton index, optionally by constant-guard value), tagging every
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
:meth:`remove_query` mutate only the ``(relation, guard)`` buckets the
query's transitions actually touch, plus the interned-key tables, so a
registration change costs ``O(|P_q| + Σ affected-bucket sizes)`` instead of a
full rebuild over every registered transition — the difference between O(1)
and O(total) registration latency at millions of registered queries.
Specifically:

* per-relation candidate lists are compacted in place on removal (no
  tombstones — a removed query leaves no residue a per-tuple lookup could
  ever scan);
* canonical predicate keys are interned with reference counts; the dense
  integer ids of keys whose last user unregistered are recycled through a
  free list, so the interned-key tables shrink back and plan grouping keeps
  hashing small ints;
* wildcard transitions (rare) are the one global case: adding or removing a
  wildcard-carrying query refreshes every relation bucket, because wildcards
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
mutation.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple as Tup

from repro.core.dispatch import (
    MergedEntry,
    PlanIndex,
    TransitionDispatchIndex,
    member_order,
    join_signature,
    plan_of,
)


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


class MergedDispatchIndex(PlanIndex):
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
        super().__init__()
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
        # count]`` (one hash per lookup: a key can be a deep structure): ids
        # are recycled through a free list so the table shrinks back after
        # unregistration and plan grouping keeps hashing small ints.
        self._pred_keys: Dict[Hashable, List[int]] = {}
        self._free_pred_ids: List[int] = []
        self._next_pred_id = 0
        self._next_index = 0
        self._size = 0
        # Lifetime patch counters (``describe()`` surfaces them; the
        # observability layer additionally times each patch at the engine).
        self.patched_adds = 0
        self.patched_removes = 0
        # Per-relation candidate state: ``_specific`` holds only the entries
        # that name the relation (mutable, order-sorted); the read-optimised
        # plans the per-tuple lookup hits (specific merged with wildcards,
        # plus the constant-guard refinement) are the PlanIndex's.
        self._specific: Dict[str, List[MergedEntry]] = {}
        self._wildcard_entries: List[MergedEntry] = []
        for owner, index in members:
            self.add_query(owner, index)

    # ------------------------------------------------------------ intern table
    def _new_pred(self, canonical: Hashable) -> int:
        """Intern a canonical key the table does not hold (``add_query``
        counts the further users of a held one in place)."""
        if self._free_pred_ids:
            pred_id = self._free_pred_ids.pop()
        else:
            pred_id = self._next_pred_id
            self._next_pred_id += 1
        self._pred_keys[canonical] = [pred_id, 1]
        return pred_id

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
        """Merge one automaton's transitions in, patching only its buckets.

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

        Cost: O(|P_q|) for the entry construction and interning, plus a
        refresh of each relation bucket the query touches (O(bucket size) —
        the read-optimised tuples are rebuilt, never the whole index).
        """
        key = id(owner)
        if key in self._by_owner:
            raise ValueError(f"owner {owner!r} is already registered in the merged index")
        member = _Member(key, owner if store is None else store, index)
        store_id = id(member.store)
        sharers = self._store_users.get(store_id, 0)
        self._store_users[store_id] = sharers + 1
        if sharers:  # a shared store: leaf states are classes
            first = self._alone.pop(store_id, None)
            if first is not None:
                self._form_classes(first)
            leaves = index.leaf_states()
        else:  # alone: no classes until a second query arrives
            self._alone[store_id] = member
            leaves = {}
        joined: Dict[int, _StateClass] = {}  # leaf state id -> its class
        # A store numbering the automaton's slots as the automaton does (a
        # fresh store) keeps the compiled probes/consumers.
        renumbered = False
        if store is not None:
            table = list(slots) if slots is not None else [None] * len(index.slots)
            classes = self._classes
            for state_id, class_key in leaves.items():
                cls = classes.get((store_id, class_key))
                if cls is None:
                    cls = classes[(store_id, class_key)] = _StateClass(class_key)
                elif key in cls.users:
                    continue  # a twin state of this automaton: private
                elif cls.slots:  # a class another query brought: read its slots
                    for (slot, _), placed in zip(index.consumers_by_id(state_id), cls.slots):
                        table[slot] = placed
                cls.users[key] = []
                joined[state_id] = cls
            next_slot = store.next_slot
            for slot, placed in enumerate(table):
                if placed is None:
                    table[slot] = placed = next_slot
                    next_slot += 1
                if placed != slot:
                    renumbered = True
            store.next_slot = next_slot
            member.classes = list(joined.values())
        readers: Dict[int, Tup[Tup[int, object], ...]] = {}  # state id -> placed (slot, left key)
        touched: set = set()
        added_wildcard = False
        specific = self._specific
        interned = self._pred_keys
        next_index = self._next_index
        for compiled in index.all_transitions():
            cls = joined.get(compiled.target_id) if joined else None
            if cls is not None:
                cls.users[key].append(compiled.index)
                if len(cls.users) > 1:
                    continue  # already in the plans, for every user of the class
            if renumbered:
                probes = tuple([(table[slot], right) for slot, right in compiled.probes])
                placed = readers.get(compiled.target_id)
                if placed is None:
                    placed = readers[compiled.target_id] = tuple(
                        [(table[slot], left) for slot, left in compiled.consumers]
                    )
            else:
                probes = compiled.probes
                placed = compiled.consumers
            pred = interned.get(compiled.pred_key)
            if pred is None:
                pred_id = self._new_pred(compiled.pred_key)
            else:
                pred[1] += 1
                pred_id = pred[0]
            if cls is None:
                entry = MergedEntry(
                    member.store, owner, compiled, pred_id, next_index, since, probes, placed
                )
                member.entries.append(entry)
            else:  # a leaf state is never final: no handle
                entry = MergedEntry(
                    member.store, None, compiled, pred_id, next_index, since, probes, placed
                )
                if not cls.entries:
                    cls.slots = tuple([slot for slot, _ in placed])
                cls.entries.append(entry)
            next_index += 1
            relations = compiled.relations
            if relations is None:
                self._wildcard_entries.append(entry)
                added_wildcard = True
            else:
                touched.update(relations)
                for relation in relations:
                    bucket = specific.get(relation)
                    if bucket is None:
                        specific[relation] = [entry]
                    else:
                        bucket.append(entry)
        self._next_index = next_index
        self._by_owner[key] = member
        self._size += len(index)
        if added_wildcard:
            # Wildcards appear in every relation's candidate list, so a
            # wildcard-carrying query is the one global refresh.
            self.wildcard_plan = plan_of(self._wildcard_entries)
            touched = set(specific)
        for relation in touched:
            self._refresh_relation(relation)
        self.patched_adds += 1
        return tuple(table) if store is not None else tuple(range(len(index.slots)))

    def _form_classes(self, member: _Member) -> None:
        """Make the leaf states of a store's first query classes — those
        :meth:`add_query` would have made had another query been there — by
        moving its entries into them, slots and all."""
        store_id = id(member.store)
        joined: Dict[int, _StateClass] = {}
        for state_id, class_key in member.index.leaf_states().items():
            if (store_id, class_key) not in self._classes:  # else a twin: private
                cls = self._classes[(store_id, class_key)] = _StateClass(class_key)
                cls.users[member.key] = []
                joined[state_id] = cls
        if not joined:
            return
        private = []
        for entry in member.entries:
            cls = joined.get(entry.compiled.target_id)
            if cls is None:
                private.append(entry)
                continue
            if not cls.entries:
                cls.slots = tuple([slot for slot, _ in entry.consumers])
            entry.handle = None
            cls.entries.append(entry)
            cls.users[member.key].append(entry.compiled.index)
        member.entries = private
        member.classes = list(joined.values())

    def remove_query(self, owner: object) -> None:
        """Remove one query's transitions, compacting only its buckets.

        Its private entries go, and so do those of every class it was the
        last user of; the affected per-relation lists are rebuilt without
        them (tombstone-free: no per-tuple lookup ever scans residue of an
        unregistered query) and the interned-key reference counts are
        released so unused canonical keys disappear from the tables.  What
        the query stored is not touched: it expires with its window.
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
        gone = set(map(id, removed))
        touched: set = set()
        removed_wildcard = False
        for entry in removed:
            self._release_pred(entry.compiled.pred_key)
            relations = entry.compiled.relations
            if relations is None:
                removed_wildcard = True
            else:
                touched.update(relations)
        if removed_wildcard:
            self._wildcard_entries = [e for e in self._wildcard_entries if id(e) not in gone]
            self.wildcard_plan = plan_of(self._wildcard_entries)
            touched = set(self._specific)
        for relation in touched:
            bucket = self._specific.get(relation)
            if bucket is not None:
                kept = [e for e in bucket if id(e) not in gone]
                if kept:
                    self._specific[relation] = kept
                else:
                    del self._specific[relation]
            self._refresh_relation(relation)
        self.patched_removes += 1

    def _refresh_relation(self, relation: str) -> None:
        """Rebuild one relation's plan + guard buckets."""
        bucket = self._specific.get(relation)
        if bucket is None:
            # No specific candidates left: unknown-relation fallback (the
            # wildcard plan) already covers it.
            self._drop_relation(relation)
        elif self._wildcard_entries:
            self._store_relation(
                relation, sorted(bucket + self._wildcard_entries, key=member_order)
            )
        else:
            self._store_relation(relation, bucket)

    # ----------------------------------------------------------------- lookups
    # (plan_for / candidates_for come from PlanIndex.)
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

        relations = {relation: tokens(plan) for relation, plan in self.plans.items()}
        guards = {}
        for relation, (unguarded, positions) in self.guarded.items():
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
        # (same relations, same unary keys) cannot verify as equal — the
        # snapshot protocol relies on this.
        joins = {token: join_signature(e.compiled) for e in entries for token in stands_for(e)}
        # Interning consistency: equal canonical keys must share one dense id
        # (the group-sharing soundness invariant), checked here so the tests'
        # signature comparison also certifies the intern tables.
        for e in entries:
            if self._pred_keys[e.compiled.pred_key][0] != e.pred_key:
                raise AssertionError(
                    "interned predicate id drifted from the canonical-key table"
                )
        return {
            "relations": relations,
            "wildcard": tokens(self.wildcard_plan),
            "guards": guards,
            "predicates": predicates,
            "joins": joins,
            "size": self._size,
        }

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
                sum(1 for _, count in self._pred_keys.values() if count > 1)
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
