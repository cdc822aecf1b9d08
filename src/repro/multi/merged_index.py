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
state stays private to its query — a class of one, same mechanism.

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

    __slots__ = ("store", "index", "entries", "classes")

    def __init__(self, store: object, index: TransitionDispatchIndex) -> None:
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
        # Interned canonical predicate keys with reference counts: dense ids
        # are recycled through a free list so the tables shrink back after
        # unregistration and plan grouping keeps hashing small ints.
        self._pred_key_ids: Dict[Hashable, int] = {}
        self._pred_key_counts: Dict[Hashable, int] = {}
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
    def _intern_pred(self, canonical: Hashable) -> int:
        pred_id = self._pred_key_ids.get(canonical)
        if pred_id is None:
            if self._free_pred_ids:
                pred_id = self._free_pred_ids.pop()
            else:
                pred_id = self._next_pred_id
                self._next_pred_id += 1
            self._pred_key_ids[canonical] = pred_id
            self._pred_key_counts[canonical] = 1
        else:
            self._pred_key_counts[canonical] += 1
        return pred_id

    def _release_pred(self, canonical: Hashable) -> None:
        count = self._pred_key_counts[canonical] - 1
        if count:
            self._pred_key_counts[canonical] = count
        else:
            del self._pred_key_counts[canonical]
            self._free_pred_ids.append(self._pred_key_ids.pop(canonical))

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
        slots.  ``since`` is the first stream position the query observes
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
        member = _Member(owner if store is None else store, index)
        joined: Dict[int, _StateClass] = {}  # leaf state id -> its class
        if store is None:
            table: Sequence[Optional[int]] = range(len(index.slots))
        else:
            table = list(slots) if slots is not None else [None] * len(index.slots)
            for state_id, class_key in index.leaf_states().items():
                cls = self._classes.get((id(store), class_key))
                if cls is None:
                    cls = self._classes[(id(store), class_key)] = _StateClass(class_key)
                elif key in cls.users:
                    continue  # a twin state of this automaton: private
                for (slot, _), placed in zip(index.consumers_by_id(state_id), cls.slots):
                    table[slot] = placed
                cls.users[key] = []
                joined[state_id] = cls
            for slot, placed in enumerate(table):
                if placed is None:
                    table[slot] = store.next_slot
                    store.next_slot += 1
            member.classes = list(joined.values())
        readers: Dict[int, Tup[Tup[int, object], ...]] = {}  # state id -> placed (slot, left key)
        touched: set = set()
        added_wildcard = False
        specific = self._specific
        for compiled in index.all_transitions():
            cls = joined.get(compiled.target_id)
            if cls is not None:
                cls.users[key].append(compiled.index)
                if len(cls.users) > 1:
                    continue  # already in the plans, for every user of the class
            entry = MergedEntry(
                member.store, compiled, self._intern_pred(compiled.pred_key), self._next_index
            )
            self._next_index += 1
            if store is not None:
                entry.handle = owner if cls is None else cls
                entry.since = since
                entry.probes = tuple([(table[slot], right) for slot, right in compiled.probes])
                placed = readers.get(compiled.target_id)
                if placed is None:
                    placed = readers[compiled.target_id] = tuple(
                        [(table[slot], left) for slot, left in compiled.consumers]
                    )
                entry.consumers = placed
                # Any id unique to the state within the store: its first slot.
                entry.target_id = placed[0][0] if placed else -1
                if cls is not None:
                    cls.slots = tuple([slot for slot, _ in placed])
            (member.entries if cls is None else cls.entries).append(entry)
            relations = compiled.relations
            if relations is None:
                self._wildcard_entries.append(entry)
                added_wildcard = True
            else:
                for relation in relations:
                    bucket = specific.get(relation)
                    if bucket is None:
                        specific[relation] = [entry]
                    else:
                        bucket.append(entry)
                    touched.add(relation)
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
        return tuple(table)

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
        return len(self._pred_key_ids)

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
            if self._pred_key_ids[e.compiled.pred_key] != e.pred_key:
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
        return {
            "queries": float(len(members)),
            "transitions": float(self._size),
            "predicate_groups": float(len(self._pred_key_counts)),
            "shared_predicate_groups": float(
                sum(1 for count in self._pred_key_counts.values() if count > 1)
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
            **self._layout(),
        }

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"MergedDispatchIndex(queries={int(info['queries'])}, "
            f"|Δ|={int(info['transitions'])}, relations={int(info['relations'])}, "
            f"shared_groups={int(info['shared_predicate_groups'])})"
        )
