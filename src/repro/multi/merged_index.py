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

Entry iteration order is preserved across patching: ``order`` values are
assigned from a monotonic counter, so candidates always iterate in
registration order then transition order — exactly the order a from-scratch
rebuild over the surviving queries produces.  :meth:`signature` exposes a
canonical structural summary (independent of raw order values and interned-id
assignment) that the tests compare against a from-scratch rebuild after every
mutation.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple as Tup

from repro.core.dispatch import (
    MergedEntry,
    PlanIndex,
    TransitionDispatchIndex,
    member_order,
    join_signature,
    plan_of,
)


class MergedDispatchIndex(PlanIndex):
    """The union of several per-automaton dispatch indexes.

    Parameters
    ----------
    members:
        ``(owner, dispatch index)`` pairs in registration order.  The owner
        object is attached to every entry produced from that index so the
        engine can route fired transitions to the right query lane; it is
        also the handle :meth:`remove_query` identifies the member by.
    guards:
        As for :class:`~repro.core.dispatch.TransitionDispatchIndex`: with
        ``True``, guarded candidates are additionally bucketed by their
        constant-guard value and pruned by value before ``unary.holds`` runs.
    """

    def __init__(
        self,
        members: Sequence[Tup[object, TransitionDispatchIndex]] = (),
        guards: bool = True,
    ) -> None:
        super().__init__(guards)
        # Owner bookkeeping: id(owner) -> owner / its entries, in registration
        # order (dict insertion order is the canonical query order).
        self._owners: Dict[int, object] = {}
        self._by_owner: Dict[int, Tup[MergedEntry, ...]] = {}
        # Interned canonical predicate keys with reference counts: dense ids
        # are recycled through a free list so the tables shrink back after
        # unregistration and plan grouping keeps hashing small ints.
        self._pred_key_ids: Dict[Hashable, int] = {}
        self._pred_key_counts: Dict[Hashable, int] = {}
        self._free_pred_ids: List[int] = []
        self._next_pred_id = 0
        self._next_order = 0
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
        # The engine's adaptive state, when it opted in: every per-relation
        # refresh notifies it so learned plans are re-derived for exactly the
        # relations a patch touched (the PR 4 localized-rewrite contract).
        self.adaptive_listener = None
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
    def add_query(self, owner: object, index: TransitionDispatchIndex) -> None:
        """Merge one automaton's transitions in, patching only its buckets.

        Cost: O(|P_q|) for the entry construction and interning, plus a
        refresh of each relation bucket the query touches (O(bucket size) —
        the read-optimised tuples are rebuilt, never the whole index).
        """
        key = id(owner)
        if key in self._by_owner:
            raise ValueError(f"owner {owner!r} is already registered in the merged index")
        entries: List[MergedEntry] = []
        touched: set = set()
        added_wildcard = False
        specific = self._specific
        for compiled in index.all_transitions():
            entry = MergedEntry(
                owner, compiled, self._intern_pred(compiled.pred_key), self._next_order
            )
            self._next_order += 1
            entries.append(entry)
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
        self._owners[key] = owner
        self._by_owner[key] = tuple(entries)
        self._size += len(entries)
        if added_wildcard:
            # Wildcards appear in every relation's candidate list, so a
            # wildcard-carrying query is the one global refresh.
            self.wildcard_plan = plan_of(self._wildcard_entries)
            touched = set(specific)
        for relation in touched:
            self._refresh_relation(relation)
        self.patched_adds += 1

    def remove_query(self, owner: object) -> None:
        """Remove one query's transitions, compacting only its buckets.

        The affected per-relation lists are rebuilt without the removed
        entries (tombstone-free: no per-tuple lookup ever scans residue of an
        unregistered query) and the interned-key reference counts are
        released so unused canonical keys disappear from the tables.
        """
        key = id(owner)
        entries = self._by_owner.pop(key, None)
        if entries is None:
            raise KeyError(f"owner {owner!r} is not registered in the merged index")
        del self._owners[key]
        self._size -= len(entries)
        touched: set = set()
        removed_wildcard = False
        for entry in entries:
            self._release_pred(entry.compiled.pred_key)
            relations = entry.compiled.relations
            if relations is None:
                removed_wildcard = True
            else:
                touched.update(relations)
        if removed_wildcard:
            self._wildcard_entries = [
                e for e in self._wildcard_entries if e.owner is not owner
            ]
            self.wildcard_plan = plan_of(self._wildcard_entries)
            touched = set(self._specific)
        for relation in touched:
            bucket = self._specific.get(relation)
            if bucket is not None:
                kept = [e for e in bucket if e.owner is not owner]
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
        listener = self.adaptive_listener
        if listener is not None:
            listener.rebuild_relation(relation)

    # ----------------------------------------------------------------- lookups
    # (plan_for / candidates_for / build_adaptive come from PlanIndex; the
    # caller wires a built AdaptiveState into ``adaptive_listener`` so
    # structural patches keep its plans fresh.)
    def all_entries(self) -> Tup[MergedEntry, ...]:
        """Every entry, in candidate iteration order (introspection/tests)."""
        entries = [e for per_owner in self._by_owner.values() for e in per_owner]
        entries.sort(key=member_order)
        return tuple(entries)

    # ------------------------------------------------------------ introspection
    def __len__(self) -> int:
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
        (independent of raw ``order`` values, which a patched index assigns
        with gaps) and maps each token to its canonical predicate key
        (independent of interned-id assignment, which a patched index
        recycles).  Tests assert ``patched.signature() ==
        rebuilt.signature()`` after every mutation.
        """
        ranks = {key: rank for rank, key in enumerate(self._owners)}

        def token(entry: MergedEntry) -> Tup[int, int]:
            return (ranks[id(entry.owner)], entry.compiled.index)

        def tokens(plan) -> Tup[Tup[int, int], ...]:
            return tuple(token(e) for e in plan.flat())

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
        predicates = {
            token(e): e.compiled.pred_key
            for per_owner in self._by_owner.values()
            for e in per_owner
        }
        # Binary join predicates, so two query sets differing only in a join
        # (same relations, same unary keys) cannot verify as equal — the
        # snapshot protocol relies on this.
        joins = {
            token(e): join_signature(e.compiled)
            for per_owner in self._by_owner.values()
            for e in per_owner
        }
        # Interning consistency: equal canonical keys must share one dense id
        # (the group-sharing soundness invariant), checked here so the tests'
        # signature comparison also certifies the intern tables.
        for per_owner in self._by_owner.values():
            for e in per_owner:
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
        all registered transitions; ``shared_predicate_groups`` counts the
        keys used by two or more transitions (the groups where sharing
        actually saves evaluations).  ``mean_candidates`` / ``max_candidates``
        report the per-relation candidate fan-out a tuple lookup returns.
        """
        guarded = sum(
            1
            for per_owner in self._by_owner.values()
            for e in per_owner
            if e.guard is not None
        )
        return {
            "queries": float(len(self._owners)),
            "transitions": float(self._size),
            "predicate_groups": float(len(self._pred_key_counts)),
            "shared_predicate_groups": float(
                sum(1 for count in self._pred_key_counts.values() if count > 1)
            ),
            "guarded_transitions": float(guarded if self.guards else 0),
            "patched_adds": float(self.patched_adds),
            "patched_removes": float(self.patched_removes),
            **self._layout(),
        }

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"MergedDispatchIndex(queries={int(info['queries'])}, "
            f"|Δ|={int(info['transitions'])}, relations={int(info['relations'])}, "
            f"shared_groups={int(info['shared_predicate_groups'])})"
        )
