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
equal keys accept exactly the same tuples, so the engine evaluates one
representative per key per tuple and shares the verdict — the *shared
unary-predicate memoisation* that makes per-tuple cost scale with the number
of distinct predicates instead of the number of registered queries.

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
  free list, so the interned-key tables shrink back and the per-tuple
  memoisation cache keeps hashing small ints;
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

from typing import Dict, Hashable, List, Optional, Sequence, Tuple as Tup

from repro.core.dispatch import (
    CompiledTransition,
    TransitionDispatchIndex,
    build_guard_buckets,
    join_signature,
    probe_guard_buckets,
)


class MergedEntry:
    """One candidate transition of the merged index, tagged with its owner.

    ``owner`` is whatever the engine registered the member index under (the
    per-query lane); ``pred_key`` is the *interned* canonical key of the
    transition's unary predicate — a dense integer id shared across queries
    with structurally identical predicates, so the per-tuple memoisation cache
    hashes a plain int instead of a nested canonical-key tuple; ``order``
    fixes the global iteration order (registration order, then transition
    order within a query).
    """

    __slots__ = ("owner", "compiled", "accepts", "pred_key", "guard", "order", "hits")

    def __init__(
        self, owner: object, compiled: CompiledTransition, pred_key: int, order: int
    ) -> None:
        self.owner = owner
        self.compiled = compiled
        self.accepts = compiled.accepts
        self.pred_key = pred_key
        self.guard: Optional[Tup[int, object]] = compiled.guard
        self.order = order
        # Adaptive-dispatch hit counter (repro.core.adaptive): bumped when
        # this entry leads a predicate group whose unary held, halved at
        # every flush.  Feedback only — excluded from signature().
        self.hits = 0

    def __repr__(self) -> str:
        return f"MergedEntry(owner={self.owner!r}, {self.compiled!r})"


def _entry_order(entry: MergedEntry) -> int:
    return entry.order


class MergedDispatchIndex:
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
        self.guards = guards
        # Owner bookkeeping: id(owner) -> owner / its entries, in registration
        # order (dict insertion order is the canonical query order).
        self._owners: Dict[int, object] = {}
        self._by_owner: Dict[int, Tup[MergedEntry, ...]] = {}
        # Interned canonical predicate keys with reference counts: dense ids
        # are recycled through a free list so the tables shrink back after
        # unregistration and the memo cache keeps hashing small ints.
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
        # that name the relation (mutable, order-sorted); ``_by_relation`` is
        # the read-optimised tuple the per-tuple lookup hits (specific merged
        # with wildcards); ``_guarded`` the constant-guard refinement.
        self._specific: Dict[str, List[MergedEntry]] = {}
        self._wildcard_entries: List[MergedEntry] = []
        self._wildcard: Tup[MergedEntry, ...] = ()
        self._by_relation: Dict[str, Tup[MergedEntry, ...]] = {}
        self._guarded: Dict[
            str,
            Tup[
                Tup[MergedEntry, ...],
                Tup[Tup[int, Dict[Hashable, Tup[MergedEntry, ...]]], ...],
            ],
        ] = {}
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
            self._wildcard = tuple(self._wildcard_entries)
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
            self._wildcard = tuple(self._wildcard_entries)
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
        """Rebuild one relation's read-optimised candidate tuple + guard buckets."""
        bucket = self._specific.get(relation)
        if bucket is None:
            # No specific candidates left: unknown-relation fallback (the
            # wildcard list) already covers it.
            self._by_relation.pop(relation, None)
            self._guarded.pop(relation, None)
        else:
            if self._wildcard_entries:
                members: Tup[MergedEntry, ...] = tuple(
                    sorted(bucket + self._wildcard_entries, key=_entry_order)
                )
            else:
                members = tuple(bucket)
            self._by_relation[relation] = members
            if self.guards:
                guard_buckets = build_guard_buckets(members)
                if guard_buckets is None:
                    self._guarded.pop(relation, None)
                else:
                    self._guarded[relation] = guard_buckets
        listener = self.adaptive_listener
        if listener is not None:
            listener.rebuild_relation(relation)

    # ----------------------------------------------------------------- lookups
    def candidates_for(self, tup) -> Sequence[MergedEntry]:
        """All registered queries' candidate transitions for one tuple."""
        entry = self._guarded.get(tup.relation)
        if entry is None:
            return self._by_relation.get(tup.relation, self._wildcard)
        return probe_guard_buckets(entry, tup, _entry_order)

    def all_entries(self) -> Tup[MergedEntry, ...]:
        """Every entry, in candidate iteration order (introspection/tests)."""
        entries = [e for per_owner in self._by_owner.values() for e in per_owner]
        entries.sort(key=_entry_order)
        return tuple(entries)

    def build_adaptive(self, config=None):
        """An engine-owned :class:`~repro.core.adaptive.AdaptiveState` over
        this index.

        The caller is responsible for wiring the returned state into
        ``adaptive_listener`` so structural patches keep its plans fresh.
        """
        from repro.core.adaptive import AdaptiveState

        return AdaptiveState(self, _entry_order, config)

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
        tuple, same memoisation sharing — iff their signatures are equal.
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

        relations = {
            relation: tuple(token(e) for e in members)
            for relation, members in self._by_relation.items()
        }
        guards = {}
        for relation, (unguarded, groups) in self._guarded.items():
            group_sig = []
            for position, by_value in groups:
                buckets = sorted(
                    ((value, tuple(token(e) for e in bucket)) for value, bucket in by_value.items()),
                    key=lambda item: repr(item[0]),
                )
                group_sig.append((position, tuple(buckets)))
            guards[relation] = (tuple(token(e) for e in unguarded), tuple(group_sig))
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
        # (the memoisation soundness invariant), checked here so the tests'
        # signature comparison also certifies the intern tables.
        for per_owner in self._by_owner.values():
            for e in per_owner:
                if self._pred_key_ids[e.compiled.pred_key] != e.pred_key:
                    raise AssertionError(
                        "interned predicate id drifted from the canonical-key table"
                    )
        return {
            "relations": relations,
            "wildcard": tuple(token(e) for e in self._wildcard),
            "guards": guards,
            "predicates": predicates,
            "joins": joins,
            "size": self._size,
        }

    def describe(self) -> Dict[str, float]:
        """Merged-index statistics for CLI ``--stats`` / benchmark reporting.

        ``predicate_groups`` counts distinct canonical predicate keys across
        all registered transitions; ``shared_predicate_groups`` counts the
        keys used by two or more transitions (the groups where memoisation
        actually saves evaluations).  ``mean_candidates`` / ``max_candidates``
        report the per-relation candidate fan-out a tuple lookup returns.
        """
        sizes = [len(members) for members in self._by_relation.values()]
        guarded = sum(
            1
            for per_owner in self._by_owner.values()
            for e in per_owner
            if e.guard is not None
        )
        guard_values = sum(
            len(by_value)
            for _, groups in self._guarded.values()
            for _, by_value in groups
        )
        return {
            "queries": float(len(self._owners)),
            "transitions": float(self._size),
            "relations": float(len(self._by_relation)),
            "wildcard_transitions": float(len(self._wildcard)),
            "max_candidates": float(max(sizes, default=len(self._wildcard))),
            "mean_candidates": (
                float(sum(sizes) / len(sizes)) if sizes else float(len(self._wildcard))
            ),
            "predicate_groups": float(len(self._pred_key_counts)),
            "shared_predicate_groups": float(
                sum(1 for count in self._pred_key_counts.values() if count > 1)
            ),
            "guarded_transitions": float(guarded if self.guards else 0),
            "guard_values": float(guard_values),
            "patched_adds": float(self.patched_adds),
            "patched_removes": float(self.patched_removes),
        }

    def relation_fanout(self) -> Dict[str, int]:
        """Per-relation candidate-list sizes (``"*"`` = wildcard fallback).

        Key-compatible with ``TransitionDispatchIndex.relation_fanout`` so
        the per-relation observability gauges mean the same thing in every
        engine mode.
        """
        fanout = {
            relation: len(members) for relation, members in self._by_relation.items()
        }
        fanout["*"] = len(self._wildcard)
        return fanout

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"MergedDispatchIndex(queries={int(info['queries'])}, "
            f"|Δ|={int(info['transitions'])}, relations={int(info['relations'])}, "
            f"shared_groups={int(info['shared_predicate_groups'])})"
        )
