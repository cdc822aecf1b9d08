"""Multi-query streaming: shared dispatch, shared predicate groups, one pass.

The paper's Theorem 5.1 bounds the per-tuple update cost of *one* unambiguous
PCEA ``P`` at ``O(|P|·|t| + |P|·log|P| + |P|·log w)``.  Running ``N``
registered queries as ``N`` independent
:class:`~repro.core.evaluation.StreamingEvaluator` instances multiplies the
whole bound — including its constant-factor Python overhead — by ``N``: every
tuple is re-dispatched ``N`` times and structurally identical unary predicates
are re-evaluated once per query that uses them.

This package evaluates all registered queries in **one pass per tuple** —
one run-index hash table and one enumeration structure ``DS_w`` per sliding
window, what queries have in common stored once — with per-query outputs
exactly those of an independent evaluator:

* :class:`~repro.multi.registry.QueryRegistry` — the front end: dynamic
  ``register(query, window) -> QueryHandle`` / ``unregister(handle)`` for
  PCEA, DSL patterns, conjunctive queries, or query strings;
* :class:`~repro.multi.merged_index.MergedDispatchIndex` — the union of the
  per-PCEA transition dispatch indexes, keyed by relation name and constant
  guard, with every candidate tagged by its owning query and pre-grouped by
  canonical predicate key
  (:meth:`~repro.core.predicates.UnaryPredicate.canonical_key`);
* :class:`~repro.multi.engine.MultiQueryEngine` — the K-query facade over the
  one fire loop (:func:`repro.runtime.fire`): one merged dispatch lookup,
  one unary-predicate evaluation per predicate group, one run store per
  window (an :class:`~repro.runtime.EvictionLane` of the same
  :class:`~repro.runtime.StreamRuntime` the single-query evaluator runs
  with its one lane) in which a leaf state several queries share is written
  once, one shared eviction sweep, and a batched
  :meth:`~repro.multi.engine.MultiQueryEngine.process_many` front end.

Cost model relative to Theorem 5.1: the per-tuple cost of the shared engine
is ``O(C(t) + Σ_q fired_q)`` where ``C(t)`` is the number of *distinct*
candidate predicate groups for the tuple — not ``Σ_q |P_q|``.  When queries
overlap (the production scenario: millions of users registering variations of
common patterns), ``C(t)`` grows with the number of distinct predicates, so
the per-query marginal cost falls toward the cost of the work that is truly
private to the query: the joins that close its runs, their node
allocations, and output enumeration — each still within the per-query Theorem 5.1 bound.  When
queries share nothing, the merged engine degrades gracefully to the
independent bound plus one dict lookup.

Registration is dynamic: a query registered at stream position ``p`` observes
tuples from ``p`` on (its valuations carry global positions), and
unregistration stops its outputs at once and lets what it stored expire
with its window.  Registration changes
patch the merged index **incrementally** — only the affected
``(relation, guard)`` buckets and interned-key tables are touched, with
tombstone-free compaction on unregister — so register/unregister latency is
O(|P_q|)-ish and independent of the registry size (≥500× faster than a full
rebuild at 1024 registered queries — CHANGES.md, "Retired results").
"""

from repro.core.dispatch import MergedEntry
from repro.multi.engine import MultiQueryEngine
from repro.multi.merged_index import MergedDispatchIndex
from repro.multi.registry import (
    QueryHandle,
    QueryRegistry,
    QuerySpec,
    RegisteredQuery,
    compile_query,
)

__all__ = [
    "MultiQueryEngine",
    "MergedDispatchIndex",
    "MergedEntry",
    "QueryHandle",
    "QueryRegistry",
    "QuerySpec",
    "RegisteredQuery",
    "compile_query",
]
