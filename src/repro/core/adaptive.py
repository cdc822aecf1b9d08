"""Adaptive selectivity-driven dispatch (ROADMAP item 3).

The dispatch indexes store every relation's candidates as a standing
:class:`~repro.core.dispatch.EvalPlan` in canonical order; this module
closes the feedback loop.  An engine that opts in owns one
:class:`AdaptiveState` built over its dispatch index and asks *it* for
each tuple's plan: the state answers with a reordered or promoted plan
where it has learned one, and with the index's standing plan everywhere
else.

What adaptation can and cannot do
---------------------------------
Everything here is a **pure evaluation-order optimisation**.  A learned
plan contains exactly the groups of the standing plan for the same
tuple; the fire loop (:func:`repro.runtime.fire`) applies the fired
effects in canonical candidate order whatever order the groups were
evaluated in, so node ids, match output and operation counters are
bit-identical to static dispatch.  Runtime observations steer *which
sound structure is used when*; an observed verdict is never generalised
into pruning — only declared ``constant_guard()`` structure may prune,
exactly as in the index's guard buckets.

The two mechanisms:

* **Reordering** — relations where several candidates share a predicate
  key are tracked; at each flush the groups of their plan are re-sorted
  most-selective-first (fewest observed hits first, canonical order as
  the tie-break).  Order never changes what fires, only the scan order.
* **Hot-guard promotion** — for relations with constant-guard buckets,
  the standing path counts observed guard values; when a value's share
  of the traffic concentrates past ``promote_threshold`` the flush
  builds that value's plan once (unguarded groups + the value's bucket).
  Promoted values skip the per-tuple bucket probe and concatenation and
  are reordered like any tracked plan; values that go cold are demoted,
  which is what tracks mid-stream drift.

Cost model
----------
The per-tuple path gains one dict probe plus at most one counter
increment: ``plan.probes`` on a learned plan, one ``value_counts``
bump on a tracked guarded relation's standing path.  Per-group hit
counters ride on the ``hits`` slot of the group's first member
(:class:`CompiledTransition` / :class:`MergedEntry`) and are only
touched when a group actually holds.  Counters saturate by decay: every flush halves them, so they
stay bounded by a couple of flush intervals (an explicit cap is applied
at flush as a backstop).  Flushes run on the eviction-sweep cadence —
the steady-state sweep pays one integer compare, mirroring the slab
release pass.

Snapshot policy
---------------
Learned state is **deterministically reset on restore** (plans back to
canonical order, all promotions dropped, counters cleared).  This is
observable only through the adaptive activity counters: plans never
change outputs or operation counts,
so a restored engine's matches and ``EngineStatistics`` are
bit-identical to an uninterrupted run — and snapshots stay fully
interchangeable between adaptive and static engines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple as Tup

from repro.core.dispatch import EvalGroup, EvalPlan

__all__ = [
    "AdaptiveConfig",
    "AdaptiveState",
    "DEFAULT_ADAPTIVE_CONFIG",
    "resolve_config",
]


class AdaptiveConfig:
    """Tuning knobs for the feedback loop.

    ``interval``
        Stream positions between counter flushes (reorder + promotion
        passes).  Checked by the runtime sweep, so one flush costs one
        integer compare per position in steady state.
    ``min_probes``
        Observations a relation must accumulate before its counters are
        acted on (and decayed) — keeps cold relations from thrashing.
    ``promote_threshold``
        Fraction of a guarded relation's observed traffic a single
        guard value must reach to be promoted to a standing plan.
    ``max_promoted``
        Cap on simultaneously promoted values per relation.
    ``saturation``
        Hard ceiling applied to hit counters at flush before the decay
        halving (decay alone already bounds them in steady state).
    """

    __slots__ = ("interval", "min_probes", "promote_threshold", "max_promoted", "saturation")

    def __init__(
        self,
        interval: int = 512,
        min_probes: int = 64,
        promote_threshold: float = 0.10,
        max_promoted: int = 8,
        saturation: int = 1 << 20,
    ) -> None:
        if interval < 1:
            raise ValueError("adaptive interval must be >= 1")
        if min_probes < 1:
            raise ValueError("adaptive min_probes must be >= 1")
        if not 0.0 < promote_threshold <= 1.0:
            raise ValueError("adaptive promote_threshold must be in (0, 1]")
        if max_promoted < 0:
            raise ValueError("adaptive max_promoted must be >= 0")
        self.interval = interval
        self.min_probes = min_probes
        self.promote_threshold = promote_threshold
        self.max_promoted = max_promoted
        self.saturation = saturation


DEFAULT_ADAPTIVE_CONFIG = AdaptiveConfig()


def resolve_config(adaptive: Any) -> Optional[AdaptiveConfig]:
    """Map an engine's ``adaptive=`` knob to a config (``None`` = off).

    Accepts ``True``/``False`` or an explicit :class:`AdaptiveConfig`
    (handy in tests that want a short flush interval).
    """
    if isinstance(adaptive, AdaptiveConfig):
        return adaptive
    return DEFAULT_ADAPTIVE_CONFIG if adaptive else None


def _group_rank(group: EvalGroup) -> Tup[int, int]:
    # Most-selective-first: fewest observed hits, canonical order tie-break.
    return (group.rep.hits, group.index)


class _RelationAdapter:
    """Per-relation feedback state.

    Two shapes share the class (one attribute test on the hot path):

    * ``guard_position is None`` — plain tracked relation with one
      reorderable ``plan`` (a private copy of the index's standing plan,
      tracked only when some group has >= 2 members).
    * ``guard_position`` set — guarded relation; ``hot`` maps promoted
      guard values to their plans, ``value_counts`` tallies the
      standing-path traffic the promotion pass ranks.
    """

    __slots__ = (
        "relation",
        "plan",
        "guard_position",
        "by_value",
        "unguarded",
        "hot",
        "value_counts",
        "barren",
        "hopeless",
    )

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.plan: Optional[EvalPlan] = None
        self.guard_position: Optional[int] = None
        self.by_value: Dict[Any, EvalPlan] = {}
        self.unguarded: Optional[EvalPlan] = None
        self.hot: Dict[Any, EvalPlan] = {}
        self.value_counts: Dict[Any, int] = {}
        # Consecutive fruitless promotion passes / the resulting sleep
        # request (see AdaptiveState.flush dormancy handling).
        self.barren = 0
        self.hopeless = False

    # ------------------------------------------------------------- flushing
    def _reorder(self, plan: EvalPlan, reps: Dict[int, Any]) -> int:
        groups = plan.groups
        changed = 0
        if len(groups) > 1:
            before = list(groups)
            groups.sort(key=_group_rank)
            if groups != before:
                changed = 1
        for group in groups:
            rep = group.rep
            reps[id(rep)] = rep
        plan.probes >>= 1
        return changed

    def _flush_plain(self, config: AdaptiveConfig, reps: Dict[int, Any]) -> Tup[int, int, int]:
        plan = self.plan
        if plan is None or plan.probes < config.min_probes:
            return (0, 0, 0)
        return (self._reorder(plan, reps), 0, 0)

    def _flush_guarded(self, config: AdaptiveConfig, reps: Dict[int, Any]) -> Tup[int, int, int]:
        counts = self.value_counts
        hot = self.hot
        for value, plan in hot.items():
            counts[value] = counts.get(value, 0) + plan.probes
        total = sum(counts.values())
        if total < config.min_probes:
            return (0, 0, 0)
        threshold = total * config.promote_threshold
        ranked = sorted(
            ((count, repr(value), value) for value, count in counts.items() if count >= threshold),
            key=lambda item: (-item[0], item[1]),
        )
        wanted = {item[2] for item in ranked[: config.max_promoted]}
        promotions = demotions = reorders = 0
        for value in [v for v in hot if v not in wanted]:
            del hot[value]
            demotions += 1
        for value in wanted:
            if value not in hot:
                hot[value] = self._value_plan(value)
                promotions += 1
        for plan in hot.values():
            reorders += self._reorder(plan, reps)
        # Enough traffic observed, nothing concentrated: request dormancy
        # so the per-tuple counting stops costing anything on workloads
        # (uniform value distributions) that will never promote.
        if hot:
            self.barren = 0
            self.hopeless = False
        else:
            self.barren += 1
            self.hopeless = True
        for value in list(counts):
            half = counts[value] >> 1
            if half:
                counts[value] = half
            else:
                del counts[value]
        return (reorders, promotions, demotions)

    def flush(self, config: AdaptiveConfig, reps: Dict[int, Any]) -> Tup[int, int, int]:
        if self.guard_position is None:
            return self._flush_plain(config, reps)
        return self._flush_guarded(config, reps)

    def _value_plan(self, value: Any) -> EvalPlan:
        groups = list(self.unguarded.groups)
        total = self.unguarded.total
        bucket = self.by_value.get(value)
        if bucket is not None:
            groups.extend(bucket.groups)
            total += bucket.total
        return EvalPlan(groups, total)

    # ---------------------------------------------------------- introspection
    def promoted(self) -> int:
        return len(self.hot)

    def selectivity(self) -> float:
        """Observed fraction of group evaluations that held (0 when cold).

        Hit and probe counters decay on the same cadence, so the ratio is
        stable across flushes; it is a gauge, not part of any
        bit-identity contract.
        """
        plans = [self.plan] if self.plan is not None else list(self.hot.values())
        evaluations = 0
        hits = 0
        for plan in plans:
            if plan is None or plan.probes == 0:
                continue
            evaluations += plan.probes * len(plan.groups)
            hits += sum(group.rep.hits for group in plan.groups)
        if evaluations == 0:
            return 0.0
        return min(1.0, hits / evaluations)


class AdaptiveState:
    """Engine-owned feedback state over one dispatch index.

    Built by :meth:`~repro.core.dispatch.PlanIndex.build_adaptive`; the
    index stays the source of truth for structure (learned plans are
    derived copies), so a structural patch only needs :meth:`rebuild_relation` for the touched relations
    — the merged index calls it from its per-relation refresh, which
    keeps adaptation rebuilds as localized as PR 4's bucket patches.
    Learning for a refreshed relation restarts from the canonical
    order; everything untouched keeps its counters and plans.
    """

    __slots__ = (
        "config",
        "_index",
        "_relations",
        "_dormant",
        "flushes",
        "reorders",
        "promotions",
        "demotions",
    )

    #: Longest dormancy, in flush intervals (the back-off doubles up to this).
    MAX_DORMANT_FLUSHES = 64

    def __init__(self, index: Any, config: Optional[AdaptiveConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_ADAPTIVE_CONFIG
        self._index = index
        self._relations: Dict[str, _RelationAdapter] = {}
        # relation -> (sleeping adapter, flush count to wake at).  Dormant
        # relations are absent from _relations, so their per-tuple cost is
        # one dict miss — identical to untracked.  Guarded adapters go
        # dormant with exponential back-off when enough traffic was
        # observed but no value concentrated (a uniform distribution will
        # never promote); waking re-observes one interval, so a later
        # drift to skew is still picked up.
        self._dormant: Dict[str, Tup[_RelationAdapter, int]] = {}
        self.flushes = 0
        self.reorders = 0
        self.promotions = 0
        self.demotions = 0
        self.reset()

    # ------------------------------------------------------------- structure
    def _build_adapter(self, relation: str) -> Optional[_RelationAdapter]:
        standing = self._index.plans.get(relation)
        if standing is None:
            return None
        adapter = _RelationAdapter(relation)
        guard = self._index.guarded.get(relation)
        if guard is not None:
            unguarded, positions = guard
            if len(positions) != 1:
                # Guards at several positions would need a probe per
                # position to pick a plan — not worth the hot-path cost;
                # such relations stay on the standing bucket probe.
                return None
            if all(len(group.members) < 2 for group in unguarded.groups):
                # The bucket probe already reduces this relation to its
                # value bucket (plus unshareable unguarded singletons);
                # tracking would be pure overhead.  Promotion pays off
                # exactly when the unguarded members contain a shared
                # predicate group worth reordering against the bucket.
                return None
            adapter.guard_position, adapter.by_value = positions[0]
            adapter.unguarded = unguarded
            return adapter
        if all(len(group.members) < 2 for group in standing.groups):
            # No shared predicate groups and nothing to promote: a plan
            # could only reorder, which never saves work without
            # sharing, so leave the relation untracked (zero overhead).
            return None
        adapter.plan = EvalPlan(list(standing.groups), standing.total)
        return adapter

    def rebuild_relation(self, relation: str) -> None:
        """Re-derive one relation's adapter after a structural patch."""
        self._dormant.pop(relation, None)
        adapter = self._build_adapter(relation)
        if adapter is None:
            self._relations.pop(relation, None)
        else:
            self._relations[relation] = adapter

    def reset(self) -> None:
        """Deterministically drop all learned state (the restore policy)."""
        relations: Dict[str, _RelationAdapter] = {}
        for relation in self._index.plans:
            adapter = self._build_adapter(relation)
            if adapter is not None:
                relations[relation] = adapter
        self._relations = relations
        self._dormant = {}

    def tracked(self) -> bool:
        return bool(self._relations) or bool(self._dormant)

    # --------------------------------------------------------------- hot path
    def plan_for(self, tup: Any) -> EvalPlan:
        """The tuple's learned plan, or the index's standing one."""
        adapter = self._relations.get(tup.relation)
        if adapter is None:
            return self._index.plan_for(tup)
        position = adapter.guard_position
        if position is None:
            plan = adapter.plan
            plan.probes += 1
            return plan
        if position < tup.arity:
            value = tup.value(position)
            plan = adapter.hot.get(value)
            if plan is not None:
                plan.probes += 1
                return plan
            counts = adapter.value_counts
            counts[value] = counts.get(value, 0) + 1
        return self._index.plan_for(tup)

    # ---------------------------------------------------------------- flushes
    def flush(self) -> Tup[int, int, int]:
        """One reorder/promotion pass; returns (reorders, promotions, demotions).

        ``reps`` dedups the per-group hit counters before decay — a
        member reachable from several plans (an unguarded member shared
        by every promoted value, or a multi-relation transition) must be
        halved exactly once per flush.
        """
        config = self.config
        if self._dormant:
            due = [
                relation
                for relation, (_, wake) in self._dormant.items()
                if wake <= self.flushes
            ]
            for relation in due:
                adapter, _ = self._dormant.pop(relation)
                adapter.value_counts.clear()
                adapter.hopeless = False
                self._relations[relation] = adapter
        reps: Dict[int, Any] = {}
        reorders = promotions = demotions = 0
        sleepers: List[str] = []
        for relation, adapter in self._relations.items():
            r, p, d = adapter.flush(config, reps)
            reorders += r
            promotions += p
            demotions += d
            if adapter.hopeless:
                sleepers.append(relation)
        for relation in sleepers:
            adapter = self._relations.pop(relation)
            adapter.hopeless = False
            backoff = min(1 << min(adapter.barren, 6), self.MAX_DORMANT_FLUSHES)
            self._dormant[relation] = (adapter, self.flushes + backoff)
        saturation = config.saturation
        for rep in reps.values():
            hits = rep.hits
            if hits > saturation:
                hits = saturation
            rep.hits = hits >> 1
        self.flushes += 1
        self.reorders += reorders
        self.promotions += promotions
        self.demotions += demotions
        return (reorders, promotions, demotions)

    # ---------------------------------------------------------- introspection
    def info(self) -> Dict[str, Any]:
        """JSON-serialisable summary for ``observe()`` and the CLI line."""
        relations: Dict[str, Any] = {}
        promoted = 0
        for relation in sorted(self._relations):
            adapter = self._relations[relation]
            entry: Dict[str, Any] = {"selectivity": round(adapter.selectivity(), 6)}
            if adapter.guard_position is not None:
                entry["promoted"] = adapter.promoted()
                promoted += adapter.promoted()
            relations[relation] = entry
        return {
            "enabled": True,
            "interval": self.config.interval,
            "flushes": self.flushes,
            "reorders": self.reorders,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "promoted": promoted,
            "tracked_relations": len(self._relations) + len(self._dormant),
            "dormant_relations": len(self._dormant),
            "relations": relations,
        }
