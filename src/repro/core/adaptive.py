"""Adaptive selectivity-driven dispatch (ROADMAP item 3).

The dispatch indexes fix candidate order at compile time; this module
closes the feedback loop.  An engine that opts in owns one
:class:`AdaptiveState` built over its dispatch index.  Per tuple the
state hands the fire loop an :class:`EvalPlan` — the relation's
candidates pre-grouped by canonical predicate key — or ``None``, in
which case the engine runs its classic candidate loop unchanged.

What adaptation can and cannot do
---------------------------------
Everything here is a **pure evaluation-order optimisation**.  A plan
contains exactly the member set the static path would have scanned for
the same tuple; the fire loops evaluate each predicate group's unary
once (sound: equal canonical keys mean identical extensions — the same
argument that justifies the multi engine's verdict memo) and apply the
fired effects in canonical candidate order, so node ids, match output
and operation counters are bit-identical to static dispatch.  Runtime
observations steer *which sound structure is used when*; an observed
verdict is never generalised into pruning — only declared
``constant_guard()`` structure may prune, exactly as in the static
guard buckets.

The three mechanisms:

* **Group sharing** — relations where several candidates share a
  predicate key get a standing plan; one unary evaluation covers the
  whole group and a miss skips every member.
* **Reordering** — at each flush, groups inside a plan are re-sorted
  most-selective-first (fewest observed hits first, canonical order as
  the tie-break).  Order never changes what fires, only the scan order.
* **Hot-guard promotion** — for relations with constant-guard buckets,
  the fallback path counts observed guard values; when a value's share
  of the traffic concentrates past ``promote_threshold`` the flush
  synthesizes the per-value plan PR 2 would have built statically
  (unguarded members + that value's bucket, canonical order,
  pre-grouped).  Promoted values bypass the per-tuple bucket probe
  (list build + sort) entirely; values that go cold are demoted, which
  is what tracks mid-stream drift.

Cost model
----------
The per-tuple path gains one dict probe plus at most one counter
increment: ``plan.probes`` on the plan path, one ``value_counts``
bump on the guarded fallback path.  Per-group hit counters ride on the
``hits`` slot of the group's first member (:class:`CompiledTransition`
/ :class:`MergedEntry`) and are only touched when a group actually
holds.  Counters saturate by decay: every flush halves them, so they
stay bounded by a couple of flush intervals (an explicit cap is applied
at flush as a backstop).  Flushes run on the eviction-sweep cadence —
the steady-state sweep pays one integer compare, mirroring the slab
release pass.

Snapshot policy
---------------
Learned state is **deterministically reset on restore** (plans back to
canonical order, all promotions dropped, counters cleared).  This is
observable only through the adaptive activity counters: plans never
change outputs, and the fire loops emulate static operation counting,
so a restored engine's matches and ``EngineStatistics`` are
bit-identical to an uninterrupted run — and snapshots stay fully
interchangeable between adaptive and static engines.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple as Tup

__all__ = [
    "AdaptiveConfig",
    "AdaptiveState",
    "DEFAULT_ADAPTIVE_CONFIG",
    "EvalGroup",
    "EvalPlan",
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


class EvalGroup:
    """One predicate group of a plan: members sharing a canonical key.

    ``rep`` is the first member in canonical order; its ``hits`` slot is
    the group's hit counter (incremented by the fire loop only when the
    group's unary holds).  ``order`` is the canonical rank used as the
    reorder tie-break, so equal-hit groups keep a deterministic order.
    """

    __slots__ = ("pred_key", "accepts", "members", "rep", "order")

    def __init__(self, pred_key: Any, accepts: Any, members: Tup[Any, ...], order: int) -> None:
        self.pred_key = pred_key
        self.accepts = accepts
        self.members = members
        self.rep = members[0]
        self.order = order


class EvalPlan:
    """A relation's (or promoted value's) pre-grouped candidate list.

    ``groups`` is mutated in place by flush reordering; ``total`` is the
    member count across groups (the static path's scan count, used to
    emulate static operation counters in one bulk add).
    """

    __slots__ = ("groups", "probes", "total")

    def __init__(self, groups: List[EvalGroup], total: int) -> None:
        self.groups = groups
        self.probes = 0
        self.total = total


def _build_plan(members: List[Any], order_key: Callable[[Any], int]) -> EvalPlan:
    """Group canonically-ordered members by predicate key."""
    grouped: Dict[Any, List[Any]] = {}
    for member in members:
        bucket = grouped.get(member.pred_key)
        if bucket is None:
            grouped[member.pred_key] = [member]
        else:
            bucket.append(member)
    groups = [
        EvalGroup(pred_key, bucket[0].accepts, tuple(bucket), order_key(bucket[0]))
        for pred_key, bucket in grouped.items()
    ]
    total = len(members)
    return EvalPlan(groups, total)


def _group_rank(group: EvalGroup) -> Tup[int, int]:
    # Most-selective-first: fewest observed hits, canonical order tie-break.
    return (group.rep.hits, group.order)


class _RelationAdapter:
    """Per-relation feedback state.

    Two shapes share the class (one attribute test on the hot path):

    * ``guard_position is None`` — plain tracked relation with one
      standing ``plan`` (built only when some group has >= 2 members,
      so singleton-group relations stay on the zero-overhead classic
      path).
    * ``guard_position`` set — guarded relation; ``hot`` maps promoted
      guard values to standing plans, ``value_counts`` tallies the
      fallback traffic the promotion pass ranks.
    """

    __slots__ = (
        "relation",
        "order_key",
        "plan",
        "guard_position",
        "by_value",
        "unguarded",
        "hot",
        "value_counts",
        "barren",
        "hopeless",
    )

    def __init__(self, relation: str, order_key: Callable[[Any], int]) -> None:
        self.relation = relation
        self.order_key = order_key
        self.plan: Optional[EvalPlan] = None
        self.guard_position: Optional[int] = None
        self.by_value: Dict[Any, Tup[Any, ...]] = {}
        self.unguarded: Tup[Any, ...] = ()
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
        members = list(self.unguarded)
        bucket = self.by_value.get(value)
        if bucket:
            members.extend(bucket)
        members.sort(key=self.order_key)
        return _build_plan(members, self.order_key)

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

    Built by ``TransitionDispatchIndex.build_adaptive`` /
    ``MergedDispatchIndex.build_adaptive``; the index stays the source
    of truth for structure (plans are derived views), so a structural
    patch only needs :meth:`rebuild_relation` for the touched relations
    — the merged index calls it from its per-relation refresh, which
    keeps adaptation rebuilds as localized as PR 4's bucket patches.
    Learning for a refreshed relation restarts from the canonical
    order; everything untouched keeps its counters and plans.
    """

    __slots__ = (
        "config",
        "order_key",
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

    def __init__(self, index: Any, order_key: Callable[[Any], int], config: Optional[AdaptiveConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_ADAPTIVE_CONFIG
        self.order_key = order_key
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
        members = self._index._by_relation.get(relation)
        if not members:
            return None
        adapter = _RelationAdapter(relation, self.order_key)
        guard = self._index._guarded.get(relation)
        if guard is not None:
            unguarded, groups = guard
            if len(groups) != 1:
                # Guards at several positions would need a probe per
                # position to pick a plan — not worth the hot-path cost;
                # such relations stay on the classic bucket probe.
                return None
            position, by_value = groups[0]
            if not unguarded or all(
                len(group.members) < 2
                for group in _build_plan(list(unguarded), self.order_key).groups
            ):
                # The static bucket probe already reduces this relation to
                # its value bucket (plus unshareable unguarded singletons);
                # a promoted plan could only re-derive that structure, so
                # tracking would be pure overhead.  Promotion pays off
                # exactly when the unguarded members contain a shared
                # predicate group a value plan collapses to one evaluation.
                return None
            adapter.guard_position = position
            adapter.by_value = by_value
            adapter.unguarded = unguarded
            return adapter
        plan = _build_plan(list(members), self.order_key)
        if all(len(group.members) < 2 for group in plan.groups):
            # No shared predicate groups and nothing to promote: a plan
            # could only reorder, which never saves work without
            # sharing, so leave the relation untracked (zero overhead).
            return None
        adapter.plan = plan
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
        for relation in self._index._by_relation:
            adapter = self._build_adapter(relation)
            if adapter is not None:
                relations[relation] = adapter
        self._relations = relations
        self._dormant = {}

    def tracked(self) -> bool:
        return bool(self._relations) or bool(self._dormant)

    # --------------------------------------------------------------- hot path
    def plan_for(self, tup: Any) -> Optional[EvalPlan]:
        """The tuple's plan, or ``None`` to run the classic candidate loop."""
        adapter = self._relations.get(tup.relation)
        if adapter is None:
            return None
        position = adapter.guard_position
        if position is None:
            plan = adapter.plan
            plan.probes += 1
            return plan
        if position >= tup.arity:
            return None
        value = tup.value(position)
        plan = adapter.hot.get(value)
        if plan is not None:
            plan.probes += 1
            return plan
        counts = adapter.value_counts
        counts[value] = counts.get(value, 0) + 1
        return None

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
