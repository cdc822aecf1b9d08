"""FireTransitions + UpdateIndices of Algorithm 1 — the only implementation.

Every hashed engine is a facade over :func:`fire`: the single-query
evaluator is its K=1 case (one lane owns every plan member), the multi-query
engine the K-lane case.  Static, adaptive, guarded and full-scan dispatch
differ only in the :class:`~repro.core.dispatch.EvalPlan` they hand in.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def _canonical_order(item) -> int:
    return item[0].order


def fire(plan, tup, position: int, buckets: Optional[Dict[int, list]], stats) -> Optional[Dict]:
    """Fire ``plan``'s transitions on ``tup`` and index the runs they create.

    ``plan`` members expose ``owner`` (the :class:`~repro.runtime.EvictionLane`
    holding the member's run index and ``DS_w``), ``compiled`` (the
    :class:`~repro.core.dispatch.CompiledTransition`) and ``order``.
    ``buckets`` is the runtime's expiry-bucket map, or ``None`` to store
    entries without registering them for eviction; ``stats`` the
    :class:`~repro.runtime.EngineStatistics` to count into, or ``None``.
    Returns ``{lane: [final-state nodes]}`` for the lanes that produced
    output at this position (``None`` when none did).

    One acceptor call decides each predicate group; a held member fires when
    every join probe finds a live entry in its lane's table.  This phase only
    reads the tables, so the fired *set* does not depend on the order groups
    are evaluated in; sorting it back to canonical order before the effects
    makes node creation, table updates and final collection — hence node ids
    and outputs — independent of plan order too.

    A lane's table is the paper's ``H[e, p, k]`` with ``e`` folded into a
    *slot*, the dispatch index's id of one ``(p, left key plan)`` pair:
    transitions projecting ``p``'s tuple alike would store the same bag, so
    it is stored once, under ``(slot, k)``.
    """
    fired = []
    # Extractors are interned by key plan (repro.core.predicates): joins that
    # project this tuple alike share one, and ``key`` is its cached result.
    keyed_by = key = None
    for group in plan.groups:
        if not group.accepts(tup):
            continue
        group.rep.hits += 1
        for member in group.members:
            lane = member.owner
            compiled = member.compiled
            hash_table = lane.hash
            window = lane.window
            children = []
            # min(position, children's max_start): exactly the max_start
            # ``extend`` would compute, threaded through so the arena never
            # re-reads the child records.
            node_ms = position
            for slot, extract in compiled.probes:
                if extract is not keyed_by:
                    keyed_by = extract
                    key = extract(tup)  # the current tuple is the later one
                if stats is not None:
                    stats.hash_lookups += 1
                if key is None:
                    break
                pair = hash_table.get((slot, key))
                # Stored nodes are never bottom; an expired (possibly
                # released) node simply fails the cached-max_start check.
                if pair is None or position - pair[1] > window:
                    break
                children.append(pair[0])
                if pair[1] < node_ms:
                    node_ms = pair[1]
            else:
                fired.append((member, children, node_ms))
    if not fired:
        return None
    if len(fired) > 1:
        fired.sort(key=_canonical_order)
    if stats is not None:
        stats.transitions_fired += len(fired)
        stats.nodes_created += len(fired)

    # lane -> target state id -> (slots of the state, [(node, max_start, labels)])
    new_nodes: Dict[object, Dict[int, tuple]] = {}
    finals: Optional[Dict[object, List]] = None
    for member, children, node_ms in fired:
        lane = member.owner
        compiled = member.compiled
        if compiled.store_through:
            # A fresh leaf run read through one slot: its one record is
            # written below, straight onto that slot's entry.
            node = None
        else:
            node = lane.ds.extend(compiled.labels, position, children, node_ms)
        consumers = compiled.consumers
        if consumers:
            lane_nodes = new_nodes.get(lane)
            if lane_nodes is None:
                lane_nodes = new_nodes[lane] = {}
            bucket = lane_nodes.get(compiled.target_id)
            if bucket is None:
                lane_nodes[compiled.target_id] = (consumers, [(node, node_ms, compiled.labels)])
            else:
                bucket[1].append((node, node_ms, compiled.labels))
        if compiled.is_final:
            if finals is None:
                finals = {}
            finals.setdefault(lane, []).append(node)

    # UpdateIndices: one entry per (slot, key) of a state that received runs
    # this position, per lane — however many transitions read that slot.
    for lane, lane_nodes in new_nodes.items():
        hash_table = lane.hash
        ds = lane.ds
        window = lane.window
        add_ref = lane.add_ref
        extend_onto = lane.extend_onto
        lane_id = lane.lane_id
        for consumers, nodes in lane_nodes.values():
            for slot, extract in consumers:
                if extract is not keyed_by:
                    keyed_by = extract
                    key = extract(tup)  # the current tuple will be the earlier one
                if key is None:
                    continue
                entry_key = (slot, key)
                pair = hash_table.get(entry_key)
                if pair is None:
                    entry = None
                    entry_ms = -1
                else:
                    entry, entry_ms = pair
                for node, node_ms, labels in nodes:
                    if stats is not None:
                        stats.hash_updates += 1
                        if entry is not None:
                            stats.unions += 1
                    if node is None:
                        # union(entry, extend(labels, position, ())) as one record.
                        entry = extend_onto(labels, position, entry)
                        entry_ms = position
                    elif entry is None:
                        entry = node
                        entry_ms = node_ms
                    else:
                        # position/node_ms describe the fresh node just
                        # built above — the arena's fast path.
                        entry = ds.union(entry, node, position, node_ms)
                        # Heap condition: the union's max_start is the max of
                        # the two sides (a pruned side is the smaller one).
                        if node_ms > entry_ms:
                            entry_ms = node_ms
                hash_table[entry_key] = (entry, entry_ms)
                if buckets is not None:
                    # Flat-triple registration (StreamRuntime.register_entry,
                    # inlined): due when the entry leaves the lane's window.
                    expiry_position = entry_ms + window + 1
                    expiry = buckets.get(expiry_position)
                    if expiry is None:
                        buckets[expiry_position] = [lane_id, entry_key, entry]
                    else:
                        expiry.append(lane_id)
                        expiry.append(entry_key)
                        expiry.append(entry)
                    add_ref(entry)
    return finals
