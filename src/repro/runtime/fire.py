"""FireTransitions + UpdateIndices of Algorithm 1 — the only implementation.

There is one engine, :class:`~repro.multi.engine.MultiQueryEngine`, and it
calls :func:`fire` once per tuple with the plan its merged index returns:
one store per window, one handle per registered query.  The single-query
evaluator is its K=1 case (one store, one handle, every plan member theirs),
not a second caller.  Relation and constant-guard dispatch differ only in
the :class:`~repro.core.dispatch.EvalPlan` handed in; hash and scan joins
only in the kind of probe each join of a member carries.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def fire(plan, tup, position: int, buckets: Dict[int, list], stats) -> Optional[Dict]:
    """Fire ``plan``'s transitions on ``tup`` and index the runs they create.

    ``plan`` members (:class:`~repro.core.dispatch.MergedEntry`) expose
    ``owner`` — the store, an :class:`~repro.runtime.EvictionLane` holding the
    run index and ``DS_w`` the member reads and writes — ``compiled`` (the
    :class:`~repro.core.dispatch.CompiledTransition`), its ``probes`` /
    ``consumers`` / ``target_id`` in that store's slot space, the ``handle``
    its final nodes are collected for, ``since`` and ``index``.  ``buckets``
    is the runtime's expiry-bucket map every stored entry is registered in;
    ``stats`` the
    :class:`~repro.runtime.EngineStatistics` to count into, or ``None``.
    Returns ``{handle: [final-state nodes]}`` for the handles that produced
    output at this position (``None`` when none did).

    One acceptor call decides each predicate group, one base call and one
    bisect each threshold family (its held members then run as a group's); a
    held member fires when every join probe finds a live entry in its store's
    table.  This phase only reads the tables, so the fired *set* does not depend on the order groups
    are evaluated in; sorting it back to canonical order before the effects
    makes node creation, table updates and final collection — hence node ids
    and outputs — independent of plan order too.  A fired entry is
    ``(member.index, member, children, max_start)``: indexes are unique
    within a plan, so the sort compares ints and never reaches a member.

    A store's table is the paper's ``H[e, p, k]`` with ``e`` folded into a
    *slot*, the store's id of one ``(p, left key plan)`` pair: transitions
    projecting ``p``'s tuple alike would store the same bag, so it is stored
    once, under ``(slot, k)`` — for every query of the store that has a state
    like ``p``.  A query that joined the stream at ``member.since`` must not
    see older runs, so an entry is live for it only while its ``max_start``
    is inside the window *and* at or past ``since``.

    The runs a state receives at this position are listed in canonical
    order.  A store-through member's fresh leaf run is not built first, and
    leaf runs next to each other in the list form one *leaf item* — their
    label sets, appended in place — that UpdateIndices writes onto the
    entry with one ``extend_onto``: bag semantics turns one tuple satisfying
    several atoms into such parallel transitions, and the entry pays one
    call, not one per label.  A product run between two leaf runs splits
    them, so the effects keep their order.

    A join outside ``B_eq`` (Section 6's open case) is a *scan probe*, a
    ``(scan slot, holds)`` pair: it collects the source's live runs, oldest
    first, that ``holds(run tuple, tup)`` accepts (every run read counts as
    a lookup and in the store's ``nodes_scanned``).  A member with a scan
    probe, or whose target state is scanned (``member.scan`` is set), takes
    the *mixed* path: its hash probes read ``H`` as above, and it fires when
    every join found a run.  Its effects go in canonical order with the
    others': the compatible runs of each scanned source are unioned into one
    child right before its ``extend``; the run goes to UpdateIndices for the
    target's hash slots, and into a scanned target's scan slot under ``(scan
    slot, next sequence number)``, anchored at ``position``.  Members and
    stores without a scan run the hash path alone.
    """
    fired = []
    # Extractors are interned by key plan (repro.core.predicates): joins that
    # project this tuple alike share one, and ``key`` is its cached result.
    keyed_by = key = None
    groups = plan.groups
    if plan.families:
        groups = groups + [family.held(tup) for family in plan.families]
    for group in groups:
        if not group.accepts(tup):
            continue
        for member in group.members:
            probes = member.probes
            if not probes:
                fired.append((member.index, member, (), position))
                continue
            store = member.owner
            # The oldest max_start a probed entry may carry.
            oldest = position - store.window
            if oldest < member.since:
                oldest = member.since
            if member.scan:
                # ``expired(node, oldest + window)``: max_start < oldest.
                horizon = oldest + store.window
                expired = store.ds.expired
                children = []
                for (slot, probe), scans in zip(probes, member.scan[0]):
                    if scans:
                        compatible = []
                        runs = store.scans[slot]
                        for earlier, node in runs.values():
                            if not expired(node, horizon) and probe(earlier, tup):
                                compatible.append(node)
                        store.nodes_scanned += len(runs)
                        if stats is not None:
                            stats.hash_lookups += len(runs)
                        if not compatible:
                            break
                        children.append(compatible)
                        continue
                    if probe is not keyed_by:
                        keyed_by = probe
                        key = probe(tup)
                    if stats is not None:
                        stats.hash_lookups += 1
                    if key is None:
                        break
                    pair = store.hash.get((slot, key))
                    if pair is None or pair[1] < oldest:
                        break
                    children.append((pair[0],))
                else:
                    fired.append((member.index, member, children, None))
                continue
            hash_table = store.hash
            children = []
            # min(position, children's max_start): exactly the max_start
            # ``extend`` would compute, threaded through so the arena never
            # re-reads the child records.
            node_ms = position
            for slot, extract in probes:
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
                if pair is None or pair[1] < oldest:
                    break
                children.append(pair[0])
                if pair[1] < node_ms:
                    node_ms = pair[1]
            else:
                fired.append((member.index, member, children, node_ms))
    if not fired:
        return None
    if len(fired) > 1:
        # Plan members have distinct indexes, so this compares ints only.
        fired.sort()
    if stats is not None:
        stats.transitions_fired += len(fired)
        stats.nodes_created += len(fired)

    # store -> target state id -> (slots of the state, [(node, max_start,
    # labels)]); a leaf item is (None, position, [label sets]).
    new_nodes: Dict[object, Dict[int, tuple]] = {}
    finals: Optional[Dict[object, List]] = None
    for _, member, children, node_ms in fired:
        store = member.owner
        compiled = member.compiled
        if compiled.store_through:
            # A fresh leaf run read through one slot (never final): its one
            # record is written below, straight onto that slot's entry.
            # Leaf runs next to each other in the state's list are one leaf
            # item, chained onto the entry in one ``extend_onto``.
            store_nodes = new_nodes.get(store)
            if store_nodes is None:
                store_nodes = new_nodes[store] = {}
            bucket = store_nodes.get(member.target_id)
            if bucket is None:
                store_nodes[member.target_id] = (member.consumers, [(None, position, [compiled.labels])])
            else:
                items = bucket[1]
                last = items[-1]
                if last[0] is None:
                    last[2].append(compiled.labels)
                else:
                    items.append((None, position, [compiled.labels]))
            continue
        if member.scan:
            # Each join's compatible runs unioned into one child, in
            # insertion order (a hash probe found one).
            ds = store.ds
            joined = []
            for compatible in children:
                node = compatible[0]
                for other in compatible[1:]:
                    node = ds.union(node, other)
                if stats is not None:
                    stats.unions += len(compatible) - 1
                joined.append(node)
            node = ds.extend(compiled.labels, position, joined)
            node_ms = ds.max_start_of(node)
            slot = member.scan[1]
            if slot >= 0:
                # Stored under the target's scan slot too, anchored at the
                # run's own position.
                seq = store.next_seq
                store.next_seq = seq + 1
                entry_key = (slot, seq)
                run = (tup, node)
                store.hash[entry_key] = (run, position)
                store.scans[slot][seq] = run
                if stats is not None:
                    stats.hash_updates += 1
                # Flat-triple registration (StreamRuntime.register_entry,
                # inlined), due when the run's position leaves the window.
                expiry = buckets.setdefault(position + store.window + 1, [])
                expiry += (store.lane_id, entry_key, node)
                store.add_ref(node)
        else:
            node = store.ds.extend(compiled.labels, position, children, node_ms)
        consumers = member.consumers
        if consumers:
            store_nodes = new_nodes.get(store)
            if store_nodes is None:
                store_nodes = new_nodes[store] = {}
            bucket = store_nodes.get(member.target_id)
            if bucket is None:
                store_nodes[member.target_id] = (consumers, [(node, node_ms, compiled.labels)])
            else:
                bucket[1].append((node, node_ms, compiled.labels))
        if compiled.is_final:
            if finals is None:
                finals = {}
            finals.setdefault(member.handle, []).append(node)

    # UpdateIndices: one entry per (slot, key) of a state that received runs
    # this position, per store — however many transitions, of however many
    # queries, read that slot.
    for store, store_nodes in new_nodes.items():
        hash_table = store.hash
        ds = store.ds
        window = store.window
        add_ref = store.add_ref
        extend_onto = store.extend_onto
        lane_id = store.lane_id
        for consumers, nodes in store_nodes.values():
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
                    if node is None:
                        # A leaf item: union(entry, extend(L, position, ()))
                        # for each label set L in turn, one record each.
                        if stats is not None:
                            runs = len(labels)
                            stats.hash_updates += runs
                            stats.unions += runs if entry is not None else runs - 1
                        entry = extend_onto(labels, position, entry)
                        entry_ms = position
                        continue
                    if stats is not None:
                        stats.hash_updates += 1
                        if entry is not None:
                            stats.unions += 1
                    if entry is None:
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
                # Flat-triple registration (StreamRuntime.register_entry,
                # inlined): due when the entry leaves the store's window.
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
