"""Theorem 5.1's update bound for ``B_eq`` automata, asserted on counters.

When every join of an automaton is in ``B_eq``, what one tuple costs is
bounded by the compiled dispatch index alone — not by the stream's length
nor by the window.  For a tuple ``t`` with candidate transitions
``C = index.candidates_for(t)``:

* ``transitions_fired`` and ``nodes_created`` are at most ``|C|``;
* ``hash_lookups`` is at most ``Σ_{c ∈ C} |probes(c)|`` — one ``H`` probe per
  join, and none after the first miss;
* ``unions`` is at most ``Σ_{c ∈ C} |consumers(c)|`` — UpdateIndices unions
  each run created into a state at most once into each slot the state is
  read through.

The bound is checked tuple by tuple on seeded streams of the 3-arm star and
of the union storm (8 labelled variants per arm tuple), on every kernel this
build runs, and the per-tuple maxima of the counters on a stream of length
``L`` and on one of ``4L`` are the same.  A fire loop that read the window
(a scan where a hash probe belongs) breaks the ``hash_lookups`` bound.

For K>1 the bound is read off the merged index: the members of
``plan_for(t).flat()`` take the place of ``C`` (a leaf state several
queries share is one member), checked on the ``multi_churn`` shape — 64
threshold queries over 4 groups, window 128.  The union storm's arm tuple
writes its 8 leaf runs as one arena record: ``allocated`` grows by exactly
one per arm tuple, ``nodes_created`` by 8; its plan holds them as one fire
item, whatever their number (2, 8 or 32), the statistics counting each.

Space: a key of ``H`` registers for expiry once, when created, and the sweep
re-arms it while writes keep it live, so after every batch sweep each store's
pending registrations are exactly the keys of its table, each once — however
often the keys were written.  Checked on the four shapes above plus a mixed
(scanned) star, and as a property over hashed and scanned queries registered
and unregistered mid-stream, where the runs a leaving query's scan slots took
along may stay pending, once each, until their bucket pops.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.streams.generators import HCQWorkloadGenerator

from helpers import ARENAS, scanned, shared_star_queries, union_storm_workload
from test_extensions import GENERAL_RELATIONS, mixed_store_schedules

COUNTERS = ("transitions_fired", "nodes_created", "hash_lookups", "unions")
LENGTH = 1_500


def star():
    """The 3-arm star HCQ and a seeded stream of ``4 * LENGTH`` tuples."""
    generator = HCQWorkloadGenerator(arms=3, key_domain=32, seed=11)
    return hcq_to_pcea(generator.query()), generator.stream(4 * LENGTH).materialise(), 256


def union_storm():
    """The union-storm automaton (one group) and a seeded stream."""
    pcea, stream = union_storm_workload(1, 4 * LENGTH, variants=8, key_domain=8, seed=11)
    return pcea, stream, 64


def static_bound(index, tup):
    """``{counter: bound}`` for ``tup``, read off the compiled index alone."""
    candidates = index.candidates_for(tup)
    return {
        "transitions_fired": len(candidates),
        "nodes_created": len(candidates),
        "hash_lookups": sum(len(c.probes) for c in candidates),
        "unions": sum(len(c.consumers) for c in candidates),
    }


def per_tuple_maxima(pcea, stream, window, kernel):
    """Run ``stream``, asserting the static bound at every tuple; returns the
    largest per-tuple step of each counter."""
    index = pcea.dispatch_index()
    engine = StreamingEvaluator(pcea, window, kernel=kernel)
    stats = engine.stats
    largest = dict.fromkeys(COUNTERS, 0)
    before = [getattr(stats, name) for name in COUNTERS]
    for position, tup in enumerate(stream):
        engine.update(tup)
        after = [getattr(stats, name) for name in COUNTERS]
        bound = static_bound(index, tup)
        for name, old, new in zip(COUNTERS, before, after):
            step = new - old
            assert step <= bound[name], (position, name, step, bound[name])
            if step > largest[name]:
                largest[name] = step
        before = after
    assert engine.nodes_scanned == 0
    return largest


@pytest.mark.parametrize("kernel", ARENAS)
@pytest.mark.parametrize("workload", [star, union_storm], ids=["star", "union_storm"])
def test_update_work_is_bounded_by_the_automaton(workload, kernel):
    pcea, stream, window = workload()
    assert pcea.uses_only_equality_predicates()
    short = per_tuple_maxima(pcea, stream[:LENGTH], window, kernel)
    long = per_tuple_maxima(pcea, stream, window, kernel)
    assert short == long
    # Every counter moved: the bound is not met vacuously.
    assert all(short.values()), short


def multi_churn_shaped(length):
    """The ``multi_churn`` queries and a seeded stream of ``length`` tuples."""
    return shared_star_queries(64, length, arms=3, groups=4, key_domain=5, selectivity=0.2, seed=11)


def merged_per_tuple_maxima(queries, stream, window, kernel):
    """Run ``stream`` through one engine of every query, asserting the bound
    of the merged plan at every tuple; returns the largest per-tuple steps."""
    engine = MultiQueryEngine(collect_stats=True, kernel=kernel)
    for pcea in queries:
        engine.register(pcea, window)
    stats = engine.stats
    largest = dict.fromkeys(COUNTERS, 0)
    before = [getattr(stats, name) for name in COUNTERS]
    for position, tup in enumerate(stream):
        members = engine._merged.plan_for(tup).flat()
        bound = {
            "transitions_fired": len(members),
            "nodes_created": len(members),
            "hash_lookups": sum(len(m.probes) for m in members),
            "unions": sum(len(m.consumers) for m in members),
        }
        engine.process(tup)
        after = [getattr(stats, name) for name in COUNTERS]
        for name, old, new in zip(COUNTERS, before, after):
            step = new - old
            assert step <= bound[name], (position, name, step, bound[name])
            if step > largest[name]:
                largest[name] = step
        before = after
    return largest


@pytest.mark.parametrize("kernel", ARENAS)
def test_merged_update_work_is_bounded_by_the_plans(kernel):
    queries, stream = multi_churn_shaped(4 * LENGTH)
    short = merged_per_tuple_maxima(queries, stream[:LENGTH], 128, kernel)
    long = merged_per_tuple_maxima(queries, stream, 128, kernel)
    assert short == long
    assert all(short.values()), short


@pytest.mark.parametrize("kernel", ARENAS)
def test_an_arm_tuple_writes_one_record(kernel):
    pcea, stream, window = union_storm()
    engine = StreamingEvaluator(pcea, window, kernel=kernel)
    ds = engine.ds
    arms = 0
    for tup in stream[:LENGTH]:
        allocated, created = ds.allocated, ds.nodes_created
        engine.update(tup)
        if tup.relation == "G0A":
            arms += 1
            assert (ds.allocated - allocated, ds.nodes_created - created) == (1, 8)
    assert arms > LENGTH // 2


@pytest.mark.parametrize("variants", [2, 8, 32])
def test_an_arm_tuple_is_one_fire_item(variants):
    pcea, stream = union_storm_workload(1, 200, variants=variants, key_domain=8, seed=3)
    engine = StreamingEvaluator(pcea, 64, collect_stats=True)
    stats = engine.stats
    arms = 0
    for tup in stream:
        plan = engine._merged.plan_for(tup)
        items = [item for group in plan.groups for item in group.items]
        items += [item for family in plan.families for item in family.items]
        fired = stats.transitions_fired, stats.nodes_created
        engine.process(tup)
        if tup.relation == "G0A":
            arms += 1
            assert len(items) == 1 and len(items[0].label_sets) == plan.total == variants
            steps = (stats.transitions_fired - fired[0], stats.nodes_created - fired[1])
            assert steps == (variants, variants)
    assert arms > len(stream) // 2


# ------------------------------------------------------------ the space bound
def pending_registrations(engine):
    """``{lane id: Counter of the keys its pending expiry registrations name}``."""
    pending = {}
    for flat in engine._runtime.buckets.values():
        for lane_id, key in zip(flat[0::2], flat[1::2]):
            pending.setdefault(lane_id, Counter())[key] += 1
    return pending


def check_registrations(engine):
    """After a sweep, every active store's pending registrations name each key
    of its table once, and nothing else but runs of scan slots no query holds
    any more; returns how many are pending."""
    pending = pending_registrations(engine)
    total = 0
    for lane in engine._runtime.lanes():
        counted = pending.get(lane.lane_id, Counter())
        assert set(counted.values()) <= {1}, lane
        assert counted.keys() >= lane.hash.keys(), lane
        held = set(lane.scans or ()) | {slot for slot, _ in lane.hash}
        assert not {slot for slot, _ in counted.keys() - lane.hash.keys()} & held, lane
        total += len(counted)
    return total


def mixed_star():
    """The 3-arm star with its first join scanned: its source state is read
    through a scan slot and its other readers' hash slots."""
    pcea, stream, window = star()
    first = next((index, source) for index, t in enumerate(pcea.transitions) for source in t.binaries)
    return scanned(pcea, joins={first}), stream, 64


def most_pending(make, stream, key_domain, batch=37):
    """Drive ``stream`` in batches, checking the registrations after every
    batch sweep against ``|H|`` and the static bound — a hash slot holds at
    most one key per join-key value, a scan slot one run per position of
    the window; returns the most ever pending."""
    engine = make()
    largest = 0
    for start in range(0, len(stream), batch):
        engine.process_many(stream[start : start + batch])
        pending = check_registrations(engine)
        assert pending == engine.hash_table_size()
        bound = 0
        for lane in engine._runtime.lanes():
            scan_slots = len(lane.scans or ())
            bound += (lane.next_slot - scan_slots) * key_domain + scan_slots * (lane.window + 1)
        assert pending <= bound, (start, pending, bound)
        largest = max(largest, pending)
    return largest


@pytest.mark.parametrize("kernel", ARENAS)
@pytest.mark.parametrize("workload", ["star", "union_storm", "multi_churn", "mixed"])
def test_pending_registrations_are_exactly_the_keys_of_h(workload, kernel):
    """One registration per key of ``H`` at L and at 4L tuples, within a bound
    the stream length does not enter.  (A registration per write left up to
    57 pending for the union storm's 8 keys.  Only those 8 are all live at
    once on these streams, so only its maxima at L and 4L are asserted
    equal; elsewhere a longer stream has more of the key space live at once
    somewhere: star 94 -> 95, ``multi_churn`` 206 -> 215, mixed 76 -> 79.)"""
    if workload == "multi_churn":
        queries, stream = multi_churn_shaped(4 * LENGTH)
        key_domain = 5

        def make():
            engine = MultiQueryEngine(kernel=kernel)
            for pcea in queries:
                engine.register(pcea, 128)
            return engine

    else:
        pcea, stream, window = {"star": star, "union_storm": union_storm, "mixed": mixed_star}[workload]()
        key_domain = 8 if workload == "union_storm" else 32
        make = lambda: StreamingEvaluator(pcea, window, kernel=kernel)  # noqa: E731
    short = most_pending(make, stream[:LENGTH], key_domain)
    long = most_pending(make, stream, key_domain)
    assert 0 < short <= long
    if workload == "union_storm":
        assert short == long == 8


# No ``max_examples`` here: tier-1 runs the default budget, CI the ``fuzz`` profile.
@settings(deadline=None)
@given(
    queries=mixed_store_schedules(),
    stream=st.lists(
        st.builds(Tuple, st.sampled_from(GENERAL_RELATIONS), st.tuples(st.integers(0, 2), st.integers(0, 2))),
        max_size=40,
    ),
    window=st.integers(0, 6),
    batch=st.integers(1, 5),
)
def test_registrations_stay_one_per_key_under_churn(queries, stream, window, batch):
    """Hashed and scanned queries share one store, registered and
    unregistered mid-stream, the stream ingested in batches: after every
    batch sweep the pending registrations are one per key of ``H``."""
    engine = MultiQueryEngine()
    handles, held = {}, []

    def flush():
        engine.process_many(held)
        held.clear()
        check_registrations(engine)

    for position, tup in enumerate(stream):
        for index, (pcea, joins, leaves) in enumerate(queries):
            if joins == position:
                flush()
                handles[index] = engine.register(pcea, window)
            elif leaves == position and index in handles:
                flush()
                engine.unregister(handles.pop(index))
        held.append(tup)
        if len(held) == batch:
            flush()
    flush()
