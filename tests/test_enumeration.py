"""Tests for the arena's packed enumeration (``ArenaDataStructure._groups``),
the factorised :class:`~repro.valuation.PackedValuations` it hands out and the
unread :class:`~repro.valuation.Valuation` objects those expand into.

* the paper's output-linear delay, as a count: records read per ``enumerate``
  call are bounded by ``c·Σ|ν| + c′`` with one ``c`` for every window and
  stream length;
* a hypothesis differential over automata with nested products, several
  labels per transition and labels shared between nodes — and over the
  shared family ``helpers.slot_pcea`` (states read through one or several
  key plans, leaf runs stored through ``extend_onto``) — on every arena
  layout (and the native kernel when it is built), against the object
  structure's enumeration order and the naive ``outputs_upto`` oracle —
  whichever accessor reads a valuation first;
* unread valuations survive ``snapshot()`` / ``restore()`` (the label table
  is append-only and ``restore`` rebinds it), read ones drop their record;
* the container contract, differential on every arena over union- and
  product-heavy automata: ``len`` known unread, any first read gives the
  oracle's list in its order (and the same objects after), ``==`` both ways
  round; counted, not timed, the update-time work is the factors (children's
  lists) and the odometer runs once, on read;
* structure guards: one enumerator, one odometer; no valuation built by
  ``process_many`` (statistics and an observer on) or by the server-side
  encode of a match batch; the wire codec reads no valuation internals.
"""

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.valuation as valuation_module
from repro.core import arena
from repro.core.arena import ArenaDataStructure
from repro.core.datastructure import DataStructure
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import ProjectionEquality, RelationPredicate
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.obs.observer import Observer
from repro.valuation import PackedValuations, Valuation

from helpers import ARENAS, count_valuation_constructions, slot_automata, slot_streams, star_query


# ------------------------------------------------------------ the delay claim
def union_storm(variants):
    """``variants`` labelled arm transitions into one state, one closing join."""
    state, accept = "q", "f"
    transitions = [
        PCEATransition(frozenset(), RelationPredicate("A"), {}, {f"v{k}"}, state)
        for k in range(variants)
    ]
    transitions.append(
        PCEATransition(
            {state},
            RelationPredicate("C"),
            {state: ProjectionEquality({"A": (0,)}, {"C": (0,)})},
            {"close"},
            accept,
        )
    )
    return PCEA({state, accept}, transitions, {accept})


def storm_stream(length, seed=5):
    rng = random.Random(seed)
    return [
        Tuple("A" if rng.random() < 0.75 else "C", (rng.randrange(8), rng.randrange(64)))
        for _ in range(length)
    ]


def star_stream(length, seed=5):
    rng = random.Random(seed)
    return [
        Tuple(f"A{rng.randrange(1, 4)}", (rng.randrange(8), rng.randrange(64)))
        for _ in range(length)
    ]


#: Records read per output pair: a live union-tree node emits at least one
#: output and has at most two expired links, each read once to be pruned.
READS_PER_PAIR = 2
READS_PER_CALL = 2

WORKLOADS = {
    "union_storm": (lambda: union_storm(4), storm_stream),
    "star3": (lambda: hcq_to_pcea(star_query(3)), star_stream),
}


@pytest.mark.parametrize("length", [1_000, 4_000, 16_000])
@pytest.mark.parametrize("window", [16, 64, 256, 1024])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_records_read_per_enumerate_call_are_linear_in_the_output(
    workload, window, length, monkeypatch
):
    build, stream = WORKLOADS[workload]
    engine = StreamingEvaluator(build(), window, kernel="python", collect_stats=False)
    reads = [0]
    unpack = arena._UNPACK_RECORD

    def counting_unpack(buffer, offset):
        reads[0] += 1
        return unpack(buffer, offset)

    monkeypatch.setattr(arena, "_UNPACK_RECORD", counting_unpack)
    enumerate_node = engine.ds.enumerate
    # Every tuple is applied; about 48 output-producing ones, spread over the
    # whole stream, are enumerated (a window of 1024 yields hundreds of
    # valuations per call).
    stride = max(1, length // 48)
    due = calls = 0
    for index, tup in enumerate(stream(length)):
        finals = engine.update(tup)
        if not finals or index < due:
            continue
        due = index + stride
        for node in finals:
            reads[0] = 0
            valuations = list(enumerate_node(node, engine.position))
            pairs = sum(valuation.size() for valuation in valuations)
            assert pairs, "a final node inside the window enumerates something"
            assert reads[0] <= READS_PER_PAIR * pairs + READS_PER_CALL, (index, len(valuations))
            calls += 1
    assert calls >= 8


# ---------------------------------------------------- differential: packed path
LABELS = "uvw"
label_sets = st.frozensets(st.sampled_from(LABELS), min_size=1, max_size=3)


def nested_pcea(leaf_labels, mid_sources, mid_labels, top_with_arm, top_labels):
    """``N`` over ``M`` over the arms ``A``/``B``/``C``, every join on ``x``.

    Each arm relation reads into its own state under one transition per label
    set in ``leaf_labels[arm]`` (distinct sets, so runs stay distinguishable);
    ``M`` joins the arms of ``mid_sources``, ``N`` joins ``M`` and, with
    ``top_with_arm``, the arm ``C`` as well — a product under a product whose
    nodes may all carry the same labels.
    """
    transitions = [
        PCEATransition(frozenset(), RelationPredicate(arm), {}, labels, f"a{arm}")
        for arm, variants in zip("ABC", leaf_labels)
        for labels in variants
    ]
    joins = lambda sources, relation: {
        source: ProjectionEquality({origin: (0,)}, {relation: (0,)})
        for source, origin in sources
    }
    mid = [(f"a{arm}", arm) for arm in mid_sources]
    transitions.append(
        PCEATransition({s for s, _ in mid}, RelationPredicate("M"), joins(mid, "M"), mid_labels, "m")
    )
    top = [("m", "M")] + ([("aC", "C")] if top_with_arm else [])
    transitions.append(
        PCEATransition({s for s, _ in top}, RelationPredicate("N"), joins(top, "N"), top_labels, "n")
    )
    states = {"aA", "aB", "aC", "m", "n"}
    return PCEA(states, transitions, {"n"})


automata = st.builds(
    nested_pcea,
    leaf_labels=st.tuples(*[st.lists(label_sets, min_size=1, max_size=2, unique=True)] * 3),
    mid_sources=st.sampled_from(["A", "B", "AB"]),
    mid_labels=label_sets,
    top_with_arm=st.booleans(),
    top_labels=label_sets,
)
#: Streams follow the matching order ``A B C M N`` unless a pick overrides the
#: relation, mostly on one key: purely random streams rarely reach ``N``.
PATTERN = "ABCMN"
streams = st.lists(
    st.tuples(st.none() | st.sampled_from(PATTERN), st.sampled_from([0, 0, 0, 1])),
    min_size=8,
    max_size=20,
).map(
    lambda picks: [
        Tuple(relation or PATTERN[index % len(PATTERN)], (key,))
        for index, (relation, key) in enumerate(picks)
    ]
)

WINDOW = 9

#: What a consumer may call first on an unread valuation; each must answer as
#: the oracle's valuation does, and leave the valuation read.
FIRST_READS = [
    lambda v, o: v == o,
    lambda v, o: hash(v) == hash(o),
    lambda v, o: repr(v) == repr(o),
    lambda v, o: (v.min_position(), v.max_position()) == (o.min_position(), o.max_position()),
    lambda v, o: all(
        v.within_window(p, w) == o.within_window(p, w) for p in (0, 5, 12) for w in (0, 3, 20)
    ),
]


@settings(max_examples=60, deadline=None)
@given(pcea=automata, stream=streams)
def test_packed_enumeration_matches_the_object_structure_and_the_naive_oracle(pcea, stream):
    check_every_arena_against_the_object_structure(pcea, stream)


@settings(max_examples=40, deadline=None)
@given(pcea=slot_automata, stream=slot_streams)
def test_shared_slots_and_store_through_keep_the_object_structures_order(pcea, stream):
    """One entry per (state, left key plan) and leaf runs written straight onto
    it: multi-slot states, final-and-read states, several multi-label leaf
    transitions per state (``helpers.slot_pcea``)."""
    check_every_arena_against_the_object_structure(pcea, stream)


def check_every_arena_against_the_object_structure(pcea, stream):
    expected = pcea.outputs_upto(stream, len(stream) - 1, window=WINDOW)
    oracle = StreamingEvaluator(pcea, WINDOW, arena=False)
    engines = [StreamingEvaluator(pcea, WINDOW, kernel=kernel) for kernel in ARENAS]
    for position, tup in enumerate(stream):
        wanted = list(oracle.enumerate_outputs(oracle.update(tup)))
        assert len(wanted) == len(set(wanted)) and set(wanted) == expected[position]
        for engine in engines:
            finals = engine.update(tup)
            for first_read in FIRST_READS:
                outputs = list(engine.enumerate_outputs(finals))
                assert len(outputs) == len(wanted)
                for valuation, reference in zip(outputs, wanted):
                    assert valuation._mapping is None and valuation._packed
                    assert first_read(valuation, reference)
                    # Read: the record and the arena's label table are let go.
                    assert valuation._packed is None and valuation._tables is None
                    assert all(check(valuation, reference) for check in FIRST_READS)
                    assert valuation.as_dict() == reference.as_dict()


@pytest.mark.parametrize("kernel", ARENAS)
def test_enumerate_all_and_empty_label_sets_follow_the_object_structure(kernel):
    """``ν_{∅,i}`` is the empty valuation: it adds no label *and no position*."""
    plain, packed = DataStructure(10), ArenaDataStructure(10, kernel=kernel)
    tops = []
    for ds in (plain, packed):
        leaves = [ds.extend(labels, i, []) for i, labels in enumerate([{"a"}, (), {"a", "b"}])]
        pair = ds.union(ds.extend({"b"}, 3, [leaves[0]]), ds.extend((), 4, [leaves[1], leaves[2]]))
        tops.append(ds.union(pair, ds.extend((), 5, [pair, leaves[0]])))
    for got, want in zip(packed.enumerate_all(tops[1]), plain.enumerate_all(tops[0]), strict=True):
        assert (got.is_empty(), got.within_window(30, 2)) == (want.is_empty(), want.within_window(30, 2))
        assert got == want and repr(got) == repr(want) and list(got.as_dict()) == list(want.as_dict())
        if want:
            assert (got.min_position(), got.max_position()) == (want.min_position(), want.max_position())
    assert [repr(v) for v in packed.enumerate(tops[1], 12)] == [
        repr(v) for v in plain.enumerate(tops[0], 12)
    ]


# ------------------------------------------------- unread valuations and restore
@pytest.mark.parametrize("kernel", ARENAS)
def test_unread_valuations_survive_snapshot_restore_and_label_growth(kernel):
    ds = ArenaDataStructure(8, kernel=kernel)
    node = ds.union(ds.extend({"x"}, 0, []), ds.extend({"x", "y"}, 1, []))
    before = list(ds.enumerate(node, 1))
    snapshot = ds.snapshot()
    # A label set interned after the snapshot ...
    late = list(ds.enumerate(ds.extend({"late"}, 2, [node]), 2))
    table = ds._labels
    ds.restore(snapshot)
    # ... is gone from the restored arena, whose next new set takes its id.
    # Unread valuations hold the table they were enumerated over, which
    # restore() must leave alone: it rebinds, extend() only appends.
    assert ds._labels is not table and ds._labels == table[:-1]
    ds.extend({"other"}, 2, [node])
    assert ds._labels[-1] == {"other"} and table[-1] == {"late"}
    assert before == [Valuation({"x": {1}, "y": {1}}), Valuation({"x": {0}})]
    assert late == [Valuation({"late": {2}, "x": {1}, "y": {1}}), Valuation({"late": {2}, "x": {0}})]
    assert list(ds.enumerate(node, 2)) == before


def test_one_enumeration_shares_one_singleton_set_per_position():
    """The closing position is in every output of a call: one set object, not
    one per output (the suite retains a whole pass's outputs)."""
    ds = ArenaDataStructure(8)
    arms = ds.extend({"a"}, 0, [])
    for position in range(1, 4):
        arms = ds.union(arms, ds.extend({"a"}, position, []))
    outputs = list(ds.enumerate(ds.extend({"close"}, 4, [arms]), 4))
    assert len(outputs) == 4
    assert len({id(valuation["close"]) for valuation in outputs}) == 1


# ------------------------------------------------------------- structure guard
def test_one_enumerator_one_odometer():
    """The arena enumerates through ``_groups`` alone and takes no product:
    the packed records' odometer is the read side's (``valuation.py``), the
    ``Valuation`` one and the eager algebra stay with the object-graph oracle."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if "product_odometer" in path.read_text()
    )
    assert holders == ["core/datastructure.py"]
    arena_source = (source_root / "core" / "arena.py").read_text()
    assert not re.search(r"Valuation\.singleton\(|\.product\(|\bproduct\(\*|_pack_product", arena_source)
    assert "_product_combinations" not in arena_source
    assert (source_root / "valuation.py").read_text().count("product(*") == 1


def test_process_many_builds_no_valuation(monkeypatch):
    """With statistics booked and an observer attached, ``process_many`` on
    the arena builds no ``Valuation``; the first read builds one per output."""
    built = count_valuation_constructions(monkeypatch)
    for kernel in ARENAS:
        engine = MultiQueryEngine(collect_stats=True, kernel=kernel)
        engine.attach_observer(Observer(sample_every=1))
        handle = engine.register(hcq_to_pcea(star_query(3)), 16)
        built[0] = 0
        outputs = [out[handle.id] for out in engine.process_many(star_stream(600)) if out]
        total = engine.stats.outputs_enumerated
        assert total >= 40 and total == sum(map(len, outputs)) and built[0] == 0
        assert sum(len(list(out)) for out in outputs) == total == built[0]


# ------------------------------------------------- the factorised container
def storm_star(variants):
    """A star over the arms ``A0``…: arm ``i`` reads into its own state through
    ``variants[i]`` parallel transitions (distinct labels, ``union_storm``'s
    unions), and ``C`` joins every arm on ``x`` — a product of 2–3 unions."""
    arms = [f"A{index}" for index in range(len(variants))]
    transitions = [
        PCEATransition(frozenset(), RelationPredicate(arm), {}, {f"{arm}v{k}"}, arm)
        for arm, count in zip(arms, variants)
        for k in range(count)
    ]
    transitions.append(
        PCEATransition(
            set(arms),
            RelationPredicate("C"),
            {arm: ProjectionEquality({arm: (0,)}, {"C": (0,)}) for arm in arms},
            {"close"},
            "f",
        )
    )
    return PCEA(set(arms) | {"f"}, transitions, {"f"})


product_automata = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(storm_star)
product_streams = st.lists(
    st.tuples(st.sampled_from(["A0", "A1", "A2", "C", "C"]), st.sampled_from([0, 0, 1])),
    min_size=6,
    max_size=24,
).map(lambda picks: [Tuple(relation, (key,)) for relation, key in picks])

#: Every way a container may be read first; each must see the oracle's list.
CONTAINER_FIRST_READS = [
    lambda c, o: list(c) == o,
    lambda c, o: c == o,
    lambda c, o: o == c,
    lambda c, o: not c != o,
    lambda c, o: c[-1] == o[-1] and c[0] == o[0],
    lambda c, o: c[1:] == o[1:] and c[::-1] == o[::-1] and c[-2:] == o[-2:],
    lambda c, o: all(valuation in c for valuation in o),
]


def counting_odometer(patch):
    """Count the records the one odometer (``valuation.group_records``) hands out,
    on read and wherever the arena spells a product out."""
    counter = [0]
    inner = valuation_module.group_records

    def counting(group):
        for record in inner(group):
            counter[0] += 1
            yield record

    patch.setattr(valuation_module, "group_records", counting)
    patch.setattr(arena, "group_records", counting)
    return counter


def check_containers_against_the_object_structure(pcea, stream, patch, levels):
    odometer = counting_odometer(patch)
    reads = [0]
    unpack = arena._UNPACK_RECORD

    def counting_unpack(buffer, offset):
        reads[0] += 1
        return unpack(buffer, offset)

    patch.setattr(arena, "_UNPACK_RECORD", counting_unpack)
    oracle = StreamingEvaluator(pcea, WINDOW, arena=False)
    engines = [StreamingEvaluator(pcea, WINDOW, kernel=kernel) for kernel in ARENAS]
    for tup in stream:
        wanted = oracle.process(tup)
        assert type(wanted) is list
        for engine in engines:
            finals = engine.update(tup)
            for first_read in CONTAINER_FIRST_READS:
                odometer[0] = reads[0] = 0
                container = engine.ds.outputs(finals, engine.position)
                walked, built = reads[0], odometer[0]
                assert type(container) is PackedValuations and container.records() is not None
                groups = container._groups
                products = [group for group in groups if type(group) is not list]
                child_records = sum(len(child) for _, children in products for child in children)
                run_records = sum(len(group) for group in groups if type(group) is list)
                # Built at update time: the walk's runs, a head per product and
                # the children's lists (a nested product expands into its list,
                # and there alone; a product with one combination is stored as
                # that record, spelled out once per product level) ...
                assert built <= child_records + levels * run_records
                # ... while the count is their product, known before any read.
                size = len(container)
                assert size == run_records + sum(math.prod(map(len, children)) for _, children in products)
                assert size == len(wanted) and bool(container) == bool(wanted)
                if engine.ds._nk is None:  # the walk's reads: the delay claim, per final node
                    pairs = sum(valuation.size() for valuation in wanted)
                    assert walked <= READS_PER_PAIR * pairs + READS_PER_CALL * len(finals)
                odometer[0] = 0
                if wanted:
                    assert first_read(container, wanted)
                else:
                    assert container == [] and list(container) == []
                # The first read expands every group once, straight into
                # unread valuations; later reads expand nothing.
                assert odometer[0] == size
                assert container.records() is None and len(container) == size
                read = list(container)
                assert read == wanted
                assert all(again is first for again, first in zip(container, read, strict=True))
                assert container == wanted and wanted == container and odometer[0] == size
                assert container != wanted + [Valuation({"other": {0}})]
                with pytest.raises(TypeError):
                    hash(container)


@settings(deadline=None)
@given(pcea=product_automata, stream=product_streams)
def test_containers_read_as_the_object_structures_lists(pcea, stream):
    """Union- and product-heavy automata on every arena: a container's length
    is known unread, its first read (whichever) gives the oracle's list in
    its order, and the update-time work is the factors, not their product."""
    with pytest.MonkeyPatch.context() as patch:
        check_containers_against_the_object_structure(pcea, stream, patch, levels=1)


@settings(deadline=None)
@given(pcea=automata, stream=streams)
def test_containers_of_nested_products_read_as_the_object_structures_lists(pcea, stream):
    """Products under products (``nested_pcea``): the children's lists hold the
    nested products expanded, the container's own product stays factorised."""
    with pytest.MonkeyPatch.context() as patch:
        check_containers_against_the_object_structure(pcea, stream, patch, levels=2)


@pytest.mark.parametrize("kernel", ARENAS)
def test_process_and_process_many_hand_out_the_same_containers(kernel):
    """``process`` returns per tuple what ``process_many`` does: one unread
    container, whose length the statistics book without reading it."""
    pcea, stream = storm_star([3, 4]), product_stream_of(160)
    stepwise = StreamingEvaluator(pcea, WINDOW, kernel=kernel, collect_stats=True)
    batched = StreamingEvaluator(pcea, WINDOW, kernel=kernel, collect_stats=True)
    oracle = StreamingEvaluator(pcea, WINDOW, arena=False)
    one_by_one = [stepwise.process(tup) for tup in stream]
    in_batches = [out for start in range(0, len(stream), 32) for out in batched.process_many(stream[start : start + 32])]
    produced = [index for index, out in enumerate(in_batches) if out]
    assert produced and all(type(in_batches[index]) is PackedValuations for index in produced)
    assert all(type(one_by_one[index]) is PackedValuations for index in produced)
    assert stepwise.stats.outputs_enumerated == batched.stats.outputs_enumerated == sum(map(len, in_batches))
    assert all(out.records() is not None for out in in_batches if type(out) is PackedValuations)
    assert one_by_one == in_batches == [oracle.process(tup) for tup in stream]
    # Products are where the factorisation pays: 4 × 3 and 4 × 4 arm runs
    # close into 192 outputs, held as one head over lists of 12 and 16.
    engine = StreamingEvaluator(pcea, WINDOW, kernel=kernel)
    engine.process_many([Tuple(arm, (0,)) for arm in ["A0", "A1"] * 4])
    (out,) = engine.process_many([Tuple("C", (0,))])
    ((head, children),) = out._groups
    assert list(map(len, children)) == [12, 16] and len(out) == 192 == len(list(out))


def product_stream_of(length, seed=3):
    rng = random.Random(seed)
    return [Tuple(rng.choice(["A0", "A0", "A1", "A1", "C"]), (rng.randrange(2),)) for _ in range(length)]
