"""Tests for the arena's packed enumeration (``ArenaDataStructure._packed``)
and the unread :class:`~repro.valuation.Valuation` it hands out.

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
* a structure guard: one enumerator, one odometer.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arena
from repro.core.arena import ArenaDataStructure
from repro.core.datastructure import DataStructure
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import ProjectionEquality, RelationPredicate
from repro.cq.schema import Tuple
from repro.valuation import Valuation

from helpers import ARENAS, slot_automata, slot_streams, star_query


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
    """The arena enumerates through ``_packed`` alone; the odometer and the
    eager ``Valuation`` algebra stay with the object-graph oracle."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if "product_odometer" in path.read_text()
    )
    assert holders == ["core/datastructure.py"]
    arena_source = (source_root / "core" / "arena.py").read_text()
    assert not re.search(r"Valuation\.singleton\(|\.product\(", arena_source)
    assert "_product_combinations" not in arena_source
