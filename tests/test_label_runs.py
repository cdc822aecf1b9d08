"""Label runs: the parallel leaf runs one tuple fires into a leaf state, as one record.

Bag semantics lets one tuple fire k source-less transitions into one state,
each with its own label set.  Into a *leaf state* (one only source-less
transitions reach) the fire loop writes them as one arena record naming an
interned label run, which the walk expands; into a state a product run also
reaches, as one record per label set.  Covered here:

* a hypothesis differential over automata with k parallel source-less
  transitions into a leaf state and into a state a product run also
  reaches: the arena on every kernel built and the object structure list
  equal outputs, in equal order, at every position, and their sets equal
  the naive ``pcea.outputs_upto``'s;
* the run table of a checkpoint is untrusted input: a run naming a label id
  outside the label table, a run of fewer than two ids, a repeated run, a
  run that is not a tuple of ints and a record whose run id lies past the
  table are refused with ``SnapshotError``, the engine left as it was and
  going on like one never offered the checkpoint;
* a checkpoint taken mid-stream restores across kernels and continues as
  the uninterrupted run does, in order; an automaton without runs writes no
  run table.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.arena import _RUN_BASE
from repro.core.evaluation import StreamingEvaluator
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import ProjectionEquality, RelationPredicate
from repro.cq.schema import Tuple
from repro.runtime import SnapshotError
from repro.runtime import snapshot as snapshot_codec

from helpers import ARENAS, union_storm_workload

from test_snapshot import _records_of, _set_records

WINDOW = 6


@st.composite
def parallel_leaf_pceas(draw):
    """A leaf state ``p`` reached by 1–4 source-less transitions on ``A`` or
    ``B``; a state ``q`` reached by 1–4 source-less transitions on ``B`` or
    ``C`` and by a product run from ``p`` on ``B``; a final ``f`` closed by
    ``C`` from ``q`` and from ``p``.  Every label set is distinct."""
    into_p = draw(st.lists(st.sampled_from("AB"), min_size=1, max_size=4))
    into_q = draw(st.lists(st.sampled_from("BC"), min_size=1, max_size=4))
    shared = draw(st.booleans())  # every label set also holds one shared label
    extra = {"s"} if shared else set()
    on = lambda earlier, at, reader: ProjectionEquality(  # noqa: E731
        {relation: (at,) for relation in earlier}, {reader: (at,)}
    )
    transitions = [
        PCEATransition(frozenset(), RelationPredicate(relation), {}, {f"p{i}"} | extra, "p")
        for i, relation in enumerate(into_p)
    ]
    transitions += [
        PCEATransition(frozenset(), RelationPredicate(relation), {}, {f"q{i}"} | extra, "q")
        for i, relation in enumerate(into_q)
    ]
    transitions += [
        PCEATransition({"p"}, RelationPredicate("B"), {"p": on("AB", 0, "B")}, {"j"}, "q"),
        PCEATransition({"q"}, RelationPredicate("C"), {"q": on("BC", 1, "C")}, {"c"}, "f"),
        PCEATransition({"p"}, RelationPredicate("C"), {"p": on("AB", 0, "C")}, {"d"}, "f"),
    ]
    return PCEA({"p", "q", "f"}, transitions, {"f"})


def streams(length):
    tuples = st.builds(
        Tuple, st.sampled_from("AABBC"), st.tuples(st.integers(0, 1), st.integers(0, 1))
    )
    return st.lists(tuples, min_size=1, max_size=length)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pcea=parallel_leaf_pceas(), stream=streams(28))
def test_label_runs_match_the_chain_and_the_naive_oracle(pcea, stream):
    index = pcea.dispatch_index()
    into_p = [c for c in index.all_transitions() if c.target == "p"]
    assert all(c.into_leaf and c.store_through for c in into_p)
    assert not any(c.into_leaf for c in index.all_transitions() if c.target == "q")
    expected = pcea.outputs_upto(stream, len(stream) - 1, window=WINDOW)
    engines = [StreamingEvaluator(pcea, WINDOW, kernel=kernel) for kernel in ARENAS]
    oracle = StreamingEvaluator(pcea, WINDOW, arena=False)
    for position, tup in enumerate(stream):
        outputs = oracle.process(tup)
        assert set(outputs) == expected[position]
        for engine in engines:
            assert engine.process(tup) == outputs
    for engine in engines:
        ds = engine.ds
        assert (ds.nodes_created, ds.union_calls, ds.union_copies) == (
            oracle.ds.nodes_created, oracle.ds.union_calls, oracle.ds.union_copies
        )


def storm(variants=3, length=300, seed=5):
    return union_storm_workload(1, length, variants=variants, key_domain=4, seed=seed)


def storm_engine(kernel="python"):
    return StreamingEvaluator(storm()[0], 16, kernel=kernel)


def storm_checkpoint(kernel="python", upto=150):
    donor = storm_engine(kernel)
    for tup in storm()[1][:upto]:
        donor.process(tup)
    return donor, snapshot_codec.loads(snapshot_codec.dumps(donor.snapshot()))


def _tampered(snap, tamper):
    arena = snap["lanes"][0]["ds"]
    runs = arena["runs"]
    if tamper == "run names a label id outside the label table":
        runs[0] = (len(arena["labels"]),) + runs[0][1:]
    elif tamper == "run of one id":
        runs[0] = runs[0][:1]
    elif tamper == "repeated run":
        runs.append(runs[0])
    elif tamper == "run is a list":
        runs[0] = list(runs[0])
    elif tamper == "run holds a string":
        runs[0] = ("0",) + runs[0][1:]
    else:  # a record whose run id lies past the run table
        slab = arena["slabs"][-1]
        records = _records_of(slab)
        at = next(i for i in range(len(records) // 5) if (records[5 * i + 4] & 0xFFFFFFFF) >> 1 >= _RUN_BASE)
        records[5 * at + 4] = ((_RUN_BASE + len(runs)) << 1) | (records[5 * at + 4] & 1)
        _set_records(slab, records)
    return snap


TAMPERS = [
    "run names a label id outside the label table", "run of one id", "repeated run", "run is a list",
    "run holds a string", "record names a run past the table",
]  # fmt: skip


@pytest.mark.parametrize("tamper", TAMPERS)
def test_a_tampered_run_table_is_refused_and_the_stream_goes_on(tamper):
    stream = storm()[1]
    donor, snap = storm_checkpoint()
    assert len(snap["lanes"][0]["ds"]["runs"]) == 1
    # Untouched, the checkpoint restores and goes on as its donor does.
    restored = storm_engine()
    restored.restore(snapshot_codec.loads(snapshot_codec.dumps(snap)))
    assert [restored.process(t) for t in stream[150:]] == [donor.process(t) for t in stream[150:]]
    engine = storm_engine()
    for tup in stream[:20]:
        engine.process(tup)
    before = snapshot_codec.dumps(engine.snapshot())
    with pytest.raises(SnapshotError):
        engine.restore(_tampered(snap, tamper))
    assert snapshot_codec.dumps(engine.snapshot()) == before
    untouched = storm_engine()
    for tup in stream[:20]:
        untouched.process(tup)
    assert [engine.process(t) for t in stream[20:]] == [untouched.process(t) for t in stream[20:]]


@pytest.mark.parametrize("source", ARENAS)
@pytest.mark.parametrize("target", ARENAS)
def test_a_checkpoint_with_runs_restores_across_kernels(source, target):
    stream = storm()[1]
    uninterrupted = storm_engine(source)
    expected = [uninterrupted.process(t) for t in stream]
    _, snap = storm_checkpoint(source)
    restored = storm_engine(target)
    restored.restore(snap)
    assert [restored.process(t) for t in stream[150:]] == expected[150:]
    assert restored.snapshot() == uninterrupted.snapshot()


def test_an_automaton_without_runs_writes_no_run_table():
    pcea, stream = storm(variants=1)
    engine = StreamingEvaluator(pcea, 16)
    for tup in stream:
        engine.process(tup)
    assert "runs" not in engine.snapshot()["lanes"][0]["ds"]
