"""Tests for the one fire loop (``repro.runtime.fire``) and the plan storage
it consumes (``repro.core.dispatch``).

* a hypothesis differential over automata whose relation ``E`` mixes
  constant-guarded transitions with unguarded transitions sharing one
  predicate group — the shape where predicate groups are the only sharing
  mechanism and a tuple's plan is stitched from the unguarded groups plus a
  value bucket — through every engine, arena and object-graph, against the
  naive ``outputs_upto`` oracle;
* the same differential over ``helpers.slot_pcea`` — states read through
  one or several left key plans, final-and-read states, several multi-label
  source-less transitions per state — plus snapshot -> restore mid-stream
  across kernels, and slot numbering that survives a cleared extractor cache;
* write amplification as counts: a k-arm star's leaf tuple costs one hash
  update, one expiry triple and one arena record, whatever k;
* leaf runs into a state a product run also reaches are one ``extend_onto``
  each, and node ids, outputs and statistics keep a digest pinned on the
  one-call-per-run build (a leaf state's runs, one record for the lot, are
  ``tests/test_label_runs.py``'s);
* the build-time "one guard per predicate group" check;
* structure guards: the per-probe counter and the arena's fresh-node union
  fast path each live in exactly one module; ``H`` is not keyed by reader and
  ``extend_onto`` exists once per representation; the arena has one layout,
  no engine takes an ablation knob, there is one hashed engine (the
  single-query evaluator is its K=1 case) and one engine skeleton (every
  automaton is admitted, the probe kind chosen per join), one function walks a plan's groups to fire them, a plan
  member's rank has one name, nothing imports ``pickle``, and adaptive
  dispatch left no residue.
"""

import ast
import hashlib
import inspect
import random
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import ArenaDataStructure, _Slab
from repro.core.dispatch import (
    CompiledTransition, DispatchStructure, EvalGroup, EvalPlan, MergedEntry, TransitionDispatchIndex,
    _split_by_guard,
)
from repro.core.evaluation import StreamingEvaluator
from repro.core.pcea import PCEA, PCEATransition
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.predicates import ProjectionEquality, RelationPredicate, UnaryPredicate, compile_key_plan
from repro.cq.schema import Tuple
from repro.engine.compiler import compile_pattern
from repro.engine.dsl import atom, conjunction, disjunction
from repro.multi import MergedDispatchIndex, MultiQueryEngine
from repro.obs import Observer
from repro.runtime import StreamRuntime

from helpers import ARENAS, scanned, mixed_join_pcea, one_member, slot_automata, slot_streams, star_query

WINDOW = 6
DOMAIN = 3


def mixed_guard_pcea(constants, partners, threshold):
    """``⋁_c (A(x) ∧ E(t, x)[t == c])  ∨  ⋁_P (P(x) ∧ E(t, x)[x < threshold])``.

    Every branch joins its two atoms on ``x`` in either arrival order, so
    ``E`` carries initial and closing transitions; the ``t == c`` branches are
    constant-guarded (one bucket per ``c``), the ``x < threshold`` branches are
    unguarded and — one per partner relation — share a single predicate group.
    """
    branches = [
        conjunction(atom("A", "x"), atom("E", "t", "x", filters=[("t", "==", c)]))
        for c in constants
    ]
    branches += [
        conjunction(atom(partner, "x"), atom("E", "t", "x", filters=[("x", "<", threshold)]))
        for partner in partners
    ]
    return compile_pattern(disjunction(*branches))


automata = st.builds(
    mixed_guard_pcea,
    constants=st.lists(st.integers(0, DOMAIN - 1), min_size=1, max_size=3, unique=True),
    partners=st.sampled_from([("A", "B"), ("B", "C"), ("A", "B", "C")]),
    threshold=st.integers(1, DOMAIN),
)

tuples = st.one_of(
    st.builds(lambda t, x: Tuple("E", (t, x)), st.integers(0, DOMAIN), st.integers(0, DOMAIN - 1)),
    st.builds(lambda r, x: Tuple(r, (x,)), st.sampled_from("ABC"), st.integers(0, DOMAIN - 1)),
)


def test_the_family_mixes_guard_buckets_with_a_shared_unguarded_group():
    pcea = mixed_guard_pcea([0, 2], ("A", "B"), 2)
    merged = one_member(pcea)
    unguarded, positions = merged.guarded["E"]
    assert [len(group.members) for group in unguarded.groups] == [4]
    ((position, by_value),) = positions
    assert position == 0 and sorted(by_value) == [0, 2]
    # A matching tuple's plan is the unguarded groups plus its value bucket.
    matching = Tuple("E", (2, 1))
    plan = merged.plan_for(matching)
    assert plan.total == 6 and len(plan.groups) == 2
    assert merged.plan_for(Tuple("E", (1, 1))) is unguarded
    assert [c.index for c in pcea.dispatch_index().candidates_for(matching)] == sorted(
        member.index for group in plan.groups for member in group.members
    )


@settings(max_examples=60, deadline=None)
@given(first=automata, second=automata, stream=st.lists(tuples, min_size=4, max_size=14))
def test_every_engine_matches_the_naive_oracle_static_and_adaptive(first, second, stream):
    # (The id predates the retirement of adaptive dispatch; the second axis
    # is now the enumeration structure.)
    check_every_engine_against_the_naive_oracle(first, second, stream)


@settings(max_examples=40, deadline=None)
@given(first=slot_automata, second=slot_automata, stream=slot_streams)
def test_shared_slots_and_store_through_match_the_naive_oracle(first, second, stream):
    check_every_engine_against_the_naive_oracle(first, second, stream)


def check_every_engine_against_the_naive_oracle(first, second, stream):
    pceas = [first, second]
    last = len(stream) - 1
    expected = [pcea.outputs_upto(stream, last, window=WINDOW) for pcea in pceas]
    statistics = {}
    for arena in (True, False):
        single = StreamingEvaluator(first, WINDOW, arena=arena, collect_stats=True)
        general = StreamingEvaluator(scanned(first), WINDOW, arena=arena, collect_stats=True)
        one = MultiQueryEngine(arena=arena, collect_stats=True)
        alone = one.register(first, WINDOW)
        many = MultiQueryEngine(arena=arena, collect_stats=True)
        handles = [many.register(pcea, WINDOW) for pcea in pceas]
        for position, tup in enumerate(stream):
            runs = [single.process(tup), general.process(tup), one.process(tup).get(alone.id, [])]
            shared = many.process(tup)
            runs += [shared.get(handle.id, []) for handle in handles]
            wanted = [expected[0][position]] * 4 + [expected[1][position]]
            for outputs, valuations in zip(runs, wanted):
                assert len(outputs) == len(set(outputs))
                assert set(outputs) == valuations
        statistics[arena] = [
            asdict(engine.stats) for engine in (single, general, one, many)
        ]
        # The single-query engine is the K=1 multi engine: every counter agrees.
        assert asdict(one.stats) == asdict(single.stats)
    assert statistics[False] == statistics[True]


@settings(max_examples=25, deadline=None)
@given(pcea=slot_automata, stream=slot_streams, cut=st.integers(1, 17))
def test_snapshot_restore_mid_stream_continues_identically_across_kernels(pcea, stream, cut):
    cut = min(cut, len(stream) - 1)
    build = lambda kernel: StreamingEvaluator(pcea, WINDOW, kernel=kernel)
    reference = build(ARENAS[0])
    wanted = [reference.process(tup) for tup in stream]
    snapshots = []
    for kernel in ARENAS:
        source = build(kernel)
        assert [source.process(tup) for tup in stream[:cut]] == wanted[:cut]
        snapshots.append(source.snapshot())
    assert all(snapshot == snapshots[0] for snapshot in snapshots)
    for kernel in ARENAS:
        target = build(kernel)
        target.restore(snapshots[0])
        outputs = [target.process(tup) for tup in stream[cut:]]
        assert outputs == wanted[cut:]  # same order, ==
        assert [list(map(hash, out)) for out in outputs] == [list(map(hash, out)) for out in wanted[cut:]]
        assert target.snapshot() == reference.snapshot()


@settings(max_examples=25, deadline=None)
@given(pcea=slot_automata)
def test_slots_are_numbered_by_structure_not_by_extractor_identity(pcea):
    """``compile_key_plan`` is a bounded cache: another process (or an evicted
    entry) compiles a plan to a different function object, and slot numbers
    are part of the snapshot contract."""
    before = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
    compile_key_plan.cache_clear()
    after = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
    slots = lambda index: [[slot for slot, _ in c.probes] for c in index.all_transitions()]
    assert slots(before) == slots(after)
    assert MergedDispatchIndex([(0, before)]).signature() == MergedDispatchIndex([(0, after)]).signature()
    for state_id in before.state_ids.values():
        ours, theirs = before.consumers_by_id(state_id), after.consumers_by_id(state_id)
        assert [slot for slot, _ in ours] == [slot for slot, _ in theirs]
        assert all(a is not b for (_, a), (_, b) in zip(ours, theirs))  # fresh extractors


# ------------------------------------------------- write amplification, counted
@pytest.mark.parametrize("arena", [True, False], ids=["arena", "object"])
@pytest.mark.parametrize("arms", [2, 3, 4, 5])
def test_a_leaf_run_is_stored_once_whatever_the_fan_in(arms, arena):
    """Every leaf state of a k-arm star is read by k-1 closing transitions, all
    through the shared variable: one slot, so one accepted tuple costs one hash
    update and one record — not k-1 — and at most one expiry registration,
    none onto a key the table already held."""
    window = 20
    engine = StreamingEvaluator(hcq_to_pcea(star_query(arms)), window, arena=arena, collect_stats=True)
    rng = random.Random(arms)
    stream = [
        Tuple(f"A{rng.randrange(1, arms + 1)}", (rng.randrange(2), rng.randrange(50)))
        for _ in range(300)
    ]
    stats, ds, buckets = engine.stats, engine.ds, engine._expiry_buckets
    (lane,) = engine._runtime.lanes()
    registered = lambda: {key for flat in buckets.values() for key in flat[1::2]}
    closed = 0
    for tup in stream:
        before = (stats.hash_updates, stats.unions, ds.nodes_created, registered(), set(lane.hash))
        finals = engine.update(tup, sweep=False)  # unswept: buckets only grow
        assert len(finals) <= 1
        closed += len(finals)
        assert stats.hash_updates - before[0] == 1
        assert stats.unions - before[1] <= 1
        assert ds.nodes_created - before[2] == 1 + len(finals)  # the leaf run + the closing node
        new = registered() - before[3]
        assert len(new) <= 1 and not new & before[4]
        # Unswept, every key ever created is held and registered, once.
        assert sum(map(len, buckets.values())) == 2 * len(lane.hash) and registered() == set(lane.hash)
    assert closed > 50 and stats.transitions_fired == len(stream) + closed
    engine._runtime.sweep_upto(engine.position)
    live = {(tup.relation, tup.values[0]) for tup in stream[-(window + 1) :]}
    assert engine.hash_table_size() <= len(live)


def leaf_product_leaf_pcea():
    """``B`` feeds the one-slot state ``q`` in canonical order: two leaf runs,
    a product run (joining ``p``, fed by ``A``, on ``x``), two more leaf runs;
    ``C`` reads ``q`` on ``y`` into the final ``f``.  Every tuple is ``(x, y)``."""
    on = lambda earlier, at, reader: ProjectionEquality({earlier: (at,)}, {reader: (0,)})
    leaf = lambda labels: PCEATransition(frozenset(), RelationPredicate("B"), {}, labels, "q")
    transitions = [
        PCEATransition(frozenset(), RelationPredicate("A"), {}, {"a"}, "p"),
        leaf({"b"}),
        leaf({"b", "u"}),
        PCEATransition({"p"}, RelationPredicate("B"), {"p": on("A", 0, "B")}, {"j"}, "q"),
        leaf({"v"}),
        leaf({"b", "v"}),
        PCEATransition({"q"}, RelationPredicate("C"), {"q": on("B", 1, "C")}, {"c"}, "f"),
    ]
    return PCEA({"p", "q", "f"}, transitions, {"f"})


#: :func:`leaf_product_leaf_digest`, as written by the build whose fire loop
#: made one ``extend_onto`` call per leaf run — re-pinned when a key got one
#: expiry registration: only ``stats.sweeps`` moved (the digest without it
#: is unchanged).
PINNED_LEAF_PRODUCT_LEAF_DIGEST = "54c6cf8d1bddfb7fe2e62fedc3fb12db9e6b252f4b6d795bbb8397e2659c27cd"


def leaf_product_leaf_stream():
    rng = random.Random(11)
    return [Tuple(rng.choice("ABBC"), (rng.randrange(2), rng.randrange(2))) for _ in range(160)]


def leaf_product_leaf_digest(kernel):
    """SHA-256 over a seeded run of :func:`leaf_product_leaf_pcea`: per tuple
    the final nodes' arena ids, the outputs in order and ``hash_table_size()``;
    at the end the ``EngineStatistics`` and the arena's counters."""
    engine = StreamingEvaluator(leaf_product_leaf_pcea(), WINDOW, kernel=kernel, collect_stats=True)
    digest = hashlib.sha256()
    for tup in leaf_product_leaf_stream():
        nodes = engine.update(tup)
        outputs = [repr(v) for v in engine.enumerate_outputs(nodes)]
        digest.update(repr((list(nodes), outputs, engine.hash_table_size())).encode())
    ds = engine.ds
    digest.update(repr((asdict(engine.stats), ds.nodes_created, ds.union_calls, ds.union_copies)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kernel", ARENAS)
def test_leaf_product_leaf_runs_into_one_state_keep_the_pinned_digest(kernel):
    """``q`` is reached by leaf runs and by a product run, so it is no leaf
    state: each leaf run into it is its own ``extend_onto``, in canonical
    order with the product run, and node ids, outputs and statistics are
    those of the build that made one call per leaf run."""
    assert leaf_product_leaf_digest(kernel) == PINNED_LEAF_PRODUCT_LEAF_DIGEST
    engine = StreamingEvaluator(leaf_product_leaf_pcea(), WINDOW, kernel=kernel)
    (lane,) = engine._runtime.lanes()
    runs = []
    write = lane.extend_onto
    lane.extend_onto = lambda label_sets, position, entry: runs.append(len(label_sets)) or write(
        label_sets, position, entry
    )
    stream = leaf_product_leaf_stream()
    for tup in stream:
        engine.process(tup)
    # An ``A`` tuple is one leaf run; a ``B`` tuple four, one call each.
    assert set(runs) == {1}
    assert len(runs) == sum(4 if tup.relation == "B" else tup.relation == "A" for tup in stream)


def test_leaf_product_leaf_runs_match_the_naive_oracle_and_the_object_structure():
    stream = leaf_product_leaf_stream()[:24]
    pcea = leaf_product_leaf_pcea()
    expected = pcea.outputs_upto(stream, len(stream) - 1, window=WINDOW)
    engines = [StreamingEvaluator(pcea, WINDOW, arena=arena, collect_stats=True) for arena in (True, False)]
    for position, tup in enumerate(stream):
        for engine in engines:
            outputs = engine.process(tup)
            assert len(outputs) == len(set(outputs)) and set(outputs) == expected[position]
    assert asdict(engines[0].stats) == asdict(engines[1].stats)


class _Claims(UnaryPredicate):
    """Accepts ``E`` tuples; instances share a canonical key whatever guard they claim."""

    def __init__(self, guard):
        self._guard = guard

    def holds(self, tup):
        return tup.relation == "E"

    def dispatch_relations(self):
        return frozenset({"E"})

    def canonical_key(self):
        return ("claims",)

    def constant_guard(self):
        return self._guard


def _two_initial_transitions(first, second):
    return PCEA(
        ["p", "q"],
        [PCEATransition({}, first, {}, {"a"}, "p"), PCEATransition({}, second, {}, {"b"}, "q")],
        ["p", "q"],
    )


@pytest.mark.parametrize("guards", [((0, 1), (0, 2)), ((0, 1), None)])
def test_one_guard_per_predicate_group_is_checked_at_build_time(guards):
    pcea = _two_initial_transitions(*map(_Claims, guards))
    index = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
    with pytest.raises(ValueError, match="equal keys must imply equal guards"):
        _split_by_guard(index.all_transitions())
    with pytest.raises(ValueError, match="equal keys must imply equal guards"):
        MergedDispatchIndex([("owner", index)])
    with pytest.raises(ValueError, match="equal keys must imply equal guards"):
        StreamingEvaluator(pcea, window=4)
    agreeing = _two_initial_transitions(_Claims((0, 1)), _Claims((0, 1)))
    assert one_member(agreeing).plan_for(Tuple("E", (1,))).total == 2


def _claiming(guard):
    return PCEA(["p"], [PCEATransition({}, _Claims(guard), {}, {"a"}, "p")], ["p"])


@pytest.mark.parametrize(
    "window", [4, 8, 6], ids=["a store of three", "a store of one", "a new store"]
)
def test_a_refused_registration_changes_nothing(window):
    """The merged index refuses a query whose canonical key declares another
    guard than the index holds for it — naming the key, not its interned id —
    and the engine is left as before the attempt: same handles, signature,
    checkpoint bytes and stores, the store's first query still alone (its
    leaf states not made classes), and the next registration is the one the
    refused one would have been."""
    from repro.runtime import snapshot as snapshot_codec

    stream = [Tuple("E", (1,)), Tuple("F", (1,)), Tuple("E", (2,)), Tuple("F", (2,))]
    star = conjunction(atom("E", "x"), atom("F", "x"))

    def state(engine):
        return (
            engine.handles(),
            engine._merged.signature(),
            snapshot_codec.dumps(engine.snapshot()),
            engine.dispatch_info(),
            engine._merged.interned_key_count(),
            [lane.window for lane in engine._runtime.lanes()],
        )

    def internals(merged):
        return (
            {store: member.key for store, member in merged._alone.items()},
            {key: (cls.slots, {u: list(ix) for u, ix in cls.users.items()})
             for key, cls in merged._classes.items()},  # fmt: skip
            [(id(entry), entry.handle) for entry in merged.all_entries()],
            dict(merged._store_users),
        )

    engine, control = MultiQueryEngine(), MultiQueryEngine()
    for target in (engine, control):
        target.register(_claiming((0, 1)), window=4)
        target.register(star, window=4)
        target.register(star, window=8)
        for tup in stream[:2]:
            target.process(tup)
    before, inside = state(engine), internals(engine._merged)
    with pytest.raises(ValueError, match=r"canonical key \('claims',\) declare different constant guards"):
        engine.register(_claiming((0, 2)), window=window)
    assert state(engine) == before == state(control)
    assert internals(engine._merged) == inside
    assert engine.register(star, window=window) == control.register(star, window=window)
    for tup in stream[2:]:
        assert engine.process(tup) == control.process(tup)
    assert state(engine) == state(control)


def test_the_merged_index_checks_a_query_before_changing_it():
    """A refused ``add_query`` releases the keys it interned on the way (here
    a new one, before the conflicting one) and counts no patch."""
    merged = MergedDispatchIndex([("first", _claiming((0, 1)).dispatch_index())])
    before = (merged.signature(), merged.interned_key_count(), len(merged), merged.describe())
    refused = _two_initial_transitions(RelationPredicate("E"), _Claims((0, 2)))
    with pytest.raises(ValueError, match="equal keys must imply equal guards"):
        merged.add_query("second", refused.dispatch_index())
    assert (merged.signature(), merged.interned_key_count(), len(merged), merged.describe()) == before
    agreeing = _two_initial_transitions(RelationPredicate("E"), _Claims((0, 1)))
    merged.add_query("second", agreeing.dispatch_index())
    rebuilt = MergedDispatchIndex(
        [("first", _claiming((0, 1)).dispatch_index()), ("second", agreeing.dispatch_index())]
    )
    assert merged.signature() == rebuilt.signature()


def test_the_fire_loop_exists_once():
    """FireTransitions/UpdateIndices is ``repro.runtime.fire`` and nothing else:
    no engine counts join probes or takes the arena's fresh-node union path."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    probe_counter = re.compile(r"stats\.hash_lookups \+= 1\b")
    fresh_union = re.compile(r"\bds\.union\(\s*\w+,\s*\w+,\s*\w+,\s*\w+\s*\)")
    for pattern in (probe_counter, fresh_union):
        holders = sorted(
            str(path.relative_to(source_root))
            for path in source_root.rglob("*.py")
            if pattern.search(path.read_text())
        )
        assert holders == ["runtime/fire.py"], pattern.pattern


def test_a_scan_is_a_probe_kind_not_a_second_loop():
    """Joins outside ``B_eq`` are scan probes of the one ``fire``: the general
    evaluator's own loop, its per-state run dicts, its eviction hook and its
    snapshot kind left no writer in the source, nor did the evaluator class,
    its per-automaton admission step, its scan-every-join index and its
    snapshot converter; exactly one function
    under ``src/repro`` walks a plan's groups to fire them (reads
    ``plan.groups`` and calls a group's acceptor)."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {str(path.relative_to(source_root)): path.read_text() for path in source_root.rglob("*.py")}
    gone = re.compile(
        r'_on_evict|self\._runs\b|"engine": "general"|GeneralStreamingEvaluator|_admissible'
        r"|_scan_index|_from_general|NotEqualityPredicateError|probe: str|scan: bool"
    )
    assert sorted(name for name, text in sources.items() if gone.search(text)) == []
    assert not (source_root / "extensions" / "general_evaluation.py").exists()
    assert list(inspect.signature(PCEA.dispatch_index).parameters) == ["self"]
    assert "scan" not in inspect.signature(DispatchStructure).parameters

    def fires(function):
        nodes = list(ast.walk(function))
        reads_groups = any(
            isinstance(node, ast.Attribute) and node.attr == "groups"
            and isinstance(node.value, ast.Name) and node.value.id == "plan"
            for node in nodes
        )  # fmt: skip
        calls_acceptor = any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "accepts"
            for node in nodes
        )  # fmt: skip
        return reads_groups and calls_acceptor

    walkers = sorted(
        (name, node.name)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and fires(node)
    )
    assert walkers == [("runtime/fire.py", "fire")]


def test_each_run_is_stored_once_through_one_code_path():
    """``H`` is keyed by (slot, key), never by the reading transition, and the
    fused leaf write exists once per representation: object structure, arena
    (one body, which also holds the native binding), C kernel."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert "compiled.index" not in (source_root / "runtime" / "fire.py").read_text()
    definitions = {
        str(path.relative_to(source_root)): len(re.findall(r"def \w*extend_onto\w*\(", path.read_text()))
        for path in source_root.rglob("*.py")
    }
    assert {name: count for name, count in definitions.items() if count} == {
        "core/arena.py": 1,
        "core/datastructure.py": 1,
    }
    kernel = (source_root / "core" / "_kernelmod.c").read_text()
    assert len(re.findall(r"^Kernel_extend_onto\(", kernel, flags=re.M)) == 1


def test_no_slab_reference_count_is_left():
    """Expiry alone releases a slab: no ``add_ref`` / ``drop_ref`` /
    ``ext_refs`` is left in the python sources or the C kernel."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    counted = re.compile(r"\b(?:add_ref|drop_ref|ext_refs)\b")
    for path in [*source_root.rglob("*.py"), source_root / "core" / "_kernelmod.c"]:
        assert not counted.search(path.read_text()), path


def test_one_arena_layout_and_no_ablation_knobs():
    """The retired axes stay retired: no engine accepts ``columnar`` /
    ``incremental`` / ``guards`` (nor ``MultiQueryEngine`` a
    ``release_interval``), a slab holds packed records only, and the record
    paths have no layout to branch on."""
    for engine in (
        ArenaDataStructure,
        StreamingEvaluator,
        MultiQueryEngine,
    ):
        accepted = set(inspect.signature(engine).parameters)
        assert not accepted & {"columnar", "incremental", "guards"}, engine
    assert "release_interval" not in inspect.signature(MultiQueryEngine).parameters
    assert set(_Slab.__slots__) == {"base", "span", "data", "avail", "prods", "count", "max_ms"}
    list_column = re.compile(r"\bcolumnar\b|\.(?:pos|ms|ul|ur|lab|dirn|prod)\b")
    for method in ("extend", "union", "extend_onto", "_groups"):
        source = inspect.getsource(getattr(ArenaDataStructure, method))
        assert not list_column.search(source), method


def test_the_single_query_engines_share_one_body():
    """``StreamingEvaluator`` is the K=1 ``MultiQueryEngine``: its update
    phase, snapshot, restore and batch driver are the engine's; the ring
    buffers, the single-lane batch driver, the single-query server feed and
    the single-lane base class left no residue."""
    def owner(engine, name):
        return next(klass for klass in engine.__mro__ if name in vars(klass))

    for name in ("snapshot", "restore", "_fire", "_enumerate", "register"):
        assert owner(StreamingEvaluator, name) is MultiQueryEngine, name
    source_root = Path(__file__).resolve().parent.parent / "src"
    residue = re.compile(
        r"_SeqRing|ring_capacity|drive_enumerating_batch|live_run_count|SingleEngineFeed"
        r"|SingleLaneEngine|_snapshot_fields|_read_fields|_adopt_fields"
    )
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*")
        if path.suffix in (".py", ".c") and residue.search(path.read_text())
    )
    assert holders == []
    assert "ring_capacity" not in inspect.signature(StreamingEvaluator).parameters


def test_there_is_one_hashed_engine():
    """One plan builder, one snapshot kind, one option surface: the
    single-query evaluator is a ``MultiQueryEngine`` with three options, and
    the per-automaton binding, the single-lane body, the linked-list union
    ablation, the ``streaming`` snapshot kind and the CLI's index/eviction
    switches are gone from the source."""
    assert issubclass(StreamingEvaluator, MultiQueryEngine)
    parameters = inspect.signature(StreamingEvaluator).parameters
    assert list(parameters) == ["pcea", "window", "collect_stats", "arena", "kernel"]
    assert all(
        parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
        for name in ("collect_stats", "arena", "kernel")
    )
    source_root = Path(__file__).resolve().parent.parent / "src"
    gone = re.compile(r'def bind\(|SingleLaneEngine|LinkedListUnionStructure|"streaming"|no-evict|no-index')
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*")
        if path.suffix in (".py", ".c") and gone.search(path.read_text())
    )
    assert holders == []


def test_there_is_one_engine_skeleton():
    """Every automaton runs on the one engine; the mixin two engine classes
    once shared, its dispatch hook and the CLI's object-graph and
    ``--general`` switches are gone from the source, and an observer shadows
    the one enumeration call every engine has."""
    source_root = Path(__file__).resolve().parent.parent / "src"
    gone = re.compile(r"RuntimeBackedEngine|_dispatch_source|no-arena|--general")
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*")
        if path.suffix in (".py", ".c") and gone.search(path.read_text())
    )
    assert holders == []
    engine = StreamingEvaluator(mixed_join_pcea(), WINDOW)
    before = set(vars(engine))
    engine.attach_observer(Observer(sample_every=1))
    shadowed = {name for name in set(vars(engine)) - before if callable(getattr(engine, name))}
    assert shadowed == {"_enumerate", "snapshot", "restore"}


def test_a_plan_member_has_one_rank_name():
    """Compiled transitions and merged entries both expose their canonical
    candidate rank as ``index``, and nothing else carries it."""
    assert "index" in CompiledTransition.__slots__ and "index" in MergedEntry.__slots__
    assert "order" not in CompiledTransition.__slots__ + MergedEntry.__slots__
    assert "order" not in EvalGroup.__slots__


def test_pickle_is_imported_nowhere():
    """No byte read from a socket or a snapshot file can reach ``pickle``:
    nothing under ``src/repro`` imports it, and one entry point — not one per
    message kind — encodes a frame."""
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    imports_pickle = re.compile(r"^\s*(import pickle|from pickle)\b", flags=re.M)
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if imports_pickle.search(path.read_text())
    )
    assert holders == []
    encoders = {
        str(path.relative_to(source_root)): len(re.findall(r"^def encode_frame\(", path.read_text(), flags=re.M))
        for path in source_root.rglob("*.py")
    }
    assert {name: count for name, count in encoders.items() if count} == {"runtime/frames.py": 1}


def test_adaptive_dispatch_left_no_residue():
    """Every engine reads its plans straight from its index: plan members
    carry no hit counter, plans no probe count, groups no representative or
    reorder rank, the runtime no flush clock, and nothing imports the retired
    module."""
    assert "hits" not in CompiledTransition.__slots__ + MergedEntry.__slots__
    assert "probes" not in EvalPlan.__slots__
    assert set(EvalGroup.__slots__) == {"accepts", "members"}
    assert not {"arm_adapt", "disarm_adapt", "adapt_hook", "_next_adapt"} & set(dir(StreamRuntime))
    source_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert not (source_root / "core" / "adaptive.py").exists()
    residue = re.compile(
        r"repro\.core\.adaptive|\.hits\b|AdaptiveState|AdaptiveConfig|adaptive_info"
        r"|arm_adapt|build_adaptive|on_dispatch_adapt|adaptive_listener"
    )
    holders = sorted(
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if residue.search(path.read_text())
    )
    assert holders == []
