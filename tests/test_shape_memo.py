"""The compiler's shape memo (``repro.engine.compiler._shape_automaton``).

A conjunction of DSL atoms is compiled through the Theorem 4.1 construction
of its *filter-free* conjunction, and only then are the atoms' filters bound
onto the transitions.  The construction is memoised on that conjunction, so
patterns that differ only in their filter constants share one template; a
pattern that is one conjunction is the template with its filters bound on,
and its dispatch index binds its unaries onto the one dispatch structure the
template keeps.  Covered here:

* a hypothesis differential over random hierarchical conjunctions (1–4
  atoms, star and chain shapes, repeated variables, self joins; filters with
  ``<``, ``<=``, ``>``, ``>=``, ``==`` over int, float and str constants;
  patterns sharing a shape and patterns with shapes of their own): the same
  pattern compiled with the memo cleared and with it warm has equal
  transitions, predicate keys and merged-index signature, and a
  ``MultiQueryEngine`` under register/unregister churn and a checkpoint
  matches one ``StreamingEvaluator`` per query compiled cold — with every
  registered index equal, field by field, to a cold structure + bind build
  of the same transitions;
* what the memo must not keep: an exception, more than its ``maxsize``
  shapes, or a dispatch index on a core automaton;
* a pinned checkpoint, written before the memo existed, restored into an
  engine whose queries were compiled through the warm memo, and the pinned
  digest of a churned checkpoint's bytes, written before the templates;
* ``_FilteredUnary.holds`` against its ``acceptor()``.
"""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import TransitionDispatchIndex
from repro.core.evaluation import StreamingEvaluator
from repro.core.predicates import AtomUnaryPredicate, AttributeFilter
from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple
from repro.engine import compiler
from repro.engine.compiler import PatternCompilationError, compile_pattern
from repro.engine.dsl import atom, conjunction
from repro.multi import MergedDispatchIndex, MultiQueryEngine
from repro.runtime import snapshot as snapshot_codec

OPERATORS = ("<", "<=", ">", ">=", "==")
CONSTANTS = (0, 1, 2, 1.0, 1.5, "a", "b")
VALUES = (0, 1, 2, 1.5, "a")
LETTERS = "PQRS"


memo = compiler._shape_automaton


# ------------------------------------------------------------- generators
@st.composite
def shapes(draw):
    """A filter-free hierarchical conjunction as ``(relation, variables)`` specs.

    Every atom reads a prefix of the chain ``x0, x1, x2`` (a star: every
    prefix is ``x0``), may add a variable of its own and may repeat one of its
    variables.  Any such family of variable sets is hierarchical.  A relation
    is named by a letter and its arity, so two atoms drawing one letter and
    arity form a self join.  Atom ``i`` draws from the first ``i + 1``
    letters, so shapes often name the same relations over other variables.
    """
    star = draw(st.booleans())
    specs = []
    for i in range(draw(st.integers(1, 4))):
        variables = [f"x{j}" for j in range(1 if star else draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            variables.append(f"p{i}")
        if draw(st.booleans()):
            repeated = draw(st.sampled_from(variables))
            variables.insert(draw(st.integers(0, len(variables))), repeated)
        specs.append((f"{draw(st.sampled_from(LETTERS[: i + 1]))}{len(variables)}", tuple(variables)))
    return tuple(specs)


@st.composite
def shape_lists(draw):
    """1–3 shapes.  A later one is drawn afresh or is a variant of the first:
    the same relations, some of whose own variables become ``x0`` (a
    repeated variable), so the two differ in variable structure only."""
    first = draw(shapes())
    result = [first]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            result.append(draw(shapes()))
            continue
        own = sorted({v for _, variables in first for v in variables if v.startswith("p")})
        merged = {v for v in own if draw(st.booleans())}
        result.append(tuple(
            (relation, tuple("x0" if v in merged else v for v in variables))
            for relation, variables in first
        ))
    return result


@st.composite
def patterns(draw, shape):
    """``shape`` with 0–2 filters on each atom."""
    filter_of = lambda variables: st.tuples(
        st.sampled_from(variables), st.sampled_from(OPERATORS), st.sampled_from(CONSTANTS)
    )
    return conjunction(*(
        atom(relation, *variables, filters=draw(st.lists(filter_of(variables), max_size=2)))
        for relation, variables in shape
    ))


def stream_of(shape_list):
    """Tuples of the relations the shapes read, over a small value domain."""
    relations = sorted({relation for shape in shape_list for relation, _ in shape})
    return st.lists(
        st.sampled_from(relations).flatmap(
            lambda relation: st.tuples(
                *[st.sampled_from(VALUES)] * int(relation[1:])
            ).map(lambda values: Tuple(relation, values))
        ),
        min_size=4,
        max_size=30,
    )


# -------------------------------------------------------------- inspection
def described(pcea):
    """Everything the engines read of a compiled automaton, type-exact
    (``str`` tells ``1`` from ``1.0``)."""
    transitions = [
        (
            str(transition),
            transition.unary.canonical_key(),
            [
                (str(source), str(binary), binary.left_key_plan(), binary._right_plan)
                for source, binary in sorted(transition.binaries.items(), key=lambda kv: str(kv[0]))
            ],
        )
        for transition in pcea.transitions
    ]
    return transitions, sorted(map(str, pcea.states)), sorted(map(str, pcea.final))


def compiled_cold(pattern):
    memo.cache_clear()
    return compile_pattern(pattern)


def core_of(pattern):
    """The memoised core automaton of a conjunction of two or more atoms."""
    return memo(compiler._shape(list(pattern.atoms())))


#: What a transition's shape fixes, and what its unary binds, compared as
#: values; ``accepts`` and the family's acceptor are compared on tuples.
SHAPE_FIELDS = ("index", "labels", "target", "target_id", "is_final", "joins", "probes",
                "consumers", "store_through")  # fmt: skip
BOUND_FIELDS = ("relations", "guard", "pred_key")


def assert_index_is_a_cold_build(index, pcea, tuples):
    """``index`` (a registration's, bound onto a warm template's structure)
    equals a cold structure + bind build of the same transitions, field by
    field, and shares the template's structure where it has one."""
    cold = TransitionDispatchIndex(pcea.transitions, final=pcea.final)
    template = pcea._template
    if template is not None:
        assert index.structure is template._structure is not None
    assert index.structure is not cold.structure
    assert len(index) == len(cold) == len(pcea.transitions)
    for warm_c, cold_c in zip(index.all_transitions(), cold.all_transitions()):
        assert warm_c.transition is cold_c.transition and warm_c.unary is cold_c.unary
        for name in SHAPE_FIELDS + BOUND_FIELDS:
            assert getattr(warm_c, name) == getattr(cold_c, name), name
        assert (warm_c.family is None) == (cold_c.family is None)
        if warm_c.family is not None:
            key, constant, _, base = warm_c.family
            assert (key, constant, base) == (cold_c.family[0], cold_c.family[1], cold_c.family[3])
        for tup in tuples:
            assert warm_c.accepts(tup) == cold_c.accepts(tup)
            if warm_c.family is not None:
                assert warm_c.family[2](tup) == cold_c.family[2](tup)
    assert (index.final, index.state_ids, index.slots) == (cold.final, cold.state_ids, cold.slots)
    assert index.leaf_states() == cold.leaf_states()
    assert MergedDispatchIndex([(0, index)]).signature() == MergedDispatchIndex([(0, cold)]).signature()


def checkpoint_and_restore(engine):
    """A fresh engine re-registering ``engine``'s patterns (through the
    memo), restored from its snapshot."""
    text = snapshot_codec.dumps(engine.snapshot())
    fresh = MultiQueryEngine()
    for entry in engine.registry.entries():
        fresh.register(entry.pcea, entry.handle.window, name=entry.handle.name)
    fresh.restore(snapshot_codec.loads(text))
    return fresh


# ----------------------------------------------------------- the differential
@settings(deadline=None)
@given(data=st.data())
def test_a_warm_memo_compiles_what_a_cold_one_does(data):
    shape_list = data.draw(shape_lists(), label="shapes")
    pattern_list = data.draw(
        st.lists(st.sampled_from(shape_list).flatmap(patterns), min_size=1, max_size=8),
        label="patterns",
    )
    cold = [compiled_cold(pattern) for pattern in pattern_list]
    memo.cache_clear()
    for pattern in pattern_list:
        compile_pattern(pattern)
    warm = [compile_pattern(pattern) for pattern in pattern_list]
    conjunctions = sum(1 for pattern in pattern_list if len(pattern.parts) > 1)
    assert memo.cache_info().hits >= conjunctions
    assert [described(p) for p in warm] == [described(p) for p in cold]
    signature = lambda pceas: MergedDispatchIndex(
        [(i, pcea.dispatch_index()) for i, pcea in enumerate(pceas)]
    ).signature()
    assert signature(warm) == signature(cold)


@settings(deadline=None)
@given(data=st.data())
def test_the_multi_engine_matches_one_cold_evaluator_per_query_under_churn(data):
    shape_list = data.draw(shape_lists(), label="shapes")
    queries = data.draw(
        st.lists(
            st.tuples(st.sampled_from(shape_list).flatmap(patterns), st.sampled_from([3, 6])),
            min_size=1,
            max_size=8,
        ),
        label="queries",
    )
    stream = data.draw(stream_of(shape_list), label="stream")
    last = len(stream) - 1
    starts = [data.draw(st.integers(0, last // 2)) for _ in queries]
    stops = [data.draw(st.none() | st.integers(start + 1, last + 1)) for start in starts]
    cut = data.draw(st.integers(0, last), label="checkpoint before")
    oracles = [compiled_cold(pattern) for pattern, _ in queries]
    # Warm the memo in another order: a registration reuses the core of
    # whichever pattern of its shape came first.
    memo.cache_clear()
    for pattern, _ in data.draw(st.permutations(queries), label="warm-up order"):
        compile_pattern(pattern)

    engine = MultiQueryEngine()
    live = {}
    for position, tup in enumerate(stream):
        if position == cut:
            engine = checkpoint_and_restore(engine)
        for query, ((pattern, window), start, stop) in enumerate(zip(queries, starts, stops)):
            if stop == position:
                engine.unregister(live.pop(query)[0])
            elif start == position:
                oracle = StreamingEvaluator(oracles[query], window)
                oracle.position = position - 1
                handle = engine.register(pattern, window)
                live[query] = (handle, oracle)
                assert_index_is_a_cold_build(
                    engine._queries[handle.id].dispatch, engine.registry.get(handle).pcea, stream
                )
        outputs = engine.process(tup)
        for handle, oracle in live.values():
            assert outputs.pop(handle.id, []) == oracle.process(tup)
        assert not outputs
    for pattern, _ in queries:
        if len(pattern.parts) > 1:
            assert core_of(pattern)._dispatch_index is None


def test_the_key_tells_variable_structures_apart():
    """Same relations and arities, other variables: two shapes, two automata."""
    memo.cache_clear()
    star = conjunction(atom("A", "x", "y"), atom("B", "x", "z"))
    chain = conjunction(atom("A", "x", "y"), atom("B", "x", "y"))
    warm = [compile_pattern(star), compile_pattern(chain)]
    assert memo.cache_info().misses == 2
    assert described(warm[1]) == described(compiled_cold(chain))
    assert described(warm[0]) != described(warm[1])


# ------------------------------------------------------ what is not memoised
def test_a_non_hierarchical_conjunction_is_refused_every_time():
    pattern = conjunction(atom("A", "x"), atom("B", "y"), atom("C", "x", "y"))
    memo.cache_clear()
    for _ in range(2):
        with pytest.raises(PatternCompilationError):
            compile_pattern(pattern)
    info = memo.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_the_memo_keeps_at_most_maxsize_shapes():
    memo.cache_clear()
    maxsize = memo.cache_info().maxsize
    assert maxsize == compiler._SHAPE_CACHE
    for k in range(maxsize + 5):
        compile_pattern(conjunction(atom(f"S{k}", "x"), atom("T", "x", "y")))
    assert memo.cache_info().currsize == maxsize


def test_patterns_differing_only_in_constants_share_one_construction():
    """The ``multi_churn`` layout: 64 thresholds over 4 groups, 4 constructions."""
    memo.cache_clear()
    engine = MultiQueryEngine()
    for query in range(64):
        group = query % 4
        engine.register(
            conjunction(
                atom(f"G{group}R1", "x", "y1", filters=[("y1", "<", 200 + query)]),
                *(atom(f"G{group}R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", 200)]) for j in (2, 3)),
            ),
            window=128,
        )
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 60, 4)


def test_compiling_builds_no_index_on_the_core_automaton():
    """Engines build indexes on the bound automata the compiler hands out;
    the shared core automaton is only ever read for its transitions."""
    memo.cache_clear()
    pattern = conjunction(atom("T", "x"), atom("S", "x", "y", filters=[("y", "==", 1)]))
    pceas = [compile_pattern(pattern) for _ in range(2)]
    for pcea in pceas:
        StreamingEvaluator(pcea, window=4)
        MultiQueryEngine().register(pcea, window=4)
    assert pceas[0] is not pceas[1]
    assert core_of(pattern)._dispatch_index is None
    assert all(pcea._dispatch_index is not None for pcea in pceas)


# ------------------------------------------------------ the pinned checkpoint
PINNED = Path(__file__).parent / "data" / "multi_dsl_v4.snap"
PINNED_LENGTH = 600
SNAPSHOT_AT = 300
UNREGISTER_AT = 150
UNREGISTERED = 2


def pinned_patterns():
    """8 threshold patterns over 2 shapes: a 3-arm star and a 3-atom chain."""
    star = [
        (conjunction(
            atom("A1", "x", "y1", filters=[("y1", "<", 3 + k)]),
            atom("A2", "x", "y2", filters=[("y2", ">=", 2)]),
            atom("A3", "x", "y3"),
        ), 24)
        for k in range(4)
    ]
    chain = [
        (conjunction(
            atom("B1", "x"),
            atom("B2", "x", "y", filters=[("y", "<=", k)]),
            atom("B3", "x", "y", "z", filters=[("z", ">", 1)]),
        ), 40)
        for k in range(4)
    ]
    return star + chain


def pinned_stream():
    rng = random.Random(31)
    arities = {"A1": 2, "A2": 2, "A3": 2, "B1": 1, "B2": 2, "B3": 3}
    relations = sorted(arities)
    stream = []
    for _ in range(PINNED_LENGTH):
        relation = rng.choice(relations)
        values = (rng.randrange(3),) + tuple(rng.randrange(8) for _ in range(arities[relation] - 1))
        stream.append(Tuple(relation, values))
    return stream


def pinned_engine():
    engine = MultiQueryEngine()
    return engine, [engine.register(pattern, window) for pattern, window in pinned_patterns()]


def drive(engine, handles, stream, start, stop):
    """Outputs of positions ``start..stop-1``; ``UNREGISTERED`` leaves at ``UNREGISTER_AT``."""
    outputs = []
    for position in range(start, stop):
        if position == UNREGISTER_AT:
            engine.unregister(handles[UNREGISTERED])
        outputs.append(engine.process(stream[position]))
    return outputs


def write_pinned_snapshot(path=PINNED):
    """How ``multi_dsl_v4.snap`` was made (by the build before the memo)."""
    engine, handles = pinned_engine()
    drive(engine, handles, pinned_stream(), 0, SNAPSHOT_AT)
    snapshot_codec.save(str(path), engine.snapshot())


def test_a_pinned_multi_checkpoint_restores_through_the_warm_memo():
    """``multi_dsl_v4.snap`` was written by :func:`write_pinned_snapshot` with
    the build that compiled every pattern from scratch.  The same patterns,
    compiled again through the warm memo, restore it and continue exactly
    like an uninterrupted engine."""
    stream = pinned_stream()
    memo.cache_clear()
    continuous, handles = pinned_engine()
    expected = drive(continuous, handles, stream, 0, PINNED_LENGTH)[SNAPSHOT_AT:]
    assert sum(map(len, expected)) > 0
    before = memo.cache_info()
    restored = MultiQueryEngine()
    for k, (pattern, window) in enumerate(pinned_patterns()):
        if k != UNREGISTERED:
            restored.register(pattern, window)
    after = memo.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (7, 0)
    restored.restore(snapshot_codec.load(str(PINNED)))
    assert restored.handles() == continuous.handles()
    assert drive(restored, None, stream, SNAPSHOT_AT, PINNED_LENGTH) == expected


CHURN_GROUPS, CHURN_ARMS, CHURN_QUERIES, CHURN_WINDOW = 4, 3, 16, 48
CHURN_LENGTH, CHURN_EVERY = 480, 40

#: SHA-256 of :func:`churned_checkpoint`, written by the build before shape
#: templates and per-group plan patching.  That build inserted each relation's
#: plan in the order its registration first touched the relation — a string
#: set's, so its raw bytes varied with ``PYTHONHASHSEED`` — and the digest is
#: of its bytes with the merged signature's per-relation maps in name order,
#: which is how :meth:`MergedDispatchIndex.signature` now writes them.
PINNED_CHURN_DIGEST = "2ef3f768e3c10e25c4c26833ac5731a31f137bcd4f715c81ca3ef12c77ded74b"


def churn_pattern(query):
    """``multi_churn``'s layout, scaled down: a private threshold on arm 1,
    the group's shared one on the other arms."""
    group = query % CHURN_GROUPS
    parts = [atom(f"G{group}R1", "x", "y1", filters=[("y1", "<", 20 + query % 7)])]
    parts.extend(
        atom(f"G{group}R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", 20)])
        for j in range(2, CHURN_ARMS + 1)
    )
    return conjunction(*parts)


def churned_checkpoint():
    """Checkpoint bytes after a seeded run that unregisters its oldest query
    and registers a new one every ``CHURN_EVERY`` tuples."""
    rng = random.Random(36)
    relations = [f"G{g}R{j}" for g in range(CHURN_GROUPS) for j in range(1, CHURN_ARMS + 1)]
    stream = [
        Tuple(rng.choice(relations), (rng.randrange(4), rng.randrange(100))) for _ in range(CHURN_LENGTH)
    ]
    engine = MultiQueryEngine()
    live = [engine.register(churn_pattern(q), CHURN_WINDOW, name=f"q{q}") for q in range(CHURN_QUERIES)]
    next_query = CHURN_QUERIES
    for position, tup in enumerate(stream):
        if position and position % CHURN_EVERY == 0:
            engine.unregister(live.pop(0))
            live.append(engine.register(churn_pattern(next_query), CHURN_WINDOW, name=f"q{next_query}"))
            next_query += 1
        engine.process(tup)
    return snapshot_codec.dumps(engine.snapshot())


@pytest.mark.parametrize("warm", [False, True], ids=["cold memo", "warm memo"])
def test_a_churned_checkpoint_has_the_pinned_bytes(warm):
    if not warm:
        memo.cache_clear()
    assert hashlib.sha256(churned_checkpoint()).hexdigest() == PINNED_CHURN_DIGEST


# ----------------------------------------------------- the filtered unary
@settings(deadline=None)
@given(
    arity=st.integers(1, 3),
    repeated=st.booleans(),
    filters=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(OPERATORS + ("!=",)), st.sampled_from(CONSTANTS)),
        min_size=1,
        max_size=3,
    ),
    tuples=st.lists(
        st.tuples(st.sampled_from(["E", "F"]), st.lists(st.sampled_from(VALUES), max_size=4)),
        min_size=1,
        max_size=20,
    ),
)
def test_filtered_unary_holds_as_its_acceptor_accepts(arity, repeated, filters, tuples):
    terms = [Variable(f"v{i}") for i in range(arity)]
    if repeated:
        terms.append(terms[0])
    unary = compiler._FilteredUnary(
        AtomUnaryPredicate(Atom("E", tuple(terms))),
        tuple(AttributeFilter("E", position, op, constant) for position, op, constant in filters),
    )
    accept = unary.acceptor()
    for relation, values in tuples:
        tup = Tuple(relation, tuple(values))
        assert unary.holds(tup) == accept(tup)
