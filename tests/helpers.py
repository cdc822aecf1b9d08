"""Shared fixtures and hypothesis strategies for the test suite.

Centralises the paper's running examples (schema ``σ0``, stream ``S0``, queries
``Q0``/``Q1``/``Q2``, automata ``C0``/``P0``) plus strategies for random
streams, random hierarchical queries and sets of queries that overlap, and the
seeded synthetic workloads (star groups, union storm, guarded disjunctions
under drifting / bursty / uniform skew) the dispatch and plan tests replay.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple as Tup

from hypothesis import strategies as st

from repro.core.ccea import CCEA, CCEATransition
from repro.core.dispatch import TransitionDispatchIndex
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    ProjectionEquality,
    RelationPredicate,
    TrueEquality,
    VariableAtomEquality,
)
from repro.core.kernel import native_available
from repro.cq.query import Atom, ConjunctiveQuery, Variable
from repro.cq.schema import Schema, Tuple
from repro.valuation import Valuation
from repro.engine.compiler import compile_pattern
from repro.engine.dsl import atom, conjunction, disjunction
from repro.multi.merged_index import MergedDispatchIndex

#: The ``kernel`` of every arena variant this build can run.
ARENAS = ["python"] + (["native"] if native_available() else [])


# ----------------------------------------------------------- paper's examples
SIGMA0 = Schema({"R": 2, "S": 2, "T": 1})

#: The stream ``S0`` of Section 2 (first eight tuples).
STREAM_S0: List[Tuple] = [
    Tuple("S", (2, 11)),   # 0
    Tuple("T", (2,)),      # 1
    Tuple("R", (1, 10)),   # 2
    Tuple("S", (2, 11)),   # 3
    Tuple("T", (1,)),      # 4
    Tuple("R", (2, 11)),   # 5
    Tuple("S", (4, 13)),   # 6
    Tuple("T", (1,)),      # 7
]

X, Y, Z, V, W = (Variable(name) for name in "xyzvw")

#: ``Q0(x, y) <- T(x), S(x, y), R(x, y)`` — hierarchical, no self joins.
QUERY_Q0 = ConjunctiveQuery(
    [X, Y], [Atom("T", (X,)), Atom("S", (X, Y)), Atom("R", (X, Y))], name="Q0"
)

#: ``Q1(x, y) <- T(x), R(x, y), S(2, y), T(x)`` — has self joins, not hierarchical
#: (it is not full either once the constant is involved); used for negative tests.
QUERY_Q1 = ConjunctiveQuery(
    [X, Y],
    [Atom("T", (X,)), Atom("R", (X, Y)), Atom("S", (2, Y)), Atom("T", (X,))],
    name="Q1",
)

#: The Figure-3 self-join query ``Q2(x,y,z,v) <- R(x,y,z), R(x,y,v), U(x,y)``.
QUERY_Q2 = ConjunctiveQuery(
    [X, Y, Z, V],
    [Atom("R", (X, Y, Z)), Atom("R", (X, Y, V)), Atom("U", (X, Y))],
    name="Q2",
)

#: The Figure-3 query ``Q1'(x,y,z,v,w) <- R(x,y,z), S(x,y,v), T(x,w), U(x,y)``
#: (hierarchical, deeper q-tree).  Named QUERY_STARDEEP to avoid confusion with Q1.
QUERY_STARDEEP = ConjunctiveQuery(
    [X, Y, Z, V, W],
    [
        Atom("R", (X, Y, Z)),
        Atom("S", (X, Y, V)),
        Atom("T", (X, W)),
        Atom("U", (X, Y)),
    ],
    name="Q1deep",
)

#: The acyclic but non-hierarchical query ``T(x), S(x, y), R(y)`` (Theorem 4.2 shape).
QUERY_NON_HIERARCHICAL = ConjunctiveQuery(
    [X, Y], [Atom("T", (X,)), Atom("S", (X, Y)), Atom("R", (Y,))], name="NH"
)


def example_ccea_c0() -> CCEA:
    """The CCEA ``C_0`` of Example 2.1: ``T(x); S(x,y); R(x,y)`` in this order."""
    t_pred = RelationPredicate("T")
    s_pred = RelationPredicate("S")
    r_pred = RelationPredicate("R")
    tx_sxy = ProjectionEquality({"T": (0,)}, {"S": (0,)})
    sxy_rxy = ProjectionEquality({"S": (0, 1)}, {"R": (0, 1)})
    return CCEA(
        states={"q0", "q1", "q2"},
        initial={"q0": (t_pred, {"dot"})},
        transitions=[
            CCEATransition("q0", s_pred, tx_sxy, {"dot"}, "q1"),
            CCEATransition("q1", r_pred, sxy_rxy, {"dot"}, "q2"),
        ],
        final={"q2"},
    )


def example_pcea_p0() -> PCEA:
    """The PCEA ``P_0`` of Example 3.3 / Figure 1 (right).

    A ``T(x)`` and an ``S(x, y)`` (in either order) joined later by an
    ``R(x, y)`` matching both.
    """
    atom_t, atom_s, atom_r = Atom("T", (X,)), Atom("S", (X, Y)), Atom("R", (X, Y))
    return PCEA(
        states={"q0", "q1", "q2"},
        transitions=[
            PCEATransition(frozenset(), AtomUnaryPredicate(atom_t), {}, {"dot"}, "q0"),
            PCEATransition(frozenset(), AtomUnaryPredicate(atom_s), {}, {"dot"}, "q1"),
            PCEATransition(
                {"q0", "q1"},
                AtomUnaryPredicate(atom_r),
                {
                    "q0": AtomJoinEquality(atom_t, atom_r),
                    "q1": AtomJoinEquality(atom_s, atom_r),
                },
                {"dot"},
                "q2",
            ),
        ],
        final={"q2"},
    )


# ------------------------------------------------------- hypothesis strategies
def tuples_strategy(
    schema: Schema = SIGMA0, domain: int = 4
) -> st.SearchStrategy[Tuple]:
    """Random tuples of ``schema`` with small integer values (to force joins)."""
    names = sorted(schema.relation_names)

    def build(name: str, values: List[int]) -> Tuple:
        return Tuple(name, tuple(values[: schema.arity(name)]))

    return st.builds(
        build,
        st.sampled_from(names),
        st.lists(st.integers(min_value=0, max_value=domain - 1), min_size=3, max_size=3),
    )


def streams_strategy(
    schema: Schema = SIGMA0, max_length: int = 10, domain: int = 3
) -> st.SearchStrategy[List[Tuple]]:
    """Short random streams with a small value domain (many accidental joins)."""
    return st.lists(tuples_strategy(schema, domain), min_size=0, max_size=max_length)


def star_query(arms: int, prefix: str = "A") -> ConjunctiveQuery:
    """``Q(x, ȳ) <- A1(x, y1), ..., Ak(x, yk)``."""
    x = Variable("x")
    head = [x]
    atoms = []
    for j in range(1, arms + 1):
        y = Variable(f"y{j}")
        head.append(y)
        atoms.append(Atom(f"{prefix}{j}", (x, y)))
    return ConjunctiveQuery(head, atoms, name="Star")


def star_schema(arms: int, prefix: str = "A") -> Schema:
    return Schema({f"{prefix}{j}": 2 for j in range(1, arms + 1)})


# ------------------------------------------- automata for the (state, key) slots
def slot_pcea(leaf_labels, feeders, second_key, plain_reader, final_leaf, mid_labels):
    """Readers of one leaf state ``a``, stressing how ``H`` is keyed and written.

    ``a`` is fed by one source-less transition per ``feeders`` relation and
    per label set in ``leaf_labels`` (multi-label sets, several transitions
    into one state).  ``C``, ``D`` and ``M`` read it on its first attribute —
    one shared slot — unless ``second_key`` moves ``D`` to the second
    attribute (a second left key plan: two slots); ``plain_reader`` adds ``E``
    with a hand-written key (its own slot).  ``M`` reaches ``m``, which is
    final *and* read by ``N``; ``final_leaf`` makes ``a`` final as well.
    Every tuple is ``(x, y)``.
    """

    def on(position, reader, earlier=feeders):
        return ProjectionEquality({rel: (position,) for rel in earlier}, {reader: (0,)})

    transitions = [
        PCEATransition(frozenset(), RelationPredicate(rel), {}, labels, "a")
        for rel in feeders
        for labels in leaf_labels
    ]
    readers = [("C", on(0, "C"), {"c"}, "f"), ("D", on(int(second_key), "D"), {"d"}, "f")]
    if plain_reader:
        readers.append(("E", TrueEquality(), {"e"}, "f"))
    readers.append(("M", on(0, "M"), mid_labels, "m"))
    transitions += [
        PCEATransition({"a"}, RelationPredicate(rel), {"a": join}, labels, target)
        for rel, join, labels, target in readers
    ]
    transitions.append(PCEATransition({"m"}, RelationPredicate("N"), {"m": on(0, "N", "M")}, {"n"}, "f"))
    return PCEA({"a", "m", "f"}, transitions, {"m", "f"} | ({"a"} if final_leaf else set()))


_slot_labels = st.frozensets(st.sampled_from("uvw"), min_size=1, max_size=3)
#: Each switch takes ``a`` off the store-through path; about 30 % stay on it.
_slot_switch = st.sampled_from([False, False, True])

slot_automata = st.builds(
    slot_pcea,
    leaf_labels=st.lists(_slot_labels, min_size=1, max_size=3, unique=True),
    feeders=st.sampled_from(["A", "AB"]),
    second_key=_slot_switch,
    plain_reader=_slot_switch,
    final_leaf=_slot_switch,
    mid_labels=_slot_labels,
)

#: Streams follow ``A B M C D N E`` unless a pick overrides the relation, on a
#: two-value domain: purely random streams rarely reach ``N``.
_SLOT_PATTERN = "ABMCDNE"
slot_streams = st.lists(
    st.tuples(st.none() | st.sampled_from(_SLOT_PATTERN), st.integers(0, 1), st.integers(0, 1)),
    min_size=6,
    max_size=18,
).map(
    lambda picks: [
        Tuple(relation or _SLOT_PATTERN[index % len(_SLOT_PATTERN)], (x, y))
        for index, (relation, x, y) in enumerate(picks)
    ]
)


# ------------------------------------------- queries that overlap, for one store
@st.composite
def _overlapping_query(draw):
    """A star (every arm joins on ``x`` alone) or a hierarchical query (the
    first two arms also share ``y``) over a sorted subset of ``A``–``C``, each
    arm optionally filtered: a small pool, so independently drawn queries have
    arms in common — same relation, same filter, same position, hence same
    label — others that differ in one of those, and others still disjoint."""
    relations = draw(st.sampled_from(["AB", "AC", "BC", "ABC"]))
    nested = draw(st.booleans())
    arms = []
    for index, relation in enumerate(relations):
        second = "y" if nested and index < 2 else f"y{index}"
        threshold = draw(st.sampled_from([None, 1, 2]))
        filters = [] if threshold is None else [(second, "<", threshold)]
        arms.append(atom(relation, "x", second, filters=filters))
    return conjunction(*arms), draw(st.sampled_from([3, 5]))


#: 2–6 ``(pattern, window)`` pairs: mixed windows, and every other draw
#: registers one of the queries twice.
overlapping_queries = st.lists(_overlapping_query(), min_size=2, max_size=5).flatmap(
    lambda queries: st.just(queries) | st.sampled_from(queries).map(lambda twin: queries + [twin])
)

#: Streams over the pool's relations on a domain small enough to join often.
overlapping_streams = st.lists(
    st.builds(
        lambda relation, x, y: Tuple(relation, (x, y)),
        st.sampled_from("ABC"),
        st.integers(0, 1),
        st.integers(0, 2),
    ),
    min_size=8,
    max_size=24,
)


def rebuild_index(engine) -> None:
    """Re-merge a ``MultiQueryEngine``'s index from scratch: every query
    re-added, in registration order, where it sits — the reference the
    incrementally patched index is compared with."""
    engine._merged = MergedDispatchIndex(())
    for query in engine._ordered():
        engine._merged.add_query(query, query.dispatch, query.store, query.since, query.slots)


def one_member(pcea) -> MergedDispatchIndex:
    """A one-member merged index over ``pcea``: the plans and statistics an
    engine evaluating it alone reads (entry ``index`` == transition index)."""
    return MergedDispatchIndex([("q", TransitionDispatchIndex(pcea.transitions, final=pcea.final))])


# ------------------------------------------------ seeded synthetic workloads
PAYLOAD_DOMAIN = 1_000


def _uniform_stream(relations, length: int, key_domain: int, seed: int) -> List[Tuple]:
    rng = random.Random(seed)
    return [
        Tuple(rng.choice(relations), (rng.randrange(key_domain), rng.randrange(PAYLOAD_DOMAIN)))
        for _ in range(length)
    ]


def multi_star_workload(
    groups: int,
    length: int,
    arms: int = 2,
    key_domain: int = 32,
    selectivity: float = 1.0,
    seed: int = 0,
) -> Tup[PCEA, List[Tuple]]:
    """One PCEA — the disjunction of ``groups`` star patterns, group ``g`` over
    its private relations ``G<g>R1 … G<g>R<arms>`` — and a uniform stream.
    ``selectivity < 1`` filters every atom on ``y < selectivity·domain``."""
    threshold = int(PAYLOAD_DOMAIN * selectivity)

    def make_atom(g: int, j: int):
        filters = [(f"y{j}", "<", threshold)] if selectivity < 1.0 else []
        return atom(f"G{g}R{j}", "x", f"y{j}", filters=filters)

    parts = [conjunction(*(make_atom(g, j) for j in range(1, arms + 1))) for g in range(groups)]
    pcea = compile_pattern(disjunction(*parts) if groups > 1 else parts[0])
    relations = [f"G{g}R{j}" for g in range(groups) for j in range(1, arms + 1)]
    return pcea, _uniform_stream(relations, length, key_domain, seed)


def shared_star_queries(
    num_queries: int,
    length: int,
    arms: int = 3,
    groups: int = 4,
    key_domain: int = 32,
    selectivity: float = 0.2,
    seed: int = 0,
) -> Tup[List[PCEA], List[Tuple]]:
    """``num_queries`` star patterns clustered into ``groups`` relation
    alphabets: query ``q`` lives in group ``q % groups``, shares the filtered
    arms ``R2 …`` with its group and has a private threshold on ``R1``."""
    groups = max(1, min(groups, num_queries))
    base_threshold = int(PAYLOAD_DOMAIN * selectivity)

    def build_query(q: int) -> PCEA:
        g = q % groups
        parts = [atom(f"G{g}R1", "x", "y1", filters=[("y1", "<", base_threshold + q)])]
        parts.extend(
            atom(f"G{g}R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", base_threshold)])
            for j in range(2, arms + 1)
        )
        return compile_pattern(conjunction(*parts))

    queries = [build_query(q) for q in range(num_queries)]
    relations = [f"G{g}R{j}" for g in range(groups) for j in range(1, arms + 1)]
    return queries, _uniform_stream(relations, length, key_domain, seed)


def union_storm_workload(
    groups: int,
    length: int,
    variants: int = 8,
    key_domain: int = 8,
    arm_fraction: float = 0.75,
    seed: int = 0,
) -> Tup[PCEA, List[Tuple]]:
    """Group ``g`` reads its arm relation ``G<g>A`` through ``variants``
    transitions (distinct label sets) into one pending state, closed by
    ``G<g>C`` joining on attribute 0: ``DS_w`` work dominates the update."""
    states = set()
    transitions = []
    final = set()
    for g in range(groups):
        arm_relation, closing = f"G{g}A", f"G{g}C"
        state, accept = ("q", g), ("f", g)
        states.update((state, accept))
        final.add(accept)
        transitions.extend(
            PCEATransition(frozenset(), RelationPredicate(arm_relation), {}, {f"g{g}v{k}"}, state)
            for k in range(variants)
        )
        transitions.append(
            PCEATransition(
                frozenset({state}),
                RelationPredicate(closing),
                {state: ProjectionEquality({arm_relation: (0,)}, {closing: (0,)})},
                {f"g{g}close"},
                accept,
            )
        )
    pcea = PCEA(states=states, transitions=transitions, final=final)
    rng = random.Random(seed)
    stream = []
    for _ in range(length):
        g = rng.randrange(groups)
        relation = f"G{g}A" if rng.random() < arm_fraction else f"G{g}C"
        stream.append(Tuple(relation, (rng.randrange(key_domain), rng.randrange(PAYLOAD_DOMAIN))))
    return pcea, stream


def guarded_disjunction_workload(
    branches: int,
    length: int,
    hot_fraction: float = 0.8,
    hot_values: int = 2,
    seed: int = 0,
) -> Tup[PCEA, List[Tuple]]:
    """``E(t, y)[t == b]`` for every branch ``b`` in one disjunction, over a
    stream where ``hot_fraction`` of the events carry one of ``hot_values``
    hot ``t`` values: at most one guard can match a tuple."""
    pattern = disjunction(*(atom("E", "t", "y", filters=[("t", "==", b)]) for b in range(branches)))
    rng = random.Random(seed)
    stream = []
    for _ in range(length):
        if rng.random() < hot_fraction:
            value = rng.randrange(min(hot_values, branches))
        else:
            value = rng.randrange(branches)
        stream.append(Tuple("E", (value, rng.randrange(PAYLOAD_DOMAIN))))
    return compile_pattern(pattern), stream


def _guarded_pair_queries(num_queries: int, filter_selectivity: float) -> List[PCEA]:
    """Query ``q`` is ``E(t, y)[t == q] ∨ E(t, y)[y < threshold]``: a private
    guarded branch plus an unguarded filter branch every query shares."""
    threshold = max(1, int(PAYLOAD_DOMAIN * filter_selectivity))
    return [
        compile_pattern(
            disjunction(
                atom("E", "t", "y", filters=[("t", "==", q)]),
                atom("E", "t", "y", filters=[("y", "<", threshold)]),
            )
        )
        for q in range(num_queries)
    ]


def _skewed_stream(hot_at, num_queries: int, length: int, hot_fraction: float, seed: int):
    """``E`` tuples whose ``t`` is ``hot_at(i)`` with probability ``hot_fraction``."""
    rng = random.Random(seed)
    stream: List[Tuple] = []
    for i in range(length):
        hot = hot_at(i)
        value = hot if rng.random() < hot_fraction else rng.randrange(num_queries)
        stream.append(Tuple("E", (value, rng.randrange(PAYLOAD_DOMAIN))))
    return stream


def drifting_guard_queries(
    num_queries: int,
    length: int,
    phases: int = 4,
    hot_fraction: float = 0.95,
    filter_selectivity: float = 0.02,
    seed: int = 0,
) -> Tup[List[PCEA], List[Tuple]]:
    """Guarded-pair queries + a stream in ``phases`` equal segments, the hot
    guard value jumping to another query's at every segment boundary."""
    phase_length = max(1, length // max(1, phases))
    hot_at = lambda i: ((i // phase_length) * 7919) % num_queries
    return (
        _guarded_pair_queries(num_queries, filter_selectivity),
        _skewed_stream(hot_at, num_queries, length, hot_fraction, seed),
    )


def bursty_guard_queries(
    num_queries: int,
    length: int,
    burst_every: int = 2_000,
    burst_length: int = 500,
    hot_fraction: float = 0.95,
    filter_selectivity: float = 0.02,
    seed: int = 0,
) -> Tup[List[PCEA], List[Tuple]]:
    """Guarded-pair queries + a stream hot on guard ``0`` except for a
    ``burst_length`` burst on another query's guard every ``burst_every``."""

    def hot_at(i: int) -> int:
        burst = i // burst_every
        return 1 + (burst * 31) % (num_queries - 1) if i % burst_every < burst_length else 0

    return (
        _guarded_pair_queries(num_queries, filter_selectivity),
        _skewed_stream(hot_at, num_queries, length, hot_fraction, seed),
    )


def wildcard_mix_queries(
    num_queries: int, length: int, key_domain: int = 32, seed: int = 0
) -> Tup[List[PCEA], List[Tuple]]:
    """Half pure wildcards ``E(t, y)``, half privately guarded, over a uniform
    stream: no guard value is hot."""
    queries = [
        compile_pattern(atom("E", "t", "y", filters=[] if q % 2 == 0 else [("t", "==", q)]))
        for q in range(num_queries)
    ]
    rng = random.Random(seed)
    stream = [
        Tuple("E", (rng.randrange(key_domain), rng.randrange(PAYLOAD_DOMAIN)))
        for _ in range(length)
    ]
    return queries, stream


def count_valuation_constructions(patch):
    """Count ``Valuation`` objects built through any constructor."""
    built = [0]
    for name in ("_from_packed", "_from_parts"):
        inner = getattr(Valuation, name).__func__

        def counting(cls, *args, _inner=inner):
            built[0] += 1
            return _inner(cls, *args)

        patch.setattr(Valuation, name, classmethod(counting))
    init = Valuation.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    patch.setattr(Valuation, "__init__", counting_init)
    return built
