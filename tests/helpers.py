"""Shared fixtures and hypothesis strategies for the test suite.

Centralises the paper's running examples (schema ``σ0``, stream ``S0``, queries
``Q0``/``Q1``/``Q2``, automata ``C0``/``P0``) plus strategies for random
streams, random hierarchical queries and sets of queries that overlap.
"""

from __future__ import annotations

from typing import List, Sequence

from hypothesis import strategies as st

from repro.core.ccea import CCEA, CCEATransition
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
from repro.engine.dsl import atom, conjunction

#: ``(columnar, kernel)`` of every arena variant this build can run.
ARENAS = [(True, "python"), (False, "python")] + ([(True, "native")] if native_available() else [])


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
