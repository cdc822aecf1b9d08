"""Threshold families (``repro.core.dispatch.EvalFamily``).

Predicate groups whose unaries are ``base ∧ (attr ⋈ c)`` with one base,
relation, position and operator ``⋈ ∈ {<, ≤, >, ≥}`` are decided by one base
call and one bisect of the value into the sorted constants.  Covered here:

* a hypothesis differential: 1–40 threshold queries over shared and distinct
  bases (one carries an equality filter, so its families sit in a guard
  bucket), all four operators, constants repeated across queries, ``int`` /
  ``float`` / NaN / ``str`` / ``None`` values at the compared position,
  register/unregister churn and a checkpoint/restore mid-stream — the
  multi-query engine against one ``StreamingEvaluator`` per query (an
  automaton with one threshold forms no family), and the patched merged
  index against a from-scratch rebuild after every mutation;
* a disjunction of one atom under two or three thresholds, so the
  single-query (``bind``), every-join-scanned and K=1 plans each hold a family, against
  the naive ``outputs_upto``;
* the two exactness rules — a NaN, or a value that does not compare with the
  constants, is decided by the groups' own acceptors, never by the bisect
  and never as "no match" — and which constants form no family;
* the counter contract: one ``predicate_evaluations`` per ``R1`` tuple
  whatever the number of queries, every other counter as the plans without
  families give, and no family in the ``star_sparse`` / ``union_enum`` /
  ``served_tcp`` automata.
"""

from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dispatch
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import TruePredicate, UnaryPredicate
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.engine.compiler import compile_pattern
from repro.engine.dsl import atom, conjunction, disjunction
from repro.multi import MergedDispatchIndex, MultiQueryEngine, compile_query
from repro.runtime import snapshot as snapshot_codec
from repro.streams.generators import HCQWorkloadGenerator

from helpers import scanned, one_member, shared_star_queries, union_storm_workload

NAN = float("nan")
OPERATORS = ("<", "<=", ">", ">=")
#: Numbers of both kinds and strings; few enough that queries repeat them.
CONSTANTS = (0, 1, 1.5, 2, 3, "a", "b")
#: What the compared position may hold.
VALUES = (0, 1, 1.5, 2, 3, NAN, "a", "b", None)
#: Filters beside the threshold: none, an equality (a constant guard, so the
#: family sits in a value bucket), a non-order filter, and an order filter on
#: another position (which splits off first, the ``y`` threshold joining the base).
BASES = ((), (("t", "==", 1),), (("t", "!=", 0),), (("t", "<", 2),))


def threshold_arm(relation, base, operator, constant):
    return atom(relation, "t", "y", filters=[*base, ("y", operator, constant)])


#: ``(relation, base, operator)``: what the queries of one family share.
templates = st.tuples(st.sampled_from("EF"), st.sampled_from(BASES), st.sampled_from(OPERATORS))


@st.composite
def threshold_queries(draw, templates):
    """A query with one threshold on one of ``templates`` — the arm alone, or
    joined with ``A(t)`` — and its window."""
    relation, base, operator = draw(st.sampled_from(templates))
    arm = threshold_arm(relation, base, operator, draw(st.sampled_from(CONSTANTS)))
    pattern = arm if draw(st.booleans()) else conjunction(atom("A", "t"), arm)
    return pattern, draw(st.sampled_from([3, 5]))


events = st.one_of(
    st.builds(
        lambda relation, t, y: Tuple(relation, (t, y)),
        st.sampled_from("EF"),
        st.integers(0, 2),
        st.sampled_from(VALUES),
    ),
    st.builds(lambda t: Tuple("A", (t,)), st.integers(0, 2)),
)


def served_plans(index):
    """``(where, plan)`` for every plan ``plan_for`` can return."""
    yield "*", index.wildcard_plan
    for relation, plan in index.plans.items():
        split = index.guarded.get(relation)
        if split is None:
            yield relation, plan
            continue
        yield (relation, None), split[0]
        for position, by_value in split[1]:
            for value, bucket in by_value.items():
                yield (relation, position, repr(value)), bucket


def family_layout(index):
    """Every family: where it is served, its key and its distinct constants."""
    return {
        (where, family.members[0].family[0]): tuple(dict.fromkeys(family.constants))
        for where, plan in served_plans(index)
        for family in plan.families
    }


def assert_patched_equals_rebuilt(engine):
    queries = [engine._queries[qid] for qid in sorted(engine._queries)]
    rebuilt = MergedDispatchIndex([(query, query.dispatch) for query in queries])
    assert engine._merged.signature() == rebuilt.signature()
    assert family_layout(engine._merged) == family_layout(rebuilt)
    assert engine.dispatch_info()["threshold_families"] == rebuilt.describe()["threshold_families"]


def checkpoint_and_restore(engine):
    """A fresh engine holding the same queries, restored from ``engine``'s snapshot."""
    text = snapshot_codec.dumps(engine.snapshot())
    fresh = MultiQueryEngine()
    for entry in engine.registry.entries():
        fresh.register(entry.pcea, entry.handle.window, name=entry.handle.name)
    fresh.restore(snapshot_codec.loads(text))
    return fresh


# ----------------------------------------------------------- the differential
@settings(deadline=None)
@given(data=st.data())
def test_the_multi_engine_matches_one_evaluator_per_query_under_churn(data):
    stream = data.draw(st.lists(events, min_size=8, max_size=40), label="stream")
    shared = data.draw(st.lists(templates, min_size=1, max_size=3), label="bases")
    queries = data.draw(st.lists(threshold_queries(shared), min_size=1, max_size=40), label="queries")
    last = len(stream) - 1
    starts = [data.draw(st.integers(0, last // 2)) for _ in queries]
    # None: never unregistered; otherwise unregistered before that tuple.
    stops = [data.draw(st.none() | st.integers(start + 1, last + 1)) for start in starts]
    cut = data.draw(st.integers(0, last), label="checkpoint before")

    engine = MultiQueryEngine()
    live = {}  # query -> (handle, its own evaluator, aligned to global positions)
    for position, tup in enumerate(stream):
        if position == cut:
            engine = checkpoint_and_restore(engine)
            assert_patched_equals_rebuilt(engine)
        for query, ((pattern, window), start, stop) in enumerate(zip(queries, starts, stops)):
            if stop == position:
                engine.unregister(live.pop(query)[0])
                assert_patched_equals_rebuilt(engine)
            elif start == position:
                oracle = StreamingEvaluator(compile_pattern(pattern), window)
                oracle.position = position - 1
                live[query] = (engine.register(pattern, window), oracle)
                assert_patched_equals_rebuilt(engine)
        outputs = engine.process(tup)
        for handle, oracle in live.values():
            assert outputs.pop(handle.id, []) == oracle.process(tup)
        assert not outputs  # nothing for a query that is not live


def several_thresholds(base, operator, constants, joined):
    """One atom under each threshold, as one disjunction (one automaton)."""
    arms = [threshold_arm("E", base, operator, constant) for constant in constants]
    if joined:
        arms = [conjunction(atom("A", "t"), arm) for arm in arms]
    return compile_pattern(disjunction(*arms))


@settings(deadline=None)
@given(
    base=st.sampled_from(BASES),
    operator=st.sampled_from(OPERATORS),
    constants=st.lists(st.sampled_from(CONSTANTS), min_size=2, max_size=3),
    joined=st.booleans(),
    stream=st.lists(events, min_size=1, max_size=12),
)
def test_one_automaton_with_several_thresholds_matches_the_naive_oracle(
    base, operator, constants, joined, stream
):
    pcea = several_thresholds(base, operator, constants, joined)
    window = 4
    expected = pcea.outputs_upto(stream, len(stream) - 1, window=window)
    multi = MultiQueryEngine()
    handle = multi.register(pcea, window)
    engines = [
        StreamingEvaluator(pcea, window),
        StreamingEvaluator(pcea, window, arena=False),
        StreamingEvaluator(scanned(pcea), window),
    ]
    # The scanned automaton's merged index, the automaton's own plans (a
    # one-member index) and the multi engine's index all hold the family,
    # wherever the guard puts it.
    probe = Tuple("E", (1, 0))
    plans = [engines[2]._merged.plan_for(probe), one_member(pcea).plan_for(probe), multi._merged.plan_for(probe)]
    kinds = {}
    for constant in set(constants):
        kinds[type(constant) is str] = kinds.get(type(constant) is str, 0) + 1
    familied = base != (("t", "<", 2),) and max(kinds.values()) > 1
    assert [len(plan.families) > 0 for plan in plans] == [familied] * 3
    for position, tup in enumerate(stream):
        runs = [engine.process(tup) for engine in engines]
        runs.append(multi.process(tup).get(handle.id, []))
        for outputs in runs:
            assert len(outputs) == len(set(outputs))
            assert set(outputs) == expected[position]


# ------------------------------------------------------------ exactness rules
def single_atom_thresholds(operator, constants):
    return several_thresholds((), operator, constants, joined=False)


def every_engine(pcea, window=4):
    multi = MultiQueryEngine()
    handle = multi.register(pcea, window)
    engines = [StreamingEvaluator(pcea, window), StreamingEvaluator(scanned(pcea), window)]
    return lambda tup: [engine.process(tup) for engine in engines] + [
        multi.process(tup).get(handle.id, [])
    ]


@pytest.mark.parametrize("operator", ["<=", ">="])
def test_nan_under_a_non_strict_operator_accepts_nothing(operator):
    """A bare ``bisect_left`` puts NaN before every constant and a bare
    ``bisect_right`` after every one: either way every member of a ``<=``
    resp. ``>=`` family would be accepted, where every acceptor says no."""
    pcea = single_atom_thresholds(operator, [1, 2, 3])
    nan = Tuple("E", (0, NAN))
    (family,) = one_member(pcea).plan_for(nan).families
    assert not family.held(nan).members
    assert len(family.held(Tuple("E", (0, 2))).members) == 2  # the bisect still decides numbers
    process = every_engine(pcea)
    assert process(nan) == [[], [], []]
    assert [len(outputs) for outputs in process(Tuple("E", (0, 2)))] == [2, 2, 2]


@pytest.mark.parametrize("operator", ["<", "<=", ">", ">="])
def test_a_family_that_holds_no_member_returns_the_shared_empty_group(operator):
    """A bisect that selects no member, and a fallback no group accepts,
    hand ``fire`` the one shared empty group instead of building a fresh one."""
    pcea = single_atom_thresholds(operator, [1, 2, 3])
    outside = Tuple("E", (0, 9 if operator.startswith("<") else -9))
    (family,) = one_member(pcea).plan_for(outside).families
    assert family.held(outside) is dispatch._NONE_HELD
    assert family.held(Tuple("E", (0, NAN))) is dispatch._NONE_HELD
    assert family.held(Tuple("E", (0, 2))).members


@pytest.mark.parametrize("value", ["a", None, (1,)])
def test_a_value_that_does_not_compare_is_rejected_by_every_member(value):
    pcea = single_atom_thresholds("<", [1, 2, 3])
    tup = Tuple("E", (0, value))
    (family,) = one_member(pcea).plan_for(tup).families
    assert not family.held(tup).members
    assert every_engine(pcea)(tup) == [[], [], []]


@dataclass(frozen=True)
class NoneIsLow(UnaryPredicate):
    """``E`` tuples whose ``y`` is below ``constant`` — or missing (``None``).

    Its threshold split holds wherever ``y < constant`` is defined; ``None``
    does not compare, so there the engines must ask :meth:`holds` (a family
    that read ``TypeError`` as "no match" would reject it)."""

    constant: int

    def holds(self, tup):
        if tup.relation != "E" or len(tup.values) < 2:
            return False
        y = tup.values[1]
        try:
            return y is None or y < self.constant
        except TypeError:
            return False

    def dispatch_relations(self):
        return frozenset({"E"})

    def canonical_key(self):
        return ("none-is-low", self.constant)

    def threshold(self):
        return (TruePredicate(), "E", 1, "<", self.constant)


def test_the_fallback_asks_each_group_not_no_match():
    pcea = PCEA(
        ["p", "q"],
        [
            PCEATransition({}, NoneIsLow(1), {}, {"a"}, "p"),
            PCEATransition({}, NoneIsLow(2), {}, {"b"}, "q"),
        ],
        ["p", "q"],
    )
    missing = Tuple("E", (0, None))
    (family,) = one_member(pcea).plan_for(missing).families
    assert len(family.held(missing).members) == 2
    assert [len(outputs) for outputs in every_engine(pcea)(missing)] == [2, 2, 2]
    assert [len(outputs) for outputs in every_engine(pcea)(Tuple("E", (0, 1)))] == [1, 1, 1]


@pytest.mark.parametrize(
    "operator, constants",
    [("<", [1, "a"]), ("<", [NAN, 2]), ("<", [2, 2]), ("==", [1, 2]), ("!=", [1, 2])],
    ids=["int-and-str", "nan-constant", "one-constant", "equality", "inequality"],
)
def test_these_thresholds_form_no_family(operator, constants):
    pcea = single_atom_thresholds(operator, constants)
    merged = one_member(pcea)
    assert all(plan.families == () for _, plan in served_plans(merged))
    assert merged.describe()["threshold_families"] == 0


def test_int_and_float_constants_share_a_family_and_str_ones_their_own():
    pcea = single_atom_thresholds(">=", [1, 2.5, 3, "a", "b"])
    (plan,) = one_member(pcea).plans.values()
    assert {tuple(family.constants) for family in plan.families} == {(1, 2.5, 3), ("a", "b")}
    assert plan.groups == [] and plan.total == 5


# ------------------------------------------------------------ counter contract
@pytest.mark.parametrize("queries", [8, 64, 512])
def test_a_family_costs_one_evaluation_per_tuple_whatever_the_query_count(queries, monkeypatch):
    """``shared_star_queries`` gives every query a private ``R1`` threshold:
    without families a ``R1`` tuple evaluates one acceptor per query of its
    group, with them one base.  Everything else is counted as before."""
    length, window, groups = 300, 32, 4
    pceas, stream = shared_star_queries(queries, length, groups=groups, seed=queries)
    engine = MultiQueryEngine(collect_stats=True)
    handles = [engine.register(pcea, window) for pcea in pceas]
    # The plans without families: no unary splits.  Fresh automata, as the
    # dispatch index an automaton builds first is the one it keeps.
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "threshold_family", lambda unary: None)
        unsplit, _ = shared_star_queries(queries, length, groups=groups, seed=queries)
        reference = MultiQueryEngine(collect_stats=True)
        reference_handles = [reference.register(pcea, window) for pcea in unsplit]
    assert engine.dispatch_info()["threshold_families"] == groups
    assert reference.dispatch_info()["threshold_families"] == 0
    arm_tuples = 0
    for tup in stream:
        before = engine.stats.predicate_evaluations, reference.stats.predicate_evaluations
        ours, theirs = engine.process(tup), reference.process(tup)
        assert [ours.get(h.id) for h in handles] == [theirs.get(h.id) for h in reference_handles]
        if tup.relation.endswith("R1"):
            arm_tuples += 1
            assert engine.stats.predicate_evaluations - before[0] == 1
            assert reference.stats.predicate_evaluations - before[1] == queries // groups
    assert arm_tuples > 50
    ours, theirs = asdict(engine.stats), asdict(reference.stats)
    judged = lambda stats: stats.pop("predicate_evaluations") + stats.pop("predicate_cache_hits")
    assert judged(ours) == judged(theirs)
    assert ours == theirs


def test_the_benchmark_automata_build_no_family():
    """``star_sparse``, ``union_enum`` and ``served_tcp`` run the unchanged
    group loop: every plan any of their engines builds has ``families == ()``."""
    star = hcq_to_pcea(parse_query(str(HCQWorkloadGenerator(arms=3, key_domain=1024, seed=1).query())))
    union, _ = union_storm_workload(1, 0)
    served = [
        compile_query(f"Q{g}(x, y) <- G{g}T(x), G{g}S(x, y), G{g}R(x, y)") for g in range(16)
    ]
    indexes = []
    for pcea in (star, union, *served):
        indexes += [one_member(pcea), StreamingEvaluator(pcea, 512)._merged]
    indexes.append(MergedDispatchIndex([(pcea, pcea.dispatch_index()) for pcea in served]))
    multi = MultiQueryEngine()
    for pcea in served:
        multi.register(pcea, 512)
    indexes.append(multi._merged)
    for index in indexes:
        assert all(plan.families == () for _, plan in served_plans(index))


def test_every_mode_reports_threshold_families():
    pcea = single_atom_thresholds("<", [1, 2, 3])
    multi = MultiQueryEngine()
    multi.register(pcea, 4)
    infos = [
        StreamingEvaluator(pcea, 4).dispatch_info(),
        StreamingEvaluator(scanned(pcea), 4).dispatch_info(),
        multi.dispatch_info(),
    ]
    assert infos[0].keys() == infos[1].keys() == infos[2].keys()
    assert [info["threshold_families"] for info in infos] == [1, 1, 1]
