"""repro — a reproduction of "Complex Event Recognition meets Hierarchical
Conjunctive Queries" (Pinto & Riveros, PODS 2024).

The package provides:

* a relational / conjunctive-query substrate (:mod:`repro.cq`),
* classical and parallelized finite automata (:mod:`repro.automata`),
* the paper's contribution — CCEA, PCEA, the HCQ→PCEA translation and the
  streaming evaluation algorithm with output-linear delay (:mod:`repro.core`),
* the shared streaming runtime behind all three evaluators — eviction
  sweep, arena release, batching, statistics (:mod:`repro.runtime`),
* baseline engines used for comparison (:mod:`repro.baselines`),
* stream abstractions and synthetic workload generators (:mod:`repro.streams`), and
* a small CER pattern DSL compiled to PCEA (:mod:`repro.engine`).

Quickstart
----------
>>> from repro import parse_query, hcq_to_pcea, StreamingEvaluator
>>> query = parse_query("Q(x, y) <- T(x), S(x, y), R(x, y)")
>>> pcea = hcq_to_pcea(query)
>>> engine = StreamingEvaluator(pcea, window=100)
"""

from repro.valuation import Valuation, product_of, is_simple_product
from repro.cq.schema import Schema, Tuple, make_tuple
from repro.cq.bag import Bag
from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery, Variable, parse_query
from repro.cq.hierarchical import QTree, build_q_tree, is_hierarchical
from repro.cq.acyclic import build_join_tree, is_acyclic
from repro.cq.homomorphism import bag_semantics, chaudhuri_vardi_semantics
from repro.cq.stream_semantics import cq_stream_output, cq_stream_new_outputs
from repro.automata.nfa import NFA, DFA
from repro.automata.pfa import PFA, determinize_pfa
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    AttributeFilter,
    EqualityPredicate,
    LambdaBinaryPredicate,
    LambdaUnaryPredicate,
    OrderPredicate,
    ProjectionEquality,
    RelationPredicate,
    SelfJoinEquality,
    SelfJoinUnaryPredicate,
    TrueEquality,
    TruePredicate,
    VariableAtomEquality,
)
from repro.core.ccea import CCEA, CCEATransition, chain_ccea
from repro.core.pcea import PCEA, PCEATransition, check_unambiguous_on_stream
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.arena import ArenaDataStructure, BOTTOM_ID
from repro.core.datastructure import BOTTOM, DataStructure, Node
from repro.core.evaluation import StreamingEvaluator, evaluate_pcea
from repro.runtime import EngineStatistics, EvictionLane, StreamRuntime
from repro.streams.stream import Stream, stream_from_rows
from repro.streams.generators import (
    HCQWorkloadGenerator,
    SensorStreamGenerator,
    StockStreamGenerator,
    random_stream,
)
from repro.baselines.naive import NaiveRecomputeEngine
from repro.baselines.delta_join import DeltaJoinEngine
from repro.baselines.ccea_engine import CCEAStreamingEngine
from repro.engine.dsl import Pattern, atom, sequence, conjunction, disjunction
from repro.engine.compiler import compile_pattern
from repro.extensions.disambiguation import ambiguity_witness, is_syntactically_unambiguous
from repro.automata.operations import (
    languages_equal_up_to,
    pfa_difference_dfa,
    pfa_intersection_dfa,
    pfa_union,
)

__version__ = "1.0.0"

__all__ = [
    "Valuation",
    "product_of",
    "is_simple_product",
    "Schema",
    "Tuple",
    "make_tuple",
    "Bag",
    "Database",
    "Atom",
    "ConjunctiveQuery",
    "Variable",
    "parse_query",
    "QTree",
    "build_q_tree",
    "is_hierarchical",
    "build_join_tree",
    "is_acyclic",
    "bag_semantics",
    "chaudhuri_vardi_semantics",
    "cq_stream_output",
    "cq_stream_new_outputs",
    "NFA",
    "DFA",
    "PFA",
    "determinize_pfa",
    "AtomJoinEquality",
    "AtomUnaryPredicate",
    "AttributeFilter",
    "EqualityPredicate",
    "LambdaBinaryPredicate",
    "LambdaUnaryPredicate",
    "ProjectionEquality",
    "RelationPredicate",
    "SelfJoinEquality",
    "SelfJoinUnaryPredicate",
    "TruePredicate",
    "VariableAtomEquality",
    "CCEA",
    "CCEATransition",
    "chain_ccea",
    "PCEA",
    "PCEATransition",
    "check_unambiguous_on_stream",
    "hcq_to_pcea",
    "ArenaDataStructure",
    "BOTTOM",
    "BOTTOM_ID",
    "DataStructure",
    "Node",
    "StreamingEvaluator",
    "evaluate_pcea",
    "EngineStatistics",
    "EvictionLane",
    "StreamRuntime",
    "Stream",
    "stream_from_rows",
    "HCQWorkloadGenerator",
    "SensorStreamGenerator",
    "StockStreamGenerator",
    "random_stream",
    "NaiveRecomputeEngine",
    "DeltaJoinEngine",
    "CCEAStreamingEngine",
    "Pattern",
    "atom",
    "sequence",
    "conjunction",
    "disjunction",
    "compile_pattern",
    "OrderPredicate",
    "TrueEquality",
    "ambiguity_witness",
    "is_syntactically_unambiguous",
    "languages_equal_up_to",
    "pfa_difference_dfa",
    "pfa_intersection_dfa",
    "pfa_union",
    "__version__",
]
