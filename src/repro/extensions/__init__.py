"""Extensions beyond the paper's core results.

Section 6 of the paper lists open directions; this subpackage implements the
pragmatic versions of two of them:

* :mod:`repro.extensions.general_evaluation` — a streaming evaluator for PCEA
  with *arbitrary* binary predicates (e.g. inequalities).  It keeps the
  factorised output representation of Section 5 but, lacking equality keys to
  hash on, scans the live partial runs per transition, so its update time is
  linear in the number of stored runs (the behaviour of the θ-join engines in
  the related-work section) instead of logarithmic.  It is the engine's K=1
  case with every join compiled to that scan probe, so it shares the rest —
  the one update loop, dispatch-index candidate pruning, the window-bounded
  eviction sweep, batched ``process_many`` ingestion, snapshots and the
  unified statistics / memory surface.
* :mod:`repro.extensions.disambiguation` — bounded checks for the unambiguity
  hypothesis of Theorem 5.1: a syntactic sufficient condition and an
  exhaustive small-stream search for counterexamples.
"""

from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.extensions.disambiguation import (
    ambiguity_witness,
    is_syntactically_unambiguous,
)

__all__ = [
    "GeneralStreamingEvaluator",
    "ambiguity_witness",
    "is_syntactically_unambiguous",
]
