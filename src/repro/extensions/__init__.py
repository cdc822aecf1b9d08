"""Extensions beyond the paper's core results.

Section 6 of the paper lists open directions.  Joins outside ``B_eq`` need
no extension module: the engine compiles each such join to a scan of its
source's live runs and hashes the rest (:mod:`repro.core.dispatch`).  This
subpackage holds:

* :mod:`repro.extensions.disambiguation` — bounded checks for the unambiguity
  hypothesis of Theorem 5.1: a syntactic sufficient condition and an
  exhaustive small-stream search for counterexamples.
"""

from repro.extensions.disambiguation import (
    ambiguity_witness,
    is_syntactically_unambiguous,
)

__all__ = [
    "ambiguity_witness",
    "is_syntactically_unambiguous",
]
