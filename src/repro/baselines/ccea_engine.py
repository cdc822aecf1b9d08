"""CCEA streaming engine: the chain-restricted setting of Grez & Riveros ([16]).

A CCEA can only correlate the current tuple with the *previous* tuple of the
run, which is why it cannot express conjunctive patterns such as the automaton
``P_0`` of Example 3.3 (Proposition 3.4).  This engine evaluates a CCEA over a
sliding window by embedding it into a PCEA (every CCEA is a PCEA whose
transitions have at most one source) and reusing Algorithm 1 — the embedding is
exactly the observation made after Example 3.3, and it keeps the comparison in
experiment E7 about *expressiveness*, not implementation details.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.ccea import CCEA
from repro.core.evaluation import StreamingEvaluator
from repro.cq.schema import Tuple
from repro.valuation import Valuation


class CCEAStreamingEngine:
    """Sliding-window streaming evaluation of a CCEA (chain automata)."""

    def __init__(self, ccea: CCEA, window: int) -> None:
        self.ccea = ccea
        self.window = window
        self._evaluator = StreamingEvaluator(ccea.to_pcea(), window)

    @property
    def position(self) -> int:
        return self._evaluator.position

    @property
    def stats(self):
        return self._evaluator.stats

    def process(self, tup: Tuple) -> List[Valuation]:
        """Process one tuple, returning the new outputs inside the window."""
        return self._evaluator.process(tup)

    def run(self, stream, collect: bool = True) -> Dict[int, List[Valuation]]:
        return self._evaluator.run(stream, collect=collect)
