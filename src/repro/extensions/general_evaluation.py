"""Streaming evaluation of PCEA with arbitrary binary predicates.

Algorithm 1 (Section 5) hashes partial runs on equality keys, which is what
makes its update time independent of the number of live runs.  When a
transition carries a *non-equality* predicate (an inequality, a similarity
join, an arbitrary callable) no such key exists; the paper leaves this case
open (Section 6).

:class:`GeneralStreamingEvaluator` is the pragmatic fallback: it keeps the same
factorised run representation (the ``DS_w`` nodes of Section 5, so the
enumeration phase is still output-linear), but during the update phase it scans
the live runs of every source state and filters them with the binary
predicate.  Its update time is therefore ``O(candidates · live_nodes)`` —
matching the "update time linear in the data" behaviour of the θ-join engines
discussed in the related work — while producing exactly the same outputs as
Algorithm 1 whenever both apply.

One engine, one loop
--------------------
A scan is a second kind of *probe*, not a second engine: the evaluator is
the K=1 :class:`~repro.core.evaluation.StreamingEvaluator` whose admission
step compiles every join of its one automaton to a scan probe, whatever the
predicate (an equality HCQ is scanned too), and the update is
:func:`repro.runtime.fire`, as for every engine.  A scan probe reads the
source state's live runs from the scan slot its store keeps for it (an
insertion-ordered dict ``seq -> (tuple, node)``) and keeps those ``holds``
accepts; each source's compatible runs are unioned into one child, and the
new run is stored in its target's scan slot, anchored at its own position:
the shared sweep reclaims it once its newest tuple is older than ``w``,
after which it can never contribute an in-window output again (outputs are
constrained through ``min(ν) >= i - w``, and ``min(ν) <=`` every position
of the run).  Plan lookup, statistics (live runs read count as
``hash_lookups``, and in ``nodes_scanned`` whether or not statistics are
on), batching, enumeration, the ``multi`` snapshot tree and every
introspection surface are the engine's.
"""

from __future__ import annotations

from repro.core.evaluation import StreamingEvaluator
from repro.core.pcea import PCEA


class GeneralStreamingEvaluator(StreamingEvaluator):
    """Sliding-window evaluation of a PCEA whose predicates may be arbitrary.

    Parameters
    ----------
    pcea:
        The automaton; binary predicates only need the boolean
        ``holds(earlier, later)`` interface.
    window:
        Sliding-window size ``w``; outputs ``ν`` satisfy ``i - min(ν) <= w``.
    collect_stats:
        With ``False`` the per-tuple operation counters are skipped.  The
        ``nodes_scanned`` attribute (the engine's signature linear-in-data
        cost) is maintained regardless.
    arena, kernel:
        As on :class:`~repro.core.evaluation.StreamingEvaluator`.
    """

    def _admissible(self, pcea: PCEA) -> str:
        """Every join is a scan probe — any binary predicate is admitted, the
        scan only calls ``holds`` — for the one automaton only."""
        if self._queries:
            raise ValueError("a general evaluator evaluates exactly one automaton")
        return "scan"
