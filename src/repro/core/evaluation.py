"""Streaming evaluation of unambiguous PCEA (Algorithm 1).

:class:`StreamingEvaluator` reads a stream tuple by tuple.  Processing one
tuple has two phases:

* **update** — fire every transition whose unary predicate holds and whose
  equality predicates find matching partial runs in the hash table ``H``
  (``FireTransitions``), then index the newly created runs so future tuples can
  join with them (``UpdateIndices``).  Partial runs are represented by nodes of
  the persistent data structure ``DS_w``.
* **enumeration** — the nodes that reached a final state represent exactly the
  new outputs; they are enumerated with output-linear delay, restricted to the
  sliding window.

With equality predicates and an unambiguous PCEA this achieves the
``O(|P|·|t| + |P|·log|P| + |P|·log w)`` update time and output-linear delay of
Theorem 5.1.  A join outside ``B_eq`` (Section 6's open case) is evaluated
too, as a scan of its source's live runs — update time linear in those runs
for that join only; every equality join of the same automaton still hashes.
The evaluator also exposes operation counters so benchmarks can report
machine-independent costs.

One query is the K=1 case of the dynamic-evaluation structure, so
:class:`StreamingEvaluator` *is* a
:class:`~repro.multi.engine.MultiQueryEngine` that registers its one automaton
at construction: one plan builder (the merged index's ``add_query``), one
update loop (:func:`repro.runtime.fire`), one way of counting predicate
evaluations (one per predicate group or threshold family), one snapshot kind
(``multi``).  What the facade adds is the single-query call shape —
:meth:`~StreamingEvaluator.process` returns a list of valuations,
:meth:`~StreamingEvaluator.process_many` one list per tuple,
:meth:`~StreamingEvaluator.run` a list per position — and the split calls
:meth:`~StreamingEvaluator.update` / :meth:`~StreamingEvaluator.enumerate_outputs`
that let a caller time the two phases apart.  Everything else is the engine's:

* **Transition dispatch** — FireTransitions and UpdateIndices only touch the
  *candidate* transitions of the incoming tuple, pre-grouped by canonical
  predicate key (:class:`~repro.core.dispatch.EvalPlan`), so one acceptor call
  decides each group and one bisect each threshold family.
* **Eviction** — entries of ``H`` whose node fell out of the sliding window are
  dropped by the runtime's bucket-by-expiry-position sweep, bounding the table
  at ``O(active window)`` instead of ``O(stream length)``; the ``evicted``
  counter reports the reclaimed entries.
* **Optional statistics** — the per-tuple operation counters are skipped
  entirely in fast mode (``collect_stats=False``, and inside
  ``run(collect=False)``), so throughput benchmarks measure the algorithm,
  not its instrumentation.
* **Arena-backed enumeration structure** — nodes of ``DS_w`` are dense
  integer ids into the flat per-slab arrays of
  :class:`~repro.core.arena.ArenaDataStructure` (the default; ``arena=False``
  restores the object graph).  The hash table stores ``(node, max_start)``
  pairs so expiry checks never dereference a node, and the eviction sweep
  doubles as the arena's reclamation driver, bounding enumeration memory by
  the active window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Union

from repro.core.datastructure import Node
from repro.core.pcea import PCEA
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.valuation import Valuation


#: A ``DS_w`` node reference: a :class:`Node` object (``arena=False``) or a
#: dense integer id into the arena's flat arrays (``arena=True``).
NodeRef = Union[Node, int]


class StreamingEvaluator(MultiQueryEngine):
    """Algorithm 1: streaming evaluation of one PCEA under a sliding window.

    A :class:`~repro.multi.engine.MultiQueryEngine` holding exactly one query
    — ``pcea`` under ``window`` — registered at construction; its snapshots
    are ``multi`` trees, restorable into any engine that registered the same
    query with the same window.  The single-query calls below return that
    query's outputs only.

    Parameters
    ----------
    pcea:
        The automaton to evaluate.  Joins in ``B_eq`` probe ``H``, any other
        scans its source's live runs; the automaton should be unambiguous for
        the outputs to be duplicate-free (Theorem 5.1's hypothesis).
    window:
        The sliding-window size ``w``: at position ``i`` only valuations ``ν``
        with ``i - min(ν) <= w`` are reported.
    collect_stats:
        With ``False`` the per-tuple operation counters are skipped (fast
        mode for throughput benchmarks).
    arena:
        With ``True`` (default) the enumeration structure is the arena-backed
        :class:`~repro.core.arena.ArenaDataStructure` — flat-array node
        storage whose expired slabs are released wholesale by the eviction
        sweep.  ``False`` restores the persistent object-graph ``DS_w`` (the
        differential-test oracle).
    kernel:
        Record-operation backend for the arena hot path: ``"python"``,
        ``"native"`` (the optional C extension) or ``"auto"`` / ``None``
        (defer to ``REPRO_KERNEL``, then auto-detect — see
        :mod:`repro.core.kernel`).  Ignored with ``arena=False``;
        :meth:`kernel_info` reports what is actually running.

    Examples
    --------
    >>> # See examples/quickstart.py for an end-to-end construction.
    """

    def __init__(
        self,
        pcea: PCEA,
        window: int,
        *,
        collect_stats: bool = True,
        arena: bool = True,
        kernel: str | None = None,
    ) -> None:
        super().__init__(collect_stats=collect_stats, arena=arena, kernel=kernel)
        self.pcea = pcea
        self.window = window
        self._query = self._queries[self.register(pcea, window).id]

    @property
    def ds(self):
        """The query's ``DS_w`` (its store's: a restore opens a new one)."""
        return self._query.store.ds

    # -------------------------------------------------------------- main loop
    def run(self, stream: Iterable[Tuple], collect: bool = True) -> Dict[int, Sequence[Valuation]]:
        """Process a whole (finite) stream, returning outputs per position.

        With ``collect=False`` outputs are enumerated but not stored, which is
        what the throughput benchmarks use; statistics counting is then
        disabled for the run.
        """
        previous = self._count_stats
        self._count_stats = self._runtime.count_stats = previous and collect
        try:
            results: Dict[int, Sequence[Valuation]] = {}
            for tup in stream:
                outputs = self.process(tup)
                if collect:
                    results[self.position] = outputs
            return results
        finally:
            self._count_stats = self._runtime.count_stats = previous

    def process(self, tup: Tuple) -> Sequence[Valuation]:
        """Process one tuple: update phase followed by enumeration (the
        sequence :meth:`process_many` hands out per tuple)."""
        nodes = self.update(tup)
        return self._enumerate(self._query, nodes) if nodes else []

    def process_many(self, tuples: Sequence[Tuple]) -> List[Sequence[Valuation]]:
        """Batched ingestion: process ``tuples``, returning outputs per tuple.

        Produces exactly what ``[self.process(t) for t in tuples]`` would, with
        one eviction sweep for the batch (the runtime's
        :meth:`~repro.runtime.StreamRuntime.drive_batch` contract).
        """
        fire_tuple = self._fire
        enumerate_query = self._enumerate
        query = self._query

        def step(tup: Tuple) -> Sequence[Valuation]:
            finals = fire_tuple(tup, False)
            nodes = finals.get(query) if finals else None
            return enumerate_query(query, nodes) if nodes else []

        return self._runtime.drive_batch(tuples, step)

    def update(self, tup: Tuple, sweep: bool = True) -> List[NodeRef]:
        """The update phase (Reset + FireTransitions + UpdateIndices).

        Returns the nodes that reached a final state at the current position;
        feeding them to :meth:`enumerate_outputs` yields the new outputs.
        ``sweep=False`` skips the per-tuple eviction sweep (expiry bucket
        registration still happens), as :meth:`process_many` does before its
        one batched sweep.
        """
        finals = self._fire(tup, sweep)
        return finals.get(self._query, []) if finals else []

    def enumerate_outputs(self, final_nodes: Sequence[NodeRef]) -> Iterator[Valuation]:
        """Enumerate the outputs represented by the final-state nodes.

        Unambiguity guarantees that distinct nodes represent disjoint output
        sets, so concatenating the enumerations is duplicate-free.
        """
        return iter(self._enumerate(self._query, final_nodes) if final_nodes else ())


def evaluate_pcea(
    pcea: PCEA,
    stream: Iterable[Tuple],
    window: int,
    positions: Iterable[int] | None = None,
) -> Dict[int, Set[Valuation]]:
    """Convenience wrapper: run Algorithm 1 over a finite stream.

    Returns the outputs (as sets of valuations) at every position, or only at
    the requested ``positions``.
    """
    evaluator = StreamingEvaluator(pcea, window)
    wanted = set(positions) if positions is not None else None
    results: Dict[int, Set[Valuation]] = {}
    for tup in stream:
        outputs = evaluator.process(tup)
        if wanted is None or evaluator.position in wanted:
            results[evaluator.position] = set(outputs)
    return results
