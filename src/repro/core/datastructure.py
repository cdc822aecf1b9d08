"""The enumeration data structure ``DS_w`` of Section 5.

``DS_w`` stores bags of valuations compactly.  Each node carries a label set
``L``, a position ``i``, a list ``prod`` of product children and two union
links ``uleft`` / ``uright``; its semantics is

    ⟦n⟧_prod = {{ν_{L(n), i(n)}}} ⊕ ⨁_{n' ∈ prod(n)} ⟦n'⟧
    ⟦n⟧      = ⟦n⟧_prod ∪ ⟦uleft(n)⟧ ∪ ⟦uright(n)⟧

Each node also stores ``max_start = max{min(ν) | ν ∈ ⟦n⟧_prod}`` and the union
links respect the heap condition (‡): ``max_start(n) ≥ max_start(uleft(n))``
and ``max_start(n) ≥ max_start(uright(n))``.  Together these allow the
enumeration of ``⟦n⟧^w_i`` (the valuations still inside the sliding window) to
skip empty subtrees in constant time, which is what yields output-linear delay
(Theorem 5.2).

Two node-producing operations are provided, mirroring the paper:

* :meth:`DataStructure.extend` — constant time (in the number of product
  children), building a product node;
* :meth:`DataStructure.union` — fully persistent union with logarithmic
  amortised cost (Proposition 5.3), implemented with path copying, direction
  bits for balance, and pruning of subtrees that fell out of the window.

This object-graph representation is the *oracle*: one heap-allocated frozen
dataclass per node, fully persistent, nothing ever reclaimed explicitly.  The
production default is the arena-backed :class:`~repro.core.arena.ArenaDataStructure`
(``arena=True`` on the evaluators), which stores nodes as dense integer ids in
flat per-slab arrays and releases whole expired slabs in O(1) — see
``repro/core/arena.py`` for the slab lifecycle and the external-reference
invariant.  Both structures implement the same surface (``extend`` / ``union``
/ ``enumerate`` / ``expired`` / the validation helpers), plus the small hook
set the evaluators use to stay representation-agnostic: ``max_start_of`` (node
-> ``max_start``, an attribute read here, a slab-array read in the arena) and
the reclamation hooks ``add_ref`` / ``drop_ref`` / ``release_expired``, which
are no-ops here because the object graph relies on Python's GC.  The
validation helpers (:meth:`DataStructure.check_heap_condition`,
:meth:`DataStructure.check_simple`, :meth:`DataStructure.union_depth`) are
iterative: a single-relation stream builds union chains as deep as the
stream, which must not overflow the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple as Tup

from repro.valuation import Valuation


Label = Hashable


@dataclass(frozen=True)
class Node:
    """An immutable node of ``DS_w``.

    Nodes are persistent: operations never mutate existing nodes, they only
    allocate new ones (path copying), so nodes already referenced by the
    algorithm's hash table remain valid forever.
    """

    labels: FrozenSet[Label]
    position: int
    prod: Tup["Node", ...]
    uleft: Optional["Node"]
    uright: Optional["Node"]
    max_start: int
    direction: bool = False  # insertion direction bit used for balancing

    def is_bottom(self) -> bool:
        return self.position < 0 and not self.labels

    def __repr__(self) -> str:
        if self.is_bottom():
            return "⊥"
        labels = ",".join(str(l) for l in sorted(self.labels, key=str))
        return (
            f"Node(pos={self.position}, L={{{labels}}}, prod={len(self.prod)}, "
            f"max_start={self.max_start})"
        )


#: The bottom node ``⊥`` (empty bag of valuations).
BOTTOM = Node(frozenset(), -1, (), None, None, -1)


def product_odometer(base: Valuation, iterators: List[Iterator[Valuation]]) -> Iterator[Valuation]:
    """Cross product over child enumerations, as an iterative odometer.

    The caller supplies the node's own valuation ``base`` and one enumeration
    iterator per product child (the arena ``DS_w`` enumerates packed records
    instead and is tested against this order).  Each child is enumerated **once**, its
    valuations cached as they are produced, and the accumulated product is
    recomputed only from the digit that changed, so the work between two
    consecutive outputs stays proportional to the output size (the Theorem 5.2
    delay bound) without the allocation storm of the naive recursive product.
    """
    k = len(iterators)
    if k == 1:
        # Fast path: no odometer state needed for the common single-child case.
        for valuation in iterators[0]:
            yield base.product(valuation)
        return
    caches: List[List[Valuation]] = []
    for iterator in iterators:
        first = next(iterator, None)
        if first is None:
            return  # one child is empty -> the whole product is empty
        caches.append([first])
    indices = [0] * k
    # prefixes[i] = base ⊕ caches[0][indices[0]] ⊕ ... ⊕ caches[i][indices[i]]
    prefixes: List[Valuation] = [base] * k
    rebuild_from = 0
    while True:
        acc = base if rebuild_from == 0 else prefixes[rebuild_from - 1]
        for i in range(rebuild_from, k):
            acc = acc.product(caches[i][indices[i]])
            prefixes[i] = acc
        yield acc
        # Advance the odometer (last digit spins fastest), pulling at most
        # one fresh valuation from one child iterator per step.
        i = k - 1
        while i >= 0:
            indices[i] += 1
            if indices[i] < len(caches[i]):
                break
            iterator = iterators[i]
            nxt = next(iterator, None) if iterator is not None else None
            if nxt is not None:
                caches[i].append(nxt)
                break
            iterators[i] = None  # exhausted; keep the cache for replays
            indices[i] = 0
            i -= 1
        else:
            return
        rebuild_from = i


class DataStructure:
    """The data structure ``DS_w`` with window size ``w``.

    Parameters
    ----------
    window:
        The sliding-window size ``w``.  A valuation ``ν`` is *alive* at
        position ``i`` when ``i - min(ν) <= window``.

    Notes
    -----
    The instance counts node allocations and union depths so that the
    benchmarks can report machine-independent operation counts alongside wall
    clock times.
    """

    def __init__(self, window: int) -> None:
        if window < 0:
            raise ValueError("window size must be non-negative")
        self.window = window
        self.nodes_created = 0
        self.union_calls = 0
        self.union_copies = 0

    # ------------------------------------------------------------------ nodes
    def _make_node(
        self,
        labels: FrozenSet[Label],
        position: int,
        prod: Tup[Node, ...],
        uleft: Optional[Node],
        uright: Optional[Node],
        max_start: int,
        direction: bool = False,
    ) -> Node:
        self.nodes_created += 1
        return Node(labels, position, prod, uleft, uright, max_start, direction)

    # Representation-agnostic hooks shared with the arena structure, so
    # callers can stay oblivious to whether nodes are objects or integer ids
    # (the evaluators hoist the reclamation hooks once; ``max_start_of`` is
    # for introspection/tests — the hot loops read the max_start they cache
    # in the hash-table pairs instead).
    def max_start_of(self, node: Node) -> int:
        """``max_start`` of ``node`` (attribute read; array read in the arena)."""
        return node.max_start

    def add_ref(self, node: Node) -> None:
        """No-op: the object graph is reclaimed by Python's GC."""

    def drop_ref(self, node: Node) -> None:
        """No-op counterpart of :meth:`add_ref`."""

    def release_expired(self, position: int) -> int:
        """No-op: nothing to release explicitly (returns 0 slabs released)."""
        return 0

    def memory_stats(self) -> dict:
        """Occupancy counters, shaped like the arena's (zeros where N/A)."""
        return {
            "arena": 0,
            "slabs": 0,
            "slab_capacity": 0,
            "live_nodes": 0,
            "released_slabs": 0,
            "released_nodes": 0,
            "nodes_created": self.nodes_created,
        }

    def expired(self, node: Node, position: int) -> bool:
        """Whether every valuation of ``⟦node⟧`` is out of the window at ``position``.

        By the heap condition this is equivalent to the product part of the
        node itself being out of the window.
        """
        if node is None or node.is_bottom():
            return True
        return position - node.max_start > self.window

    def extend(
        self,
        labels: Iterable[Label],
        position: int,
        children: Sequence[Node],
        max_start: int | None = None,
    ) -> Node:
        """``extend(L, i, N)``: a fresh node with ``⟦n_e⟧ = {{ν_{L,i}}} ⊕ ⨁_{n∈N} ⟦n⟧``.

        Runs in ``O(|N|)``.  ``max_start`` is ``min(i, min_n max_start(n))``.
        The optional ``max_start`` argument is the arena's engine fast path
        (see :meth:`ArenaDataStructure.extend
        <repro.core.arena.ArenaDataStructure.extend>`); here attribute reads
        are free, so it is accepted for call-surface uniformity and the value
        is recomputed and validated regardless — keeping this structure a
        full oracle for the differential tests.
        """
        labels = frozenset(labels)
        children = tuple(children)
        for child in children:
            if child.is_bottom():
                raise ValueError("product children must not be the bottom node")
            if child.position >= position:
                raise ValueError("product children must have strictly smaller positions")
        max_start = position
        for child in children:
            max_start = min(max_start, child.max_start)
        return self._make_node(labels, position, children, None, None, max_start)

    # ------------------------------------------------------------------ union
    def union(
        self,
        left: Node,
        fresh: Node,
        position: int | None = None,
        fresh_ms: int | None = None,
    ) -> Node:
        """``union(n1, n2)``: a node whose bag is ``⟦n1⟧ ∪ ⟦n2⟧`` (Proposition 5.3).

        Preconditions (checked): ``fresh`` has no union links yet and its
        position is at least the maximum position in ``left``.  The operation
        is fully persistent — neither argument is modified — and costs
        ``O(log(k·w))`` node copies thanks to direction-bit balancing and the
        pruning of expired subtrees.  ``position`` / ``fresh_ms`` are the
        arena's engine fast path (see :meth:`ArenaDataStructure.union
        <repro.core.arena.ArenaDataStructure.union>`); accepted here for
        call-surface uniformity, while the node's own attributes are used
        and validated regardless (oracle behaviour).
        """
        if fresh.uleft is not None or fresh.uright is not None:
            raise ValueError("the second argument of union must be a fresh product node")
        self.union_calls += 1
        return self._union(left, fresh, fresh.position)

    def extend_onto(self, labels: Iterable[Label], position: int, entry: Optional[Node]) -> Node:
        """``union(entry, extend(labels, position, ()))`` as the one node it ends in:
        a childless node's ``max_start`` is ``position``, which dominates every
        stored entry, so the fresh node goes on top of ``entry`` (alone once that
        expired) and is never counted separately."""
        fresh = Node(frozenset(labels), position, (), None, None, position)
        if entry is None:
            top = fresh
        else:
            self.union_calls += 1
            top = self._union(entry, fresh, position)
        if top is fresh:
            self.nodes_created += 1
        return top

    def _union(self, left: Node, fresh: Node, position: int) -> Node:
        if left is None or left.is_bottom():
            return fresh
        if self.expired(left, position):
            # Every valuation below ``left`` is out of the window forever
            # (positions only grow), so the subtree can be dropped.
            return fresh
        self.union_copies += 1
        if fresh.max_start >= left.max_start:
            # The fresh node becomes the new top; heap condition holds because
            # its max_start dominates the whole old tree.
            return self._make_node(
                fresh.labels,
                fresh.position,
                fresh.prod,
                left,
                None,
                fresh.max_start,
                direction=not left.direction,
            )
        # Otherwise keep ``left`` on top and insert below, alternating sides
        # via the direction bit (path copying keeps persistence).
        if left.direction:
            new_child = self._union(left.uleft if left.uleft is not None else BOTTOM, fresh, position)
            return self._make_node(
                left.labels,
                left.position,
                left.prod,
                new_child,
                left.uright,
                left.max_start,
                direction=False,
            )
        new_child = self._union(left.uright if left.uright is not None else BOTTOM, fresh, position)
        return self._make_node(
            left.labels,
            left.position,
            left.prod,
            left.uleft,
            new_child,
            left.max_start,
            direction=True,
        )

    # ------------------------------------------------------------ enumeration
    def outputs(self, nodes: Iterable[Node], position: int) -> List[Valuation]:
        """The outputs of ``nodes`` at ``position``, concatenated in order."""
        return [valuation for node in nodes for valuation in self.enumerate(node, position)]

    def enumerate(self, node: Node, position: int) -> Iterator[Valuation]:
        """Enumerate ``⟦node⟧^w_position`` (valuations alive in the window).

        The traversal prunes subtrees whose ``max_start`` certifies emptiness,
        so between two consecutive outputs only work proportional to the size
        of the next output is performed (Theorem 5.2); duplicates cannot occur
        when the structure is simple (which unambiguous PCEA guarantee).
        """
        stack: List[Node] = [node] if node is not None else []
        while stack:
            current = stack.pop()
            if current is None or current.is_bottom() or self.expired(current, position):
                continue
            yield from self._enumerate_prod(current, position)
            if current.uright is not None:
                stack.append(current.uright)
            if current.uleft is not None:
                stack.append(current.uleft)

    def _enumerate_prod(self, node: Node, position: int) -> Iterator[Valuation]:
        if not node.prod:
            if position - node.position <= self.window:
                yield Valuation.singleton(node.labels, node.position)
            return
        yield from self._product_combinations(node, position, windowed=True)

    def _product_combinations(
        self, node: Node, position: int, windowed: bool
    ) -> Iterator[Valuation]:
        """Cross product over the child enumerations (see :func:`product_odometer`).

        The paper presents the product as a recursive generator; implemented
        literally, every prefix combination re-creates (and therefore re-runs)
        the enumerations of all later children, and each output pays a chain
        of suspended generator frames.  The odometer avoids both.
        """
        base = Valuation.singleton(node.labels, node.position)
        prod = node.prod
        if windowed:
            iterators = [self.enumerate(child, position) for child in prod]
        else:
            iterators = [self.enumerate_all(child) for child in prod]
        yield from product_odometer(base, iterators)

    def enumerate_all(self, node: Node) -> Iterator[Valuation]:
        """Enumerate ``⟦node⟧`` ignoring the window (used by tests)."""
        stack: List[Node] = [node] if node is not None else []
        while stack:
            current = stack.pop()
            if current is None or current.is_bottom():
                continue
            yield from self._enumerate_prod_all(current)
            if current.uright is not None:
                stack.append(current.uright)
            if current.uleft is not None:
                stack.append(current.uleft)

    def _enumerate_prod_all(self, node: Node) -> Iterator[Valuation]:
        if not node.prod:
            yield Valuation.singleton(node.labels, node.position)
            return
        yield from self._product_combinations(node, position=0, windowed=False)

    # ------------------------------------------------------------- validation
    def check_simple(self, node: Node) -> bool:
        """Whether the bag rooted at ``node`` is *simple* (no overlapping products).

        Exponential in general; used only by tests.  Iterative over an
        explicit worklist: long single-relation streams produce union chains
        as deep as the stream, which a recursive walk could not traverse
        without overflowing the interpreter stack.
        """
        worklist: List[Node] = [node] if node is not None else []
        while worklist:
            current = worklist.pop()
            if current is None or current.is_bottom():
                continue
            base = Valuation.singleton(current.labels, current.position)
            partials: List[Valuation] = [base]
            for child in current.prod:
                new_partials: List[Valuation] = []
                for partial in partials:
                    for child_valuation in self.enumerate_all(child):
                        if not partial.simple_with(child_valuation):
                            return False
                        new_partials.append(partial.product(child_valuation))
                partials = new_partials
            worklist.extend(current.prod)
            for link in (current.uleft, current.uright):
                if link is not None:
                    worklist.append(link)
        return True

    def check_heap_condition(self, node: Node) -> bool:
        """Whether condition (‡) holds everywhere below ``node``.

        Iterative for the same reason as :meth:`check_simple`: union chains
        can be as deep as the stream.
        """
        worklist: List[Node] = [node] if node is not None else []
        while worklist:
            current = worklist.pop()
            if current is None or current.is_bottom():
                continue
            for link in (current.uleft, current.uright):
                if link is not None and not link.is_bottom():
                    if link.max_start > current.max_start:
                        return False
                    worklist.append(link)
            worklist.extend(current.prod)
        return True

    def union_depth(self, node: Node) -> int:
        """Depth of the union tree hanging at ``node`` (benchmark instrumentation)."""
        best = 0
        stack: List[Tup[Node, int]] = [(node, 1)] if node is not None and not node.is_bottom() else []
        while stack:
            current, depth = stack.pop()
            best = max(best, depth)
            for link in (current.uleft, current.uright):
                if link is not None and not link.is_bottom():
                    stack.append((link, depth + 1))
        return best

