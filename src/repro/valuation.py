"""Valuations ``ν : Ω -> 2^N`` and their algebra (paper, Sections 2, 3 and 5).

A valuation maps labels to finite sets of stream positions.  It is the single
output type shared by:

* CCEA and PCEA runs (``ν_ρ`` / ``ν_τ``),
* CQ-over-stream semantics (``η̂`` for a t-homomorphism ``η``), and
* the enumeration data structure of Section 5 (``⟦n⟧``).

Valuations are immutable and hashable, labels mapped to the empty set are
normalised away, and the product ``⊕`` together with the *simple* check mirror
the definitions used by the enumeration data structure.

Because the object-graph ``DS_w`` constructs one valuation per enumerated output
(and ``within_window`` is consulted on every node visited during enumeration),
the extreme positions ``min(ν)`` / ``max(ν)`` are computed once at construction
and cached, and the hot constructors (:meth:`Valuation.singleton` and
:meth:`Valuation.product`) bypass the normalising ``__init__``.

The arena ``DS_w`` hands out its outputs *factorised*, as one :class:`PackedValuations`
per enumeration: the *groups* of the walk over its label table — runs of *packed records*
``(label_id, pos, label_id, pos, …)``, and per product node its head pair over its
children's record lists, left unexpanded (the factorised representations of Olteanu and
Závodný, applied at the output boundary).  ``len()`` is known when the container is built;
the cross product is taken on the first read, by :func:`group_records`, the one odometer,
straight into *unread* valuations (:meth:`Valuation._from_packed`).  An unread valuation
builds its mapping on the first accessor call and drops its record; ``_mapping is None``
marks the unread state, tested inline by every accessor.  The wire codec writes match
frames from :meth:`PackedValuations.records`, so serving a match builds no valuation.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from itertools import chain, product, repeat
from math import prod
from operator import add
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union


Label = Hashable
PositionSet = FrozenSet[int]


class Valuation:
    """An immutable valuation ``ν : Ω -> 2^N``.

    Examples
    --------
    >>> v = Valuation({"dot": {1, 3, 5}})
    >>> v["dot"]
    frozenset({1, 3, 5})
    >>> v.min_position(), v.max_position()
    (1, 5)
    >>> (v ⊕ Valuation({"dot": {7}})) if False else None  # doctest: +SKIP
    """

    __slots__ = ("_mapping", "_hash", "_min", "_max", "_tables", "_packed")

    def __init__(self, mapping: Mapping[Label, Iterable[int]] | None = None) -> None:
        normalised: Dict[Label, PositionSet] = {}
        lo: int | None = None
        hi: int | None = None
        if mapping:
            for label, positions in mapping.items():
                frozen = frozenset(positions)
                if frozen:
                    normalised[label] = frozen
                    for position in frozen:
                        if lo is None or position < lo:
                            lo = position
                        if hi is None or position > hi:
                            hi = position
        self._mapping: Optional[Dict[Label, PositionSet]] = normalised
        self._hash: int | None = None
        self._min: int | None = lo
        self._max: int | None = hi

    @classmethod
    def _from_parts(
        cls, mapping: Dict[Label, PositionSet], lo: int | None, hi: int | None
    ) -> "Valuation":
        """Internal fast constructor: ``mapping`` must already be normalised
        (non-empty frozensets only) and ``lo``/``hi`` must be its extreme
        positions."""
        self = object.__new__(cls)
        self._mapping = mapping
        self._hash = None
        self._min = lo
        self._max = hi
        return self

    @classmethod
    def _from_packed(cls, tables: Tuple[Sequence[frozenset], dict], packed: Tuple[int, ...]) -> "Valuation":
        """Internal lazy constructor over a non-empty packed record.  ``tables`` is
        ``(label_table, singles)``: the label sets the ids index (held, not copied:
        the table may only ever be appended to) and a ``pos → frozenset((pos,))``
        cache shared by one enumeration's valuations (one set object per position)."""
        self = object.__new__(cls)
        self._mapping = self._hash = None
        self._tables = tables
        self._packed = packed
        return self

    def _materialise(self) -> Dict[Label, PositionSet]:
        """Build the mapping and the extremes from the packed record, drop it:
        ``ν_{L,i}`` per entry folded with ``⊕`` in record order (key order too)."""
        packed, tables = self._packed, self._tables  # cleared in the opposite order
        if tables is None:  # another thread read this valuation first
            return self._mapping
        label_table, singles = tables
        mapping: Dict[Label, PositionSet] = {}
        lo = hi = None
        entries = iter(packed)
        for label_id, position in zip(entries, entries):
            labels = label_table[label_id]
            if not labels:
                continue  # ν_{∅,i} is the empty valuation: no position either
            single = singles.get(position) or singles.setdefault(position, frozenset((position,)))
            for label in labels:
                existing = mapping.get(label)
                mapping[label] = single if existing is None else existing | single
            if lo is None or position < lo:
                lo = position
            if hi is None or position > hi:
                hi = position
        self._min, self._max = lo, hi
        self._mapping = mapping
        self._tables = self._packed = None
        return mapping

    # ------------------------------------------------------------ constructors
    @classmethod
    def singleton(cls, labels: Iterable[Label], position: int) -> "Valuation":
        """The valuation ``ν_{L,i}`` mapping every label of ``labels`` to ``{i}``."""
        positions = frozenset((position,))
        mapping = dict.fromkeys(labels, positions)
        if not mapping:
            return cls._from_parts({}, None, None)
        return cls._from_parts(mapping, position, position)

    @classmethod
    def empty(cls) -> "Valuation":
        """The everywhere-empty valuation."""
        return cls({})

    # ----------------------------------------------------------------- access
    def __getitem__(self, label: Label) -> PositionSet:
        mapping = self._mapping
        return (mapping if mapping is not None else self._materialise()).get(label, frozenset())

    get = __getitem__

    def labels(self) -> FrozenSet[Label]:
        """Labels mapped to a non-empty set of positions."""
        mapping = self._mapping
        return frozenset(mapping if mapping is not None else self._materialise())

    def items(self) -> Iterator[Tuple[Label, PositionSet]]:
        mapping = self._mapping
        return iter((mapping if mapping is not None else self._materialise()).items())

    def positions(self) -> FrozenSet[int]:
        """All positions appearing in the valuation."""
        result: set[int] = set()
        for _, positions in self.items():
            result |= positions
        return frozenset(result)

    def min_position(self) -> int:
        """``min(ν)``: the smallest position appearing in the valuation (cached).

        Raises :class:`ValueError` for the empty valuation, mirroring the fact
        that the paper only applies ``min`` to outputs of accepting runs.
        """
        if self._mapping is None:
            self._materialise()
        if self._min is None:
            raise ValueError("min() of an empty valuation")
        return self._min

    def max_position(self) -> int:
        """``max`` over all positions appearing in the valuation (cached)."""
        if self._mapping is None:
            self._materialise()
        if self._max is None:
            raise ValueError("max() of an empty valuation")
        return self._max

    def size(self) -> int:
        """``|ν|``: total number of (label, position) pairs."""
        return sum(len(positions) for _, positions in self.items())

    def is_empty(self) -> bool:
        return not self

    def within_window(self, position: int, window: int) -> bool:
        """Whether ``|position - min(ν)| <= window`` (sliding-window condition)."""
        if self._mapping is None:
            self._materialise()
        if self._min is None:
            return True
        return position - self._min <= window

    # ---------------------------------------------------------------- algebra
    def product(self, other: "Valuation") -> "Valuation":
        """The product ``ν ⊕ ν'`` (label-wise union of position sets).

        Returns one of the operands unchanged when the other is empty
        (valuations are immutable, so sharing is safe), and avoids rebuilding
        position sets for labels occurring on only one side — the common case
        in the enumeration data structure, whose products are *simple*.
        """
        mine = self._mapping if self._mapping is not None else self._materialise()
        theirs = other._mapping if other._mapping is not None else other._materialise()
        if not theirs:
            return self
        if not mine:
            return other
        merged: Dict[Label, PositionSet] = dict(mine)
        for label, positions in theirs.items():
            existing = merged.get(label)
            merged[label] = positions if existing is None else existing | positions
        lo = self._min if self._min <= other._min else other._min  # type: ignore[operator]
        hi = self._max if self._max >= other._max else other._max  # type: ignore[operator]
        return Valuation._from_parts(merged, lo, hi)

    __or__ = product

    def simple_with(self, other: "Valuation") -> bool:
        """Whether the product ``self ⊕ other`` is *simple* (label-wise disjoint)."""
        for label, positions in self.items():
            if positions & other.get(label):
                return False
        return True

    def restrict_labels(self, labels: Iterable[Label]) -> "Valuation":
        """Keep only the given labels."""
        wanted = set(labels)
        return Valuation({l: p for l, p in self.items() if l in wanted})

    def rename_labels(self, renaming: Mapping[Label, Label]) -> "Valuation":
        """Rename labels according to ``renaming`` (missing labels kept as-is)."""
        return Valuation({renaming.get(l, l): p for l, p in self.items()})

    # ------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            mine = self._mapping if self._mapping is not None else self._materialise()
            theirs = other._mapping if other._mapping is not None else other._materialise()
            return mine == theirs
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.items()))
        return self._hash

    def __len__(self) -> int:
        mapping = self._mapping
        return len(mapping if mapping is not None else self._materialise())

    def __bool__(self) -> bool:
        mapping = self._mapping
        return bool(mapping if mapping is not None else self._materialise())

    def as_dict(self) -> Dict[Label, PositionSet]:
        """A plain ``dict`` copy of the mapping."""
        mapping = self._mapping
        return dict(mapping if mapping is not None else self._materialise())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{label!r}: {sorted(positions)}" for label, positions in sorted(self.items(), key=lambda kv: str(kv[0]))
        )
        return f"Valuation({{{inner}}})"


def product_of(valuations: Iterable[Valuation]) -> Valuation:
    """``⊕`` over a sequence of valuations (empty sequence yields the empty valuation)."""
    result = Valuation.empty()
    for valuation in valuations:
        result = result.product(valuation)
    return result


def is_simple_product(valuations: Iterable[Valuation]) -> bool:
    """Whether the product of the given valuations is simple (pairwise label-disjoint)."""
    seen: Dict[Label, set[int]] = {}
    for valuation in valuations:
        for label, positions in valuation.items():
            bucket = seen.setdefault(label, set())
            if bucket & positions:
                return False
            bucket |= positions
    return True


#: A packed record ``(label_id, pos, label_id, pos, …)`` over a label table.
Record = Tuple[int, ...]
#: One group of an enumeration: a run of records, or a product node's head
#: pair over its children's record lists, unexpanded.
Group = Union[List[Record], Tuple[Tuple[int, int], List[List[Record]]]]


def group_records(group: Group) -> Iterable[Record]:
    """One group's records in output order: a run is itself; a product prepends
    its head to each combination of its children's records, the odometer
    (``itertools.product`` spins the last child fastest)."""
    if type(group) is list:
        return group
    head, children = group
    if len(children) == 1:
        return map(add, repeat(head), children[0])
    return map(sum, product(*children), repeat(head))


class PackedValuations(SequenceABC):
    """An immutable ``Sequence[Valuation]`` over one label table, factorised.

    Holds the enumeration's groups (see :data:`Group`) in output order.
    ``len()`` and ``bool()`` read nothing: the count is ``Σ`` over the groups
    of a run's length or the product of the children's lengths, taken at
    construction.  The first ``__iter__`` / ``__getitem__`` / ``==`` expands
    the groups into unread valuations (one singleton-set cache for the
    container), keeps that list and drops the groups; every later read sees
    the same objects.  Equal to a ``list`` (either way round) or another
    container holding equal valuations in the same order; unhashable, like
    ``list``.  The label table is held, not copied: it may only ever be
    appended to.
    """

    __slots__ = ("_labels", "_groups", "_items", "_count")

    def __init__(self, labels: Sequence[frozenset], groups: List[Group]) -> None:
        count = 0
        for group in groups:
            count += len(group) if type(group) is list else prod(map(len, group[1]))
        self._labels = labels
        self._groups: Optional[List[Group]] = groups
        self._items: Optional[List[Valuation]] = None
        self._count = count

    def _valuations(self) -> List[Valuation]:
        items = self._items
        if items is None:
            groups = self._groups
            if groups is None:  # another thread read this container first
                return self._items
            tables = (self._labels, {})
            unread = Valuation._from_packed
            items = []
            for group in groups:
                items += map(unread, repeat(tables), group_records(group))
            self._items = items
            self._groups = None
        return items

    def records(self) -> Optional[Tuple[Sequence[frozenset], Iterator[Record]]]:
        """``(label table, packed records in output order)`` while unread (what
        the wire codec writes a match frame from), ``None`` once read."""
        groups = self._groups
        return None if groups is None else (self._labels, chain.from_iterable(map(group_records, groups)))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Valuation]:
        return iter(self._valuations())

    def __getitem__(self, index):
        return self._valuations()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedValuations):
            other = other._valuations()
        elif not isinstance(other, list):
            return NotImplemented
        return self._valuations() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PackedValuations({self._valuations()!r})"
