"""Unary and binary predicates over tuples (paper, Section 2, "Predicates").

Two classes of predicates matter algorithmically:

* ``U_lin`` — unary predicates decidable in time linear in ``|t|``; and
* ``B_eq`` — *equality predicates*: binary predicates ``B`` for which there are
  partial key functions ``left_key`` (the paper's ``⃗B`` applied to the earlier
  tuple) and ``right_key`` (applied to the later tuple) such that
  ``(t1, t2) ∈ B`` iff both keys are defined and equal.

The streaming algorithm of Section 5 hashes on these keys, which is what makes
transition firing constant-time; the naive evaluators only need the boolean
``holds`` interface and therefore work with arbitrary binary predicates.

The module also builds the specific predicates used by the Theorem 4.1
construction: ``U_{R(x̄)}`` (tuples homomorphic to an atom), ``B_{S(ȳ),T(z̄)}``
(pairs agreeing on the shared variables), their generalisations to q-tree
variables, and the self-join variants of Lemmas B.3/B.4.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Sequence, Tuple as Tup

from repro.cq.query import Atom, Variable, is_variable
from repro.cq.schema import DataValue, Tuple


Key = Hashable


# ------------------------------------------------------------ compiled plans
# The dispatch index resolves every predicate once into a flat closure, so the
# per-tuple loops never re-interpret a query atom.  A *key plan* is one side of
# an equality predicate as data: one entry ``(relation, arity, exact, slots,
# checks)`` per tuple shape the side accepts.  ``slots`` are the value
# positions forming the key (``None``: the ``("*",)`` component of a shared
# variable the atom lacks), ``checks`` the atom's residual tests (see
# ``Atom.__post_init__``); without ``exact`` longer tuples pass too.  Plans are
# plain tuples: structurally identical sides compile to one interned extractor
# (``is``-comparable by the fire loop).
_WILDCARD = ("*",)
_PLAN_CACHE = 4096
_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}  # fmt: skip


def _atom_entry(atom: Atom, shared: Sequence[Variable]):
    """The key-plan entry projecting tuples matched by ``atom`` onto ``shared``."""
    slots = tuple([atom._first.get(variable) for variable in shared])
    return (atom.relation, len(atom.terms), True, slots, atom._checks)


def _entry_extractor(arity: int, exact: bool, slots, checks):
    """``values -> key | None`` for one key-plan entry (relation already matched)."""

    def extract(values):
        if len(values) != arity and (exact or len(values) < arity):
            return None
        for position, other, positional in checks:
            if values[position] != (values[other] if positional else other):
                return None
        return tuple([_WILDCARD if slot is None else values[slot] for slot in slots])

    return extract


@lru_cache(maxsize=_PLAN_CACHE)
def compile_key_plan(plan) -> Callable[[Tuple], Optional[Key]]:
    """The interned flat extractor ``tup -> key | None`` of one side's key plan."""
    if len(plan) == 1:
        relation, arity, exact, slots, checks = plan[0]
        if not checks and len(slots) == 1 and slots[0] is not None:
            # One shape, one key attribute, nothing to re-check: the joins of
            # the Theorem 4.1 construction over distinct-variable atoms.
            slot = slots[0]

            def single(tup):
                values = tup.values
                if tup.relation != relation or (
                    len(values) != arity and (exact or len(values) < arity)
                ):
                    return None
                return (values[slot],)

            return single
    table: Dict[str, list] = {}
    for relation, *entry in plan:
        table.setdefault(relation, []).append(_entry_extractor(*entry))

    def extract(tup):
        values = tup.values
        for entry in table.get(tup.relation, ()):
            key = entry(values)
            if key is not None:
                return key
        return None

    return extract


@lru_cache(maxsize=_PLAN_CACHE)
def _atom_acceptor(relation: str, arity: int, checks) -> Callable[[Tuple], bool]:
    """The flat acceptor ``tup -> bool`` of ``U_{R(x̄)}``."""
    if not checks:
        return lambda tup: tup.relation == relation and len(tup.values) == arity
    matched = _entry_extractor(arity, True, (), checks)
    return lambda tup: tup.relation == relation and matched(tup.values) is not None


@lru_cache(maxsize=_PLAN_CACHE)
def _filter_acceptor(relation: str, position: int, comparison: str, constant) -> Callable[[Tuple], bool]:
    """The flat acceptor of an :class:`AttributeFilter`, its operator bound directly."""
    compare = _COMPARISONS[comparison]

    def accept(tup):
        values = tup.values
        if tup.relation != relation or position >= len(values):
            return False
        try:
            return compare(values[position], constant)
        except TypeError:
            return False

    return accept


def compile_acceptor(unary) -> Callable[[Tuple], bool]:
    """``unary`` as a flat ``tup -> bool``; objects predating the protocol keep ``holds``."""
    compile_plan = getattr(unary, "acceptor", None)
    return compile_plan() if compile_plan is not None else unary.holds


def compile_key_extractors(predicate):
    """``(left, right)`` flat key extractors of a join predicate: the key methods of
    an object predating the protocol, ``None`` outside ``B_eq`` (no keys)."""
    compile_plans = getattr(predicate, "key_extractors", None)
    if compile_plans is not None:
        return compile_plans()
    return getattr(predicate, "left_key", None), getattr(predicate, "right_key", None)


# --------------------------------------------------------------------------- unary
class UnaryPredicate:
    """Base class of unary predicates ``U ⊆ Tuples[σ]``."""

    def holds(self, tup: Tuple) -> bool:
        raise NotImplementedError

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        """An over-approximation of the relation names this predicate accepts.

        ``None`` means "unknown / any relation".  The contract is one-sided:
        whenever ``holds(t)`` is true, ``t.relation`` must belong to the
        returned set (when a set is returned at all).  The streaming engine's
        transition dispatch index groups transitions by these keys so that a
        tuple only visits candidate transitions; a predicate that cannot name
        its relations simply lands in the wildcard group and is checked on
        every tuple, preserving correctness.
        """
        return None

    def canonical_key(self) -> Key:
        """A hashable key identifying this predicate's *extension*.

        Two predicates with equal canonical keys must satisfy ``holds(t)`` on
        exactly the same tuples, so the multi-query engine can evaluate one
        representative per key per tuple and share the verdict across every
        query using a structurally identical predicate.  The default is
        identity-based (no sharing beyond the same object), which is always
        sound; structural subclasses override it.
        """
        return ("id", id(self))

    def constant_guard(self) -> Optional[Tup[int, DataValue]]:
        """An optional ``(position, value)`` equality guard implied by ``holds``.

        When a pair is returned, every tuple accepted by the predicate carries
        ``value`` at attribute ``position`` (and has arity ``> position``).
        The dispatch index uses the guard to key candidates by
        ``(relation, guard value)`` so highly selective constant filters prune
        transitions before ``holds`` runs.  ``None`` means no such guard is
        known; returning ``None`` is always sound.
        """
        return None

    def threshold(self) -> Optional[Tup["UnaryPredicate", str, int, str, DataValue]]:
        """An optional split ``(base, relation, position, operator, constant)``:
        ``holds(t)`` iff ``base.holds(t)`` and ``t`` is a ``relation`` tuple with
        ``t[position] operator constant`` (``<``, ``<=``, ``>``, ``>=``), where
        that comparison is defined — a NaN or a ``TypeError`` is left to
        ``holds``.  Splits equal but for the constant form a threshold family
        (:class:`~repro.core.dispatch.EvalFamily`).  ``None`` is always sound."""
        return None

    def acceptor(self) -> Callable[[Tuple], bool]:
        """The flat ``tup -> bool`` form of :meth:`holds`, resolved once per
        dispatch index.  Structural subclasses compile it from their plan and
        define ``holds`` through it; the default is ``holds`` itself."""
        return self.holds

    def __call__(self, tup: Tuple) -> bool:
        return self.holds(tup)

    # Simple combinators keep the DSL compiler small.
    def __and__(self, other: "UnaryPredicate") -> "UnaryPredicate":
        mine, theirs = self.dispatch_relations(), other.dispatch_relations()
        if mine is None:
            relations = theirs
        elif theirs is None:
            relations = mine
        else:
            relations = mine & theirs
        return LambdaUnaryPredicate(
            lambda tup: self.holds(tup) and other.holds(tup),
            description=f"({self} and {other})",
            relations=relations,
        )

    def __or__(self, other: "UnaryPredicate") -> "UnaryPredicate":
        mine, theirs = self.dispatch_relations(), other.dispatch_relations()
        relations = mine | theirs if mine is not None and theirs is not None else None
        return LambdaUnaryPredicate(
            lambda tup: self.holds(tup) or other.holds(tup),
            description=f"({self} or {other})",
            relations=relations,
        )


@dataclass(frozen=True)
class TruePredicate(UnaryPredicate):
    """The trivial unary predicate containing every tuple."""

    def holds(self, tup: Tuple) -> bool:
        return True

    def canonical_key(self) -> Key:
        return ("true",)

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class RelationPredicate(UnaryPredicate):
    """Tuples of one of the given relation names (the paper's ``T``, ``S``, ``R``)."""

    relations: FrozenSet[str]

    def __init__(self, relations: str | Iterable[str]) -> None:
        if isinstance(relations, str):
            relations = {relations}
        object.__setattr__(self, "relations", frozenset(relations))

    def holds(self, tup: Tuple) -> bool:
        return tup.relation in self.relations

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        return self.relations

    def canonical_key(self) -> Key:
        return ("rel", self.relations)

    def __str__(self) -> str:
        return "|".join(sorted(self.relations))


@dataclass(frozen=True)
class AtomUnaryPredicate(UnaryPredicate):
    """``U_{R(x̄)}``: tuples onto which some homomorphism maps the atom.

    Checks relation name, arity, constants, and equality of values at repeated
    variable positions — all in time linear in ``|t|``.
    """

    atom: Atom

    def acceptor(self) -> Callable[[Tuple], bool]:
        return _atom_acceptor(self.atom.relation, len(self.atom.terms), self.atom._checks)

    def holds(self, tup: Tuple) -> bool:
        return self.acceptor()(tup)

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        return frozenset((self.atom.relation,))

    def canonical_key(self) -> Key:
        return ("atom", self.atom)

    def constant_guard(self) -> Optional[Tup[int, DataValue]]:
        return _atom_constant_guard(self.atom)

    def __str__(self) -> str:
        return f"U[{self.atom}]"


@dataclass(frozen=True)
class SelfJoinUnaryPredicate(UnaryPredicate):
    """``U_A``: tuples that a single homomorphism maps *all* atoms of ``A`` onto.

    Implements Lemma B.3: the atoms of the self-join are unified into a single
    atom ``t_A`` (variables merged into equivalence classes) and the check
    reduces to matching ``t_A``.
    """

    atoms: Tup[Atom, ...]
    unified: Atom

    def __init__(self, atoms: Sequence[Atom]) -> None:
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "unified", unify_self_join_atoms(atoms))

    def acceptor(self) -> Callable[[Tuple], bool]:
        unified = self.unified
        return _atom_acceptor(unified.relation, len(unified.terms), unified._checks)

    def holds(self, tup: Tuple) -> bool:
        return self.acceptor()(tup)

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        # ``unified`` carries an impossible relation name for unsatisfiable
        # self joins; dispatching on it is still a correct over-approximation
        # (the transition simply never becomes a candidate).
        return frozenset((self.unified.relation,))

    def canonical_key(self) -> Key:
        return ("selfjoin", self.unified)

    def constant_guard(self) -> Optional[Tup[int, DataValue]]:
        return _atom_constant_guard(self.unified)

    def __str__(self) -> str:
        return f"U[{' & '.join(str(a) for a in self.atoms)}]"


@dataclass(frozen=True)
class LambdaUnaryPredicate(UnaryPredicate):
    """A unary predicate given by an arbitrary callable (assumed linear time).

    ``relations`` optionally declares the dispatch key (see
    :meth:`UnaryPredicate.dispatch_relations`); without it the predicate is a
    dispatch wildcard, checked on every tuple.
    """

    func: Callable[[Tuple], bool]
    description: str = "λ"
    relations: Optional[FrozenSet[str]] = None

    def holds(self, tup: Tuple) -> bool:
        return bool(self.func(tup))

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        return self.relations

    def canonical_key(self) -> Key:
        # Two wrappers around the same callable decide identically.
        return ("lambda", id(self.func))

    def __str__(self) -> str:
        return self.description

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LambdaUnaryPredicate):
            return self.func is other.func
        return NotImplemented

    def __hash__(self) -> int:
        return hash(id(self.func))


@dataclass(frozen=True)
class AttributeFilter(UnaryPredicate):
    """Tuples of ``relation`` whose value at ``position`` satisfies a comparison.

    Supported operators: ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.  Used by
    the CER pattern DSL for local filters (e.g. ``price > 100``).
    """

    relation: str
    position: int
    operator: str
    constant: DataValue

    def acceptor(self) -> Callable[[Tuple], bool]:
        return _filter_acceptor(self.relation, self.position, self.operator, self.constant)

    def holds(self, tup: Tuple) -> bool:
        return self.acceptor()(tup)

    def dispatch_relations(self) -> Optional[FrozenSet[str]]:
        return frozenset((self.relation,))

    def canonical_key(self) -> Key:
        return ("attr", self.relation, self.position, self.operator, self.constant)

    def constant_guard(self) -> Optional[Tup[int, DataValue]]:
        if self.operator == "==":
            return (self.position, self.constant)
        return None

    def threshold(self) -> Optional[Tup[UnaryPredicate, str, int, str, DataValue]]:
        if self.operator in ("<", "<=", ">", ">="):
            return (TruePredicate(), self.relation, self.position, self.operator, self.constant)
        return None

    def __str__(self) -> str:
        return f"{self.relation}[{self.position}] {self.operator} {self.constant!r}"


def _atom_constant_guard(atom: Atom) -> Optional[Tup[int, DataValue]]:
    """The first ``(position, constant)`` pinned by an atom's constant terms.

    Any tuple matched by the atom carries the constant at that position, so the
    pair satisfies the :meth:`UnaryPredicate.constant_guard` contract.
    """
    for position, term, positional in atom._checks:
        if not positional:
            return (position, term)
    return None


# -------------------------------------------------------------------------- binary
class BinaryPredicate:
    """Base class of binary predicates ``B ⊆ Tuples[σ]^2``.

    ``holds(t1, t2)`` receives the *earlier* tuple first, matching the order in
    which CCEA/PCEA runs compare consecutive tuples.
    """

    def holds(self, first: Tuple, second: Tuple) -> bool:
        raise NotImplementedError

    def __call__(self, first: Tuple, second: Tuple) -> bool:
        return self.holds(first, second)


@dataclass(frozen=True)
class LambdaBinaryPredicate(BinaryPredicate):
    """A binary predicate given by an arbitrary callable (not necessarily in ``B_eq``)."""

    func: Callable[[Tuple, Tuple], bool]
    description: str = "λ2"

    def holds(self, first: Tuple, second: Tuple) -> bool:
        return bool(self.func(first, second))

    def __str__(self) -> str:
        return self.description

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LambdaBinaryPredicate):
            return self.func is other.func
        return NotImplemented

    def __hash__(self) -> int:
        return hash(id(self.func))


class EqualityPredicate(BinaryPredicate):
    """An equality predicate of the class ``B_eq``.

    :meth:`left_key` is the paper's ``⃗B`` on the earlier tuple, :meth:`right_key`
    the key of the later one; ``(t1, t2) ∈ B`` iff both keys are defined (not
    ``None``) and equal.  Keys must be hashable — the streaming algorithm
    indexes its hash table on them.  Subclasses either set the two sides' key
    plans (see "compiled plans" above) or implement both key methods.
    """

    _left_plan = _right_plan = None

    def key_extractors(self):
        """The flat ``(left, right)`` extractors ``tup -> key | None``, resolved
        once per dispatch index; the key methods call the same extractors."""
        if self._left_plan is None:
            return self.left_key, self.right_key
        return compile_key_plan(self._left_plan), compile_key_plan(self._right_plan)

    def left_key_plan(self):
        """The left side's key plan as hashable data (``None`` without one): what
        tells two joins project the earlier tuple alike.  The extractor's own
        identity cannot — ``compile_key_plan`` is a bounded cache."""
        return self._left_plan

    def left_key(self, tup: Tuple) -> Optional[Key]:
        if self._left_plan is None:
            raise NotImplementedError
        return compile_key_plan(self._left_plan)(tup)

    def right_key(self, tup: Tuple) -> Optional[Key]:
        if self._right_plan is None:
            raise NotImplementedError
        return compile_key_plan(self._right_plan)(tup)

    def holds(self, first: Tuple, second: Tuple) -> bool:
        left = self.left_key(first)
        if left is None:
            return False
        right = self.right_key(second)
        if right is None:
            return False
        return left == right


@dataclass(frozen=True)
class TrueEquality(EqualityPredicate):
    """The total binary predicate, presented as an equality predicate.

    Both key functions are defined everywhere and constant, so every pair of
    tuples is related; being in ``B_eq`` it can be used by Algorithm 1 (e.g.
    for pure sequencing steps with no correlation).
    """

    def left_key(self, tup: Tuple) -> Optional[Key]:
        return ()

    def right_key(self, tup: Tuple) -> Optional[Key]:
        return ()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class ProjectionEquality(EqualityPredicate):
    """Equality of attribute projections, e.g. ``(T x, S x y)``.

    ``left_spec`` and ``right_spec`` map relation names to the attribute
    positions whose values form the key; tuples of other relations are
    undefined for the corresponding side.

    Examples
    --------
    >>> eq = ProjectionEquality({"T": (0,)}, {"S": (0,)})
    >>> eq.holds(Tuple("T", (2,)), Tuple("S", (2, 11)))
    True
    >>> eq.holds(Tuple("T", (3,)), Tuple("S", (2, 11)))
    False
    """

    left_spec: Mapping[str, Tup[int, ...]]
    right_spec: Mapping[str, Tup[int, ...]]

    def __init__(
        self,
        left_spec: Mapping[str, Sequence[int]],
        right_spec: Mapping[str, Sequence[int]],
    ) -> None:
        object.__setattr__(
            self, "left_spec", {rel: tuple(pos) for rel, pos in left_spec.items()}
        )
        object.__setattr__(
            self, "right_spec", {rel: tuple(pos) for rel, pos in right_spec.items()}
        )
        for side, spec in (("_left_plan", self.left_spec), ("_right_plan", self.right_spec)):
            plan = tuple(
                (relation, max(positions, default=-1) + 1, False, positions, ())
                for relation, positions in sorted(spec.items())
            )
            object.__setattr__(self, side, plan)

    def __str__(self) -> str:
        def fmt(spec: Mapping[str, Tup[int, ...]]) -> str:
            return ",".join(f"{rel}{list(pos)}" for rel, pos in sorted(spec.items()))

        return f"eq({fmt(self.left_spec)} ~ {fmt(self.right_spec)})"

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self.left_spec.items())),
                tuple(sorted(self.right_spec.items())),
            )
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ProjectionEquality):
            return (
                dict(self.left_spec) == dict(other.left_spec)
                and dict(self.right_spec) == dict(other.right_spec)
            )
        return NotImplemented


@dataclass(frozen=True)
class AtomJoinEquality(EqualityPredicate):
    """``B_{S(ȳ), T(z̄)}``: pairs of tuples consistent with a single homomorphism.

    The key is the projection onto the variables shared by the two atoms
    (sorted by name).  When the atoms share no variables the key is the empty
    tuple, i.e. every pair of matching tuples is related.
    """

    left_atom: Atom
    right_atom: Atom
    shared: Tup[Variable, ...]

    def __init__(self, left_atom: Atom, right_atom: Atom) -> None:
        object.__setattr__(self, "left_atom", left_atom)
        object.__setattr__(self, "right_atom", right_atom)
        shared = sorted(left_atom.variables() & right_atom.variables(), key=lambda v: v.name)
        object.__setattr__(self, "shared", tuple(shared))
        object.__setattr__(self, "_left_plan", (_atom_entry(left_atom, shared),))
        object.__setattr__(self, "_right_plan", (_atom_entry(right_atom, shared),))

    def __str__(self) -> str:
        return f"B[{self.left_atom} ~ {self.right_atom}]"


@dataclass(frozen=True)
class VariableAtomEquality(EqualityPredicate):
    """``B_{x, S(ȳ)}``: join of the q-tree subtree below ``x`` with atom ``S(ȳ)``.

    The left side accepts any tuple matching one of the atoms hanging below the
    q-tree variable ``x`` (the paper's ``⋃_{i ∈ desc(x)} B_{R_i(x̄_i), S(ȳ)}``).
    Hierarchy guarantees every such atom shares the *same* variable set with
    ``S(ȳ)``, so the union of equality predicates is itself an equality
    predicate; the constructor checks this defensively.
    """

    left_atoms: Tup[Atom, ...]
    right_atom: Atom
    shared: Tup[Variable, ...]

    def __init__(self, left_atoms: Sequence[Atom], right_atom: Atom) -> None:
        if not left_atoms:
            raise ValueError("VariableAtomEquality needs at least one left atom")
        object.__setattr__(self, "left_atoms", tuple(left_atoms))
        object.__setattr__(self, "right_atom", right_atom)
        shared_sets = {
            frozenset(atom.variables() & right_atom.variables()) for atom in left_atoms
        }
        if len(shared_sets) != 1:
            raise ValueError(
                "atoms below a q-tree variable must share the same variables with the "
                f"target atom; got {shared_sets}"
            )
        shared = sorted(next(iter(shared_sets)), key=lambda v: v.name)
        object.__setattr__(self, "shared", tuple(shared))
        # A tuple takes the key of the first left atom it matches.
        left_plan = tuple(_atom_entry(atom, shared) for atom in left_atoms)
        object.__setattr__(self, "_left_plan", left_plan)
        object.__setattr__(self, "_right_plan", (_atom_entry(right_atom, shared),))

    def __str__(self) -> str:
        left = "|".join(str(a) for a in self.left_atoms)
        return f"B[({left}) ~ {self.right_atom}]"


@dataclass(frozen=True)
class OrderPredicate(BinaryPredicate):
    """An order (inequality) predicate between attribute projections.

    ``(t1, t2) ∈ B`` iff ``t1`` is a tuple of ``left_relation``, ``t2`` of
    ``right_relation``, and ``t1[left_position] op t2[right_position]`` holds
    for the given comparison operator.  Order predicates are *not* equality
    predicates, so Algorithm 1's hash probe does not apply: the engine scans
    the source's live runs for such a join (the paper's Section 6 lists
    this as an open direction).
    """

    left_relation: str
    left_position: int
    operator: str
    right_relation: str
    right_position: int

    def holds(self, first: Tuple, second: Tuple) -> bool:
        if first.relation != self.left_relation or second.relation != self.right_relation:
            return False
        if self.left_position >= first.arity or self.right_position >= second.arity:
            return False
        try:
            return _COMPARISONS[self.operator](
                first.value(self.left_position), second.value(self.right_position)
            )
        except TypeError:
            return False

    def __str__(self) -> str:
        return (
            f"{self.left_relation}[{self.left_position}] {self.operator} "
            f"{self.right_relation}[{self.right_position}]"
        )


# -------------------------------------------------------------- self-join machinery
def unify_self_join_atoms(atoms: Sequence[Atom]) -> Atom:
    """Compute the unified atom ``t_A`` of Lemma B.3.

    All atoms must share the same relation name and arity.  Attribute positions
    are grouped into equivalence classes: two positions are equivalent when some
    atom carries the same variable at both, and the classes are closed
    transitively across atoms.  The unified atom carries one fresh variable per
    class (or the constant, when a class is pinned by a constant occurring at
    one of its positions).
    """
    atoms = list(atoms)
    if not atoms:
        raise ValueError("cannot unify an empty self join")
    relation = atoms[0].relation
    arity = atoms[0].arity
    for atom in atoms[1:]:
        if atom.relation != relation or atom.arity != arity:
            raise ValueError("self-join atoms must share relation name and arity")

    # Union-find over positions 0..arity-1.
    parent = list(range(arity))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for atom in atoms:
        positions_by_term: Dict[object, list[int]] = {}
        for position, term in enumerate(atom.terms):
            if is_variable(term):
                positions_by_term.setdefault(term, []).append(position)
        for positions in positions_by_term.values():
            for first, second in zip(positions, positions[1:]):
                union(first, second)

    # Also: the same variable occurring in two different atoms at different
    # positions identifies those positions (a single homomorphism must send
    # both occurrences to the same value of the single tuple).
    variable_positions: Dict[Variable, list[int]] = {}
    for atom in atoms:
        for position, term in enumerate(atom.terms):
            if is_variable(term):
                variable_positions.setdefault(term, []).append(position)
    for positions in variable_positions.values():
        for first, second in zip(positions, positions[1:]):
            union(first, second)

    # Constants pin their class.
    constants: Dict[int, DataValue] = {}
    conflict_free = True
    for atom in atoms:
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                root = find(position)
                if root in constants and constants[root] != term:
                    conflict_free = False
                constants[root] = term
    if not conflict_free:
        # No tuple can satisfy the self join; encode with an unsatisfiable atom
        # using two distinct constants forced equal through a repeated variable
        # is impossible, so we signal with a dedicated impossible relation name.
        return Atom(relation + "#unsat", tuple(Variable(f"_c{i}") for i in range(arity)))

    terms: list = []
    for position in range(arity):
        root = find(position)
        if root in constants:
            terms.append(constants[root])
        else:
            terms.append(Variable(f"_c{root}"))
    return Atom(relation, tuple(terms))


def _group_variables(atoms: Sequence[Atom]) -> FrozenSet[Variable]:
    result: set[Variable] = set()
    for atom in atoms:
        result |= atom.variables()
    return frozenset(result)


@dataclass(frozen=True)
class SelfJoinEquality(EqualityPredicate):
    """``B_{A1, A2}`` of Lemma B.4: consistency of two (self-join) atom groups.

    ``(t1, t2) ∈ B`` iff a single homomorphism maps every atom of ``A1`` onto
    ``t1`` and every atom of ``A2`` onto ``t2``.  The within-group constraints
    are exactly the unified atoms of Lemma B.3; the cross-group constraint is
    equality of the values of the variables shared by the two groups, which is
    the equality key used for hashing.
    """

    left_atoms: Tup[Atom, ...]
    right_atoms: Tup[Atom, ...]
    left_unified: Atom
    right_unified: Atom
    shared: Tup[Variable, ...]

    def __init__(self, left_atoms: Sequence[Atom], right_atoms: Sequence[Atom]) -> None:
        object.__setattr__(self, "left_atoms", tuple(left_atoms))
        object.__setattr__(self, "right_atoms", tuple(right_atoms))
        object.__setattr__(self, "left_unified", unify_self_join_atoms(left_atoms))
        object.__setattr__(self, "right_unified", unify_self_join_atoms(right_atoms))
        shared = sorted(
            _group_variables(left_atoms) & _group_variables(right_atoms),
            key=lambda v: v.name,
        )
        object.__setattr__(self, "shared", tuple(shared))
        object.__setattr__(self, "_left_plan", self._plan(left_atoms, self.left_unified))
        object.__setattr__(self, "_right_plan", self._plan(right_atoms, self.right_unified))

    def _plan(self, atoms: Sequence[Atom], unified: Atom):
        # A tuple matching the unified atom carries one value at every occurrence
        # of a variable, so the first atom holding it gives the slot.
        slots = tuple(
            next(atom._first[variable] for atom in atoms if variable in atom._first)
            for variable in self.shared
        )
        return ((unified.relation, len(unified.terms), True, slots, unified._checks),)

    def __str__(self) -> str:
        left = "&".join(str(a) for a in self.left_atoms)
        right = "&".join(str(a) for a in self.right_atoms)
        return f"B[{left} ~ {right}]"
