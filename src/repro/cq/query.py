"""Conjunctive queries (paper, Section 4).

A CQ has the form ``Q(x̄) ← R_0(x̄_0), ..., R_{m-1}(x̄_{m-1})`` where each
``x̄_i`` mixes variables and data values (constants).  The body is treated as a
*bag of atoms*: ``I(Q)`` is the set of atom positions ``0..m-1`` and ``U(Q)``
the set of distinct atoms, which is what the bag semantics (t-homomorphisms)
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple as Tup, Union

from repro.cq.bag import Bag
from repro.cq.schema import DataValue, Schema, SchemaError, Tuple


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, disjoint from the set of data values.

    >>> x = Variable("x")
    >>> x.name
    'x'
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


Term = Union[Variable, DataValue]


def is_variable(term: Term) -> bool:
    """Return ``True`` when ``term`` is a :class:`Variable` (not a constant)."""
    return isinstance(term, Variable)


@dataclass(frozen=True)
class Atom:
    """A query atom ``R(x̄)`` whose terms mix variables and constants.

    >>> x, y = Variable("x"), Variable("y")
    >>> a = Atom("S", (x, y))
    >>> sorted(v.name for v in a.variables())
    ['x', 'y']
    >>> str(a)
    'S(x, y)'
    """

    relation: str
    terms: Tup[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        # The atom's shape, computed once for the predicate compiler
        # (repro.core.predicates) and the q-tree construction (its variable
        # set, ``variables()``): each variable's first position, and the
        # residual checks a tuple of the right relation and arity must pass —
        # ``(i, j, True)`` for ``values[i] == values[j]`` (repeated variable),
        # ``(i, c, False)`` for ``values[i] == c`` (constant term).  Without
        # checks any such tuple is a homomorphic image (``matches`` fast path).
        first: Dict[Variable, int] = {}
        checks = []
        for position, term in enumerate(self.terms):
            if not isinstance(term, Variable):
                checks.append((position, term, False))
            elif first.setdefault(term, position) != position:
                checks.append((position, first[term], True))
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_checks", tuple(checks))
        object.__setattr__(self, "_variables", frozenset(first))
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        # The dataclass hash, kept: atoms sit inside the canonical predicate
        # keys and shape keys the dispatch tables hash at every registration.
        cached = self._hash
        if cached is None:
            cached = hash((self.relation, self.terms))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # Rebuilt from its fields: a cached string hash is per process.
        return Atom, (self.relation, self.terms)

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> frozenset[Variable]:
        """The set of variables ``{x̄}`` appearing in the atom."""
        return self._variables

    def constants(self) -> frozenset:
        """The set of data values (constants) appearing in the atom."""
        return frozenset(t for t in self.terms if not isinstance(t, Variable))

    def positions_of(self, term: Term) -> tuple[int, ...]:
        """All positions where ``term`` occurs in the atom."""
        return tuple(i for i, t in enumerate(self.terms) if t == term)

    def matches(self, tup: Tuple) -> bool:
        """Whether some homomorphism maps this atom onto ``tup``.

        This is exactly the unary predicate ``U_{R(x̄)}`` of the Theorem 4.1
        construction: same relation name, same arity, repeated variables carry
        equal values, constants are matched literally.
        """
        if tup.relation != self.relation or tup.arity != self.arity:
            return False
        values = tup.values
        return all(
            values[position] == (values[other] if positional else other)
            for position, other, positional in self._checks
        )

    def instantiate(self, assignment: Dict[Variable, DataValue]) -> Tuple:
        """Apply a homomorphism (variable assignment) producing a concrete tuple."""
        values = []
        for term in self.terms:
            if isinstance(term, Variable):
                if term not in assignment:
                    raise KeyError(f"assignment does not bind {term}")
                values.append(assignment[term])
            else:
                values.append(term)
        return Tuple(self.relation, tuple(values))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.terms!r})"


class ConjunctiveQuery:
    """A conjunctive query ``Q(x̄) ← R_0(x̄_0), ..., R_{m-1}(x̄_{m-1})``.

    Parameters
    ----------
    head:
        The sequence of head variables ``x̄``.
    body:
        The sequence of atoms; the *position* of an atom is its identifier in
        the bag-of-atoms view, so repeated atoms are kept.
    name:
        Optional name for the output relation (defaults to ``"Q"``).
    schema:
        Optional schema; when given, every atom is validated against it.

    Examples
    --------
    >>> x, y = Variable("x"), Variable("y")
    >>> q0 = ConjunctiveQuery([x, y], [Atom("T", (x,)), Atom("S", (x, y)), Atom("R", (x, y))])
    >>> q0.is_full()
    True
    >>> q0.has_self_joins()
    False
    """

    __slots__ = ("name", "head", "atoms", "schema", "_variables")

    def __init__(
        self,
        head: Sequence[Variable],
        body: Sequence[Atom],
        name: str = "Q",
        schema: Schema | None = None,
    ) -> None:
        self.name = name
        self.head: Tup[Variable, ...] = tuple(head)
        self.atoms: Tup[Atom, ...] = tuple(body)
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        for variable in self.head:
            if not isinstance(variable, Variable):
                raise TypeError(f"head must contain variables, got {variable!r}")
        if schema is not None:
            for atom in self.atoms:
                if atom.relation not in schema:
                    raise SchemaError(f"atom relation {atom.relation!r} not in schema")
                if atom.arity != schema.arity(atom.relation):
                    raise SchemaError(
                        f"atom {atom} has arity {atom.arity}, schema expects "
                        f"{schema.arity(atom.relation)}"
                    )
        self.schema = schema
        self._variables = frozenset().union(*(atom.variables() for atom in self.atoms))
        missing = set(self.head) - self._variables
        if missing:
            raise ValueError(f"head variables {sorted(v.name for v in missing)} not in body")

    # ----------------------------------------------------------- bag-of-atoms
    def as_bag(self) -> Bag[Atom]:
        """The body as a bag of atoms with positions as identifiers."""
        return Bag(self.atoms)

    def atom_identifiers(self) -> range:
        """The identifier set ``I(Q)`` (atom positions)."""
        return range(len(self.atoms))

    def atom(self, identifier: int) -> Atom:
        """The atom at position ``identifier``."""
        return self.atoms[identifier]

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    # -------------------------------------------------------------- structure
    def variables(self) -> frozenset[Variable]:
        """All variables appearing in the body."""
        return self._variables

    def relations(self) -> frozenset[str]:
        """All relation names appearing in the body."""
        return frozenset(atom.relation for atom in self.atoms)

    def atoms_with(self, variable: Variable) -> Bag[Atom]:
        """``atoms(x)``: the bag of atoms in which ``variable`` occurs."""
        return Bag(
            {i: atom for i, atom in enumerate(self.atoms) if variable in atom.variables()}
        )

    def atom_ids_with(self, variable: Variable) -> frozenset[int]:
        """Identifiers of the atoms in which ``variable`` occurs."""
        return frozenset(
            i for i, atom in enumerate(self.atoms) if variable in atom.variables()
        )

    def is_full(self) -> bool:
        """Whether every body variable also appears in the head."""
        return self.variables() <= set(self.head)

    def has_self_joins(self) -> bool:
        """Whether two atoms share the same relation name."""
        return len(self.relations()) < len(self.atoms)

    def self_join_groups(self) -> Dict[str, tuple[int, ...]]:
        """Map each relation name occurring more than once to its atom identifiers."""
        groups: Dict[str, list[int]] = {}
        for i, atom in enumerate(self.atoms):
            groups.setdefault(atom.relation, []).append(i)
        return {name: tuple(ids) for name, ids in groups.items() if len(ids) > 1}

    def is_connected_hierarchically(self) -> bool:
        """The paper's notion of connectivity for hierarchical CQ.

        A hierarchical query is connected iff some variable occurs in *every*
        atom (footnote 1 of the paper: for HCQ this coincides with Gaifman
        connectivity).
        """
        if not self.variables():
            return len(self.atoms) <= 1
        return any(
            len(self.atom_ids_with(variable)) == len(self.atoms)
            for variable in self.variables()
        )

    def is_gaifman_connected(self) -> bool:
        """Connectivity of the Gaifman graph (atoms sharing a variable are linked)."""
        if len(self.atoms) <= 1:
            return True
        adjacency: Dict[int, set[int]] = {i: set() for i in range(len(self.atoms))}
        for variable in self.variables():
            ids = sorted(self.atom_ids_with(variable))
            for a, b in zip(ids, ids[1:]):
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.atoms)

    def infer_schema(self) -> Schema:
        """Derive a schema from the atoms (first occurrence fixes the arity)."""
        arities: Dict[str, int] = {}
        for atom in self.atoms:
            if atom.relation in arities and arities[atom.relation] != atom.arity:
                raise SchemaError(
                    f"relation {atom.relation!r} used with arities "
                    f"{arities[atom.relation]} and {atom.arity}"
                )
            arities.setdefault(atom.relation, atom.arity)
        return Schema(arities)

    # ------------------------------------------------------------------ misc
    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.name}({head}) <- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConjunctiveQuery):
            return self.head == other.head and self.atoms == other.atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.head, self.atoms))


def parse_query(text: str, name: str = "Q") -> ConjunctiveQuery:
    """Parse a CQ from a compact textual form.

    The accepted syntax mirrors the paper's notation::

        Q(x, y) <- T(x), S(x, y), R(x, y)

    Lower-case identifiers are variables, integer literals and single-quoted
    strings are constants.  The parser is intentionally small: it exists so
    that examples and tests can state queries readably, not as a general
    Datalog front-end.

    >>> q = parse_query("Q(x, y) <- T(x), S(x, y), R(x, y)")
    >>> len(q)
    3
    """
    import re

    text = text.strip()
    if "<-" not in text:
        raise ValueError("query must contain '<-' separating head and body")
    head_text, body_text = (part.strip() for part in text.split("<-", 1))
    atom_re = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*\(([^()]*)\)")

    def parse_term(token: str) -> Term:
        token = token.strip()
        if not token:
            raise ValueError("empty term")
        if token.startswith("'") and token.endswith("'"):
            return token[1:-1]
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        if token[0].islower() or token[0] == "_":
            return Variable(token)
        raise ValueError(f"cannot parse term {token!r}")

    head_match = atom_re.fullmatch(head_text)
    if head_match is None:
        raise ValueError(f"cannot parse head {head_text!r}")
    head_name = head_match.group(1)
    head_terms = [parse_term(t) for t in head_match.group(2).split(",") if t.strip()]
    if not all(isinstance(t, Variable) for t in head_terms):
        raise ValueError("head may only contain variables")

    atoms = []
    for match in atom_re.finditer(body_text):
        relation = match.group(1)
        terms = [parse_term(t) for t in match.group(2).split(",") if t.strip()]
        atoms.append(Atom(relation, tuple(terms)))
    if not atoms:
        raise ValueError("query body is empty")
    return ConjunctiveQuery(head_terms, atoms, name=head_name or name)
