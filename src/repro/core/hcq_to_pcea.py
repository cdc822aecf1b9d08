"""The Theorem 4.1 construction: from a hierarchical CQ to an equivalent PCEA.

Given a hierarchical conjunctive query ``Q`` the construction produces an
unambiguous PCEA ``P_Q`` over the same schema, with unary predicates in
``U_lin`` and binary predicates in ``B_eq``, such that at every stream position
``n`` the automaton outputs exactly the *new* matches of ``Q`` (the
t-homomorphisms whose latest tuple is ``t_n``), each as a valuation from atom
identifiers to stream positions.

Three cases are covered, following Appendix B:

* **connected, no self joins** — the states are the nodes of the compact
  q-tree; the automaton has quadratic size in ``|Q|``;
* **self joins** — states additionally record which self-join group was read
  last (pairs ``(variable, A)``), the label of a transition is the whole group
  ``A``, and the size can be exponential in ``|Q|``;
* **disconnected queries** — a synthetic root variable plays the role of the
  fresh variable ``x*`` added to every atom; since it never appears in a
  predicate, the construction is literally "``P_{Q*}`` with ``x*`` removed from
  the predicates".

A note on the equivalence ``P_Q ≡ Q``: the paper compares ``⟦P⟧_n(S)`` with
``⟦Q⟧_n(S)``; because an accepting run *at position n* necessarily reads the
tuple ``t_n`` at its root, the per-position outputs of ``P_Q`` correspond to
the t-homomorphisms that use position ``n`` (the cumulative union over
positions recovers the full ``⟦Q⟧_n(S)``).  The test-suite checks exactly this
correspondence against the naive CQ evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple as Tup

from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    BinaryPredicate,
    SelfJoinEquality,
    SelfJoinUnaryPredicate,
    VariableAtomEquality,
)
from repro.cq.hierarchical import QTree, QTreeNode, build_q_tree, is_hierarchical, NotHierarchicalError
from repro.cq.query import Atom, ConjunctiveQuery, Variable


#: Reserved name of the synthetic root variable used for disconnected queries.
SYNTHETIC_ROOT_NAME = "__root__"


@dataclass
class _StructureTree:
    """The compact q-tree (possibly with a synthetic root) used as the automaton skeleton."""

    query: ConjunctiveQuery
    root: QTreeNode

    def path_variables(self, atom_id: int) -> List[Variable]:
        """Tree variables on the path from the root to the leaf of ``atom_id`` (root first)."""
        path: List[Variable] = []

        def walk(node: QTreeNode, acc: List[Variable]) -> List[Variable] | None:
            if node.is_leaf:
                return list(acc) if node.label == atom_id else None
            acc.append(node.label)  # type: ignore[arg-type]
            for child in node.children:
                found = walk(child, acc)
                if found is not None:
                    acc.pop()
                    return found
            acc.pop()
            return None

        result = walk(self.root, path)
        if result is None:
            raise KeyError(f"atom {atom_id} not in structure tree")
        return result

    def variable_node(self, variable: Variable) -> QTreeNode:
        for node in self.root.iter_nodes():
            if node.is_variable and node.label == variable:
                return node
        raise KeyError(f"variable {variable} not in structure tree")

    def children_labels(self, variable: Variable) -> List[Hashable]:
        return [child.label for child in self.variable_node(variable).children]

    def variables(self) -> List[Variable]:
        return [node.label for node in self.root.iter_nodes() if node.is_variable]

    def root_variable(self) -> Variable:
        if not isinstance(self.root.label, Variable):
            raise ValueError("structure tree root must be a variable")
        return self.root.label


def _component_subquery(
    query: ConjunctiveQuery, atom_ids: Sequence[int]
) -> Tup[ConjunctiveQuery, Dict[int, int]]:
    """Build the sub-query induced by ``atom_ids`` plus the local→global id map."""
    atoms = [query.atom(i) for i in atom_ids]
    variables: Set[Variable] = set()
    for atom in atoms:
        variables |= atom.variables()
    head = sorted(variables, key=lambda v: v.name)
    sub = ConjunctiveQuery(head, atoms, name=f"{query.name}_component")
    mapping = {local: original for local, original in enumerate(atom_ids)}
    return sub, mapping


def _relabel(node: QTreeNode, mapping: Dict[int, int]) -> QTreeNode:
    """Replace local atom identifiers by the original ones."""
    if node.is_leaf and isinstance(node.label, int):
        return QTreeNode(mapping[node.label])
    return QTreeNode(node.label, [_relabel(child, mapping) for child in node.children])


def _gaifman_components(query: ConjunctiveQuery) -> List[List[int]]:
    """Connected components of the atoms under "shares a variable"."""
    remaining = set(range(len(query.atoms)))
    components: List[List[int]] = []
    while remaining:
        seed = min(remaining)
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            current_vars = query.atom(current).variables()
            for other in list(remaining - component):
                if query.atom(other).variables() & current_vars:
                    component.add(other)
                    frontier.append(other)
        components.append(sorted(component))
        remaining -= component
    return components


def build_structure_tree(query: ConjunctiveQuery) -> _StructureTree:
    """Build the compact q-tree skeleton, adding a synthetic root when disconnected."""
    components = _gaifman_components(query)
    subtrees: List[QTreeNode] = []
    for component in components:
        if len(component) == 1 and not query.atom(component[0]).variables():
            # A constant-only atom: a bare leaf hanging from the root.
            subtrees.append(QTreeNode(component[0]))
            continue
        sub, mapping = _component_subquery(query, component)
        tree = build_q_tree(sub).compacted()
        subtrees.append(_relabel(tree.root, mapping))
    if len(subtrees) == 1 and isinstance(subtrees[0].label, Variable):
        return _StructureTree(query, subtrees[0])
    root = QTreeNode(Variable(SYNTHETIC_ROOT_NAME), subtrees)
    return _StructureTree(query, root)


# --------------------------------------------------------------------- simple case
def _incomplete_states(
    tree: _StructureTree, query: ConjunctiveQuery, variable: Variable, atom_ids: Iterable[int]
) -> Set[Hashable]:
    """``C_{x,A}``: children of the path variables from ``x`` down to the leaves of ``A``,
    minus those path variables and the atoms of ``A`` themselves."""
    atom_ids = list(atom_ids)
    path_vars: Set[Variable] = set()
    for atom_id in atom_ids:
        full_path = tree.path_variables(atom_id)
        if variable not in full_path:
            raise ValueError(f"{variable} is not an ancestor of atom {atom_id}")
        below = full_path[full_path.index(variable):]
        path_vars |= set(below)
    hanging: Set[Hashable] = set()
    for path_var in path_vars:
        hanging |= set(tree.children_labels(path_var))
    return hanging - path_vars - set(atom_ids)


def _atoms_below(tree: _StructureTree, query: ConjunctiveQuery, variable: Variable) -> List[Atom]:
    """The atoms at the leaves below ``variable`` in the structure tree."""
    node = tree.variable_node(variable)
    return [query.atom(leaf.label) for leaf in node.leaves() if isinstance(leaf.label, int)]


def _simple_construction(query: ConjunctiveQuery, tree: _StructureTree) -> PCEA:
    """The quadratic construction for HCQ without self joins."""
    atom_ids = list(range(len(query.atoms)))
    states: Set[Hashable] = set(atom_ids) | set(tree.variables())
    final = {tree.root_variable()}
    transitions: List[PCEATransition] = []

    for atom_id in atom_ids:
        atom = query.atom(atom_id)
        transitions.append(
            PCEATransition(frozenset(), AtomUnaryPredicate(atom), {}, {atom_id}, atom_id)
        )
        for variable in tree.path_variables(atom_id):
            sources = _incomplete_states(tree, query, variable, [atom_id])
            binaries: Dict[Hashable, BinaryPredicate] = {}
            for source in sources:
                if isinstance(source, int):
                    binaries[source] = AtomJoinEquality(query.atom(source), atom)
                else:
                    binaries[source] = VariableAtomEquality(
                        _atoms_below(tree, query, source), atom
                    )
            transitions.append(
                PCEATransition(sources, AtomUnaryPredicate(atom), binaries, {atom_id}, variable)
            )

    return PCEA(states, transitions, final, labels=atom_ids)


# ------------------------------------------------------------------ self-join case
def _self_join_groups(query: ConjunctiveQuery) -> List[Tup[int, ...]]:
    """All non-empty sets of atom identifiers sharing a relation name (the set ``SJ_Q``)."""
    by_relation: Dict[str, List[int]] = {}
    for atom_id, atom in enumerate(query.atoms):
        by_relation.setdefault(atom.relation, []).append(atom_id)
    groups: List[Tup[int, ...]] = []
    for ids in by_relation.values():
        for size in range(1, len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                groups.append(tuple(combo))
    return groups


def _common_path_variables(tree: _StructureTree, group: Sequence[int]) -> List[Variable]:
    """Tree variables that are ancestors of every leaf of the group (root first)."""
    paths = [tree.path_variables(atom_id) for atom_id in group]
    common = set(paths[0])
    for path in paths[1:]:
        common &= set(path)
    # Preserve root-first order using the first path.
    return [variable for variable in paths[0] if variable in common]


def _general_construction(query: ConjunctiveQuery, tree: _StructureTree) -> PCEA:
    """The (worst-case exponential) construction for HCQ with self joins."""
    atom_ids = list(range(len(query.atoms)))
    groups = _self_join_groups(query)
    group_atoms: Dict[Tup[int, ...], List[Atom]] = {
        group: [query.atom(i) for i in group] for group in groups
    }

    # Variable states: (variable, group) for every group and every common path variable.
    variable_states: Set[Tup[Variable, Tup[int, ...]]] = set()
    anchors: Dict[Tup[int, ...], List[Variable]] = {}
    for group in groups:
        common = _common_path_variables(tree, group)
        anchors[group] = common
        for variable in common:
            variable_states.add((variable, group))

    # For every variable, the groups that can have produced it (used by encodings).
    groups_of_variable: Dict[Variable, List[Tup[int, ...]]] = {}
    for variable, group in variable_states:
        groups_of_variable.setdefault(variable, []).append(group)
    for variable in groups_of_variable:
        groups_of_variable[variable].sort()

    states: Set[Hashable] = set(atom_ids) | set(variable_states)
    root = tree.root_variable()
    final = {(root, group) for group in groups if (root, group) in variable_states}
    transitions: List[PCEATransition] = []

    for atom_id in atom_ids:
        atom = query.atom(atom_id)
        transitions.append(
            PCEATransition(frozenset(), AtomUnaryPredicate(atom), {}, {atom_id}, atom_id)
        )

    for group in groups:
        atoms = group_atoms[group]
        unary = SelfJoinUnaryPredicate(atoms) if len(atoms) > 1 else AtomUnaryPredicate(atoms[0])
        for variable in anchors[group]:
            incomplete = _incomplete_states(tree, query, variable, group)
            atom_sources = sorted(s for s in incomplete if isinstance(s, int))
            variable_sources = sorted(
                (s for s in incomplete if isinstance(s, Variable)), key=lambda v: v.name
            )
            # Every encoding picks, for each incomplete variable, the group that
            # completed it; atoms of the encoding are fixed.
            choices = [
                [(source, choice) for choice in groups_of_variable.get(source, [])]
                for source in variable_sources
            ]
            if any(not alternatives for alternatives in choices):
                # Some incomplete variable has no state: the transition can never
                # fire (should not happen for well-formed trees).
                continue
            for encoding in itertools.product(*choices):
                sources: Set[Hashable] = set(atom_sources) | set(encoding)
                binaries: Dict[Hashable, BinaryPredicate] = {}
                for source in atom_sources:
                    binaries[source] = SelfJoinEquality([query.atom(source)], atoms)
                for source_variable, source_group in encoding:
                    binaries[(source_variable, source_group)] = SelfJoinEquality(
                        group_atoms[source_group], atoms
                    )
                transitions.append(
                    PCEATransition(sources, unary, binaries, set(group), (variable, group))
                )

    return PCEA(states, transitions, final, labels=atom_ids)


# ------------------------------------------------------------------------- facade
def hcq_to_pcea(query: ConjunctiveQuery, force_general: bool = False) -> PCEA:
    """Build the PCEA ``P_Q`` of Theorem 4.1 for a hierarchical CQ ``Q``.

    Parameters
    ----------
    query:
        A full hierarchical conjunctive query (self joins and disconnected
        queries are supported).
    force_general:
        Use the general (self-join) construction even when the query has no
        self joins — useful for testing that both constructions agree.

    Returns
    -------
    PCEA
        An unambiguous PCEA with labels ``I(Q)`` whose outputs at position ``n``
        are exactly the new matches of ``Q`` at position ``n``.

    Raises
    ------
    NotHierarchicalError
        If the query is not full or not hierarchical.
    """
    if not query.is_full():
        raise NotHierarchicalError(f"{query} is not full")
    if not is_hierarchical(query):
        raise NotHierarchicalError(f"{query} is not hierarchical")

    if len(query.atoms) == 1:
        atom = query.atom(0)
        transition = PCEATransition(frozenset(), AtomUnaryPredicate(atom), {}, {0}, 0)
        pcea = PCEA({0}, [transition], {0}, labels=[0])
    else:
        tree = build_structure_tree(query)
        if query.has_self_joins() or force_general:
            pcea = _general_construction(query, tree)
        else:
            pcea = _simple_construction(query, tree)
    return pcea
