"""Acyclic conjunctive queries and join trees (paper, Section 4).

A CQ is *acyclic* iff it has a join tree: a tree over the distinct atoms such
that, for every variable ``x``, the atoms containing ``x`` form a connected
subtree.  Acyclicity is decided with the classical GYO (Graham–Yu–Özsoyoğlu)
reduction on the query's hypergraph, and a join tree is produced as a witness.

Theorem 4.2 states that acyclic but non-hierarchical CQ cannot be expressed by
any PCEA; this module classifies queries for that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple as Tup

from repro.cq.query import ConjunctiveQuery, Variable


@dataclass
class JoinTreeNode:
    """A node of a join tree, labelled by a distinct atom of the query.

    ``atom_ids`` collects every body position carrying this atom (relevant for
    queries with repeated atoms).
    """

    atom_index: int
    atom_ids: Tup[int, ...]
    children: List["JoinTreeNode"] = field(default_factory=list)

    def iter_nodes(self):
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass
class JoinTree:
    """A join tree witnessing acyclicity of a CQ."""

    query: ConjunctiveQuery
    root: JoinTreeNode

    def nodes(self):
        return self.root.iter_nodes()

    def edges(self) -> List[Tup[int, int]]:
        """Parent/child pairs of representative atom identifiers."""
        result: List[Tup[int, int]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                result.append((node.atom_index, child.atom_index))
                stack.append(child)
        return result

    def validate(self) -> None:
        """Check the connectedness condition, raising ``AssertionError`` otherwise."""
        query = self.query
        representative_atoms = {node.atom_index for node in self.nodes()}
        distinct = {}
        for i, atom in enumerate(query.atoms):
            distinct.setdefault(atom, i)
        assert representative_atoms == set(distinct.values()), "join tree must cover distinct atoms"
        adjacency: Dict[int, set[int]] = {node.atom_index: set() for node in self.nodes()}
        for a, b in self.edges():
            adjacency[a].add(b)
            adjacency[b].add(a)
        for variable in query.variables():
            holders = [
                node.atom_index
                for node in self.nodes()
                if variable in query.atom(node.atom_index).variables()
            ]
            if len(holders) <= 1:
                continue
            seen = {holders[0]}
            frontier = [holders[0]]
            allowed = set(holders)
            while frontier:
                current = frontier.pop()
                for neighbour in adjacency[current]:
                    if neighbour in allowed and neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            assert seen == set(holders), f"atoms of variable {variable} are not connected"


def _hyperedges(query: ConjunctiveQuery) -> Dict[int, FrozenSet[Variable]]:
    """Hyperedges of the query hypergraph, one per *distinct* atom (representative id)."""
    edges: Dict[int, FrozenSet[Variable]] = {}
    seen = {}
    for i, atom in enumerate(query.atoms):
        if atom in seen:
            continue
        seen[atom] = i
        edges[i] = atom.variables()
    return edges


def gyo_reduction(query: ConjunctiveQuery) -> Tup[bool, List[Tup[int, Optional[int]]]]:
    """Run the GYO reduction.

    Returns a pair ``(acyclic, elimination)`` where ``elimination`` records, in
    order, each eliminated hyperedge together with the hyperedge it was found
    to be an *ear* of (``None`` when it was isolated).  The query is acyclic
    iff all hyperedges get eliminated.
    """
    edges = dict(_hyperedges(query))
    elimination: List[Tup[int, Optional[int]]] = []
    changed = True
    while changed and len(edges) > 1:
        changed = False
        for edge_id in sorted(edges):
            variables = edges[edge_id]
            others = {k: v for k, v in edges.items() if k != edge_id}
            # Variables exclusive to this edge can be ignored for ear detection.
            shared = set()
            for variable in variables:
                if any(variable in other for other in others.values()):
                    shared.add(variable)
            if not shared:
                elimination.append((edge_id, None))
                del edges[edge_id]
                changed = True
                break
            witness = None
            for other_id, other_vars in others.items():
                if shared <= other_vars:
                    witness = other_id
                    break
            if witness is not None:
                elimination.append((edge_id, witness))
                del edges[edge_id]
                changed = True
                break
    acyclic = len(edges) <= 1
    if acyclic and edges:
        last = next(iter(edges))
        elimination.append((last, None))
    return acyclic, elimination


def is_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether the query has a join tree (GYO reduction succeeds)."""
    acyclic, _ = gyo_reduction(query)
    return acyclic


def build_join_tree(query: ConjunctiveQuery) -> JoinTree:
    """Build a join tree for an acyclic CQ.

    The tree is reconstructed from the GYO elimination order: each eliminated
    ear becomes a child of its witness; isolated edges become children of the
    final root (so the result is a single tree even for Gaifman-disconnected
    queries).

    Raises
    ------
    ValueError
        If the query is not acyclic.
    """
    acyclic, elimination = gyo_reduction(query)
    if not acyclic:
        raise ValueError(f"{query} is not acyclic")
    atom_occurrences: Dict[int, Tup[int, ...]] = {}
    distinct = {}
    for i, atom in enumerate(query.atoms):
        distinct.setdefault(atom, i)
    for atom, representative in distinct.items():
        atom_occurrences[representative] = tuple(
            i for i, other in enumerate(query.atoms) if other == atom
        )
    root_id = elimination[-1][0]
    nodes: Dict[int, JoinTreeNode] = {
        edge_id: JoinTreeNode(edge_id, atom_occurrences[edge_id])
        for edge_id, _ in elimination
    }
    for edge_id, witness in elimination[:-1]:
        parent_id = witness if witness is not None else root_id
        if parent_id == edge_id:
            continue
        nodes[parent_id].children.append(nodes[edge_id])
    return JoinTree(query, nodes[root_id])
