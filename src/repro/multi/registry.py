"""Query registry: the front end of the multi-query subsystem.

A :class:`QueryRegistry` normalises the many ways a client can express a
pattern — a compiled :class:`~repro.core.pcea.PCEA`, a CER pattern from the
DSL, a :class:`~repro.cq.query.ConjunctiveQuery`, or a query string — into a
registered entry with its own sliding window, and issues an opaque
:class:`QueryHandle` for later unregistration and output routing.  The
registry is pure bookkeeping; the runtime state (one run store per window,
the merged dispatch index) lives in
:class:`~repro.multi.engine.MultiQueryEngine`, which owns a registry and
patches its merged index in place on every registration change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.pcea import PCEA
from repro.cq.hierarchical import NotHierarchicalError, is_hierarchical
from repro.cq.query import ConjunctiveQuery, parse_query
from repro.engine.compiler import compile_pattern
from repro.engine.dsl import Pattern


QuerySpec = Union[PCEA, Pattern, ConjunctiveQuery, str]


@dataclass(frozen=True)
class QueryHandle:
    """An opaque handle naming one registered query.

    ``id`` is unique for the lifetime of the registry (ids are never reused,
    so a stale handle can be detected); ``name`` is a client-facing label used
    in CLI output and diagnostics; ``window`` is the query's sliding-window
    size.
    """

    id: int
    name: str
    window: int

    def __str__(self) -> str:
        return f"{self.name}#{self.id}"


@dataclass
class RegisteredQuery:
    """One registry entry: the handle and its compiled automaton."""

    handle: QueryHandle
    pcea: PCEA


def compile_query(query: QuerySpec) -> PCEA:
    """Normalise any supported query specification into a PCEA.

    Strings are parsed as conjunctive queries; conjunctive queries must be
    hierarchical (Theorem 4.1's hypothesis); DSL patterns go through the
    pattern compiler.  Raises ``ValueError`` subclasses on malformed input and
    ``TypeError`` for an unsupported specification type.  The engine admits
    every PCEA that comes out.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ConjunctiveQuery):
        if not is_hierarchical(query):
            raise NotHierarchicalError(
                f"query {query.name} is not hierarchical; only hierarchical CQs admit "
                "the streaming evaluation of the paper"
            )
        return hcq_to_pcea(query)
    if isinstance(query, Pattern):
        return compile_pattern(query)
    if isinstance(query, PCEA):
        return query
    raise TypeError(
        f"cannot register a {type(query).__name__}; expected a PCEA, a CER "
        "pattern, a ConjunctiveQuery, or a query string"
    )


class QueryRegistry:
    """Dynamic registration of queries, each with its own sliding window."""

    def __init__(self) -> None:
        self._entries: Dict[int, RegisteredQuery] = {}
        self._next_id = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every registration change (consumers cache against it)."""
        return self._version

    def register(
        self, query: QuerySpec, window: int, name: Optional[str] = None
    ) -> QueryHandle:
        """Compile and register ``query`` under a ``window``-sized sliding window."""
        if window < 0:
            raise ValueError("window size must be non-negative")
        pcea = compile_query(query)
        handle = QueryHandle(self._next_id, name or f"q{self._next_id}", window)
        self._next_id += 1
        self._entries[handle.id] = RegisteredQuery(handle, pcea)
        self._version += 1
        return handle

    def unregister(self, handle: QueryHandle) -> None:
        """Drop a registered query; raises ``KeyError`` for unknown/stale handles."""
        if handle.id not in self._entries:
            raise KeyError(f"no registered query with handle {handle}")
        del self._entries[handle.id]
        self._version += 1

    def withdraw(self, handle: QueryHandle) -> None:
        """Undo the registration that issued ``handle``, the latest one: the
        registry is left as before it, id counter included (an engine
        withdraws a query it could not admit)."""
        if handle.id != self._next_id - 1 or handle.id not in self._entries:
            raise KeyError(f"{handle} is not the latest registration")
        del self._entries[handle.id]
        self._next_id -= 1
        self._version -= 1

    def entries(self) -> List[RegisteredQuery]:
        """Registered queries in registration order."""
        return [self._entries[qid] for qid in sorted(self._entries)]

    # ------------------------------------------------------- snapshot protocol
    def snapshot(self) -> dict:
        """The registry's bookkeeping as a plain serialisable mapping.

        Queries themselves (compiled PCEA) are *not* serialised — the
        restoring side re-registers the same query specifications and the
        engine verifies equivalence through one digest per query
        (:meth:`TransitionDispatchIndex.digest
        <repro.core.dispatch.TransitionDispatchIndex.digest>`); what the
        snapshot preserves is the handle table (ids, names, windows, in
        registration order) and the id counter, so restored handles and all
        future registrations carry the same ids as the snapshotted run.
        """
        return {
            "next_id": self._next_id,
            "version": self._version,
            "entries": [
                {
                    "id": entry.handle.id,
                    "name": entry.handle.name,
                    "window": entry.handle.window,
                }
                for entry in self.entries()
            ],
        }

    def restore_handles(self, snapshot: dict) -> List[QueryHandle]:
        """Remap this registry's handles onto a snapshot's handle table.

        The registry must hold the same queries in the same registration
        order as the snapshotted one (the caller re-registered them; windows
        are verified here, structural equivalence by the engine's digest
        check).  Handles are rewritten in place — ids and names adopt the
        snapshot's, which is what keeps output routing and future handle
        allocation identical to the snapshotted run even when queries were
        unregistered before the checkpoint (id gaps).  Returns the new
        handles in registration order.
        """
        entries = self.entries()
        recorded = snapshot["entries"]
        if len(entries) != len(recorded):
            raise ValueError(
                f"snapshot holds {len(recorded)} registered queries, "
                f"this registry holds {len(entries)}"
            )
        # Validate everything first: a rejected restore must leave the
        # registry exactly as it was (no partially remapped handles).
        for entry, entry_snap in zip(entries, recorded):
            if entry.handle.window != entry_snap["window"]:
                raise ValueError(
                    f"query {entry.handle} has window {entry.handle.window}, "
                    f"snapshot recorded {entry_snap['window']}"
                )
        ids = [entry_snap["id"] for entry_snap in recorded]
        next_id, version = snapshot["next_id"], snapshot["version"]
        # Registration order is id order, every id below the counter.
        if not all(type(value) is int and value >= 0 for value in (*ids, next_id, version)) or not all(
            map(int.__lt__, ids, [*ids[1:], next_id])
        ):
            raise ValueError(f"snapshot handle ids {ids!r} are not ascending ints below next_id {next_id!r}")
        handles = [
            QueryHandle(entry_snap["id"], entry_snap["name"], entry.handle.window)
            for entry, entry_snap in zip(entries, recorded)
        ]
        remapped: Dict[int, RegisteredQuery] = {
            handle.id: entry for handle, entry in zip(handles, entries)
        }
        for handle, entry in zip(handles, entries):
            entry.handle = handle
        self._entries = remapped
        self._next_id = next_id
        self._version = version
        return handles

    def get(self, handle: QueryHandle) -> RegisteredQuery:
        return self._entries[handle.id]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, handle: QueryHandle) -> bool:
        return isinstance(handle, QueryHandle) and handle.id in self._entries

    def __repr__(self) -> str:
        return f"QueryRegistry({len(self._entries)} queries, version={self._version})"
