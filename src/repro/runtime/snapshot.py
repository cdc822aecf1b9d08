"""The cross-layer snapshot/restore protocol: serialisation and verification.

Every layer of the runtime knows how to capture and re-absorb its own state
as a plain-Python tree (dicts / lists / tuples / ints / strings / frozensets
/ :class:`~repro.cq.schema.Tuple` events):

* :meth:`ArenaDataStructure.snapshot/restore <repro.core.arena.ArenaDataStructure.snapshot>`
  — the retained slab set, allocation cursor and label table;
* :meth:`EvictionLane.snapshot/restore <repro.runtime.EvictionLane.snapshot>`
  — the window, the run-index hash table and the enumeration structure;
* :meth:`StreamRuntime.snapshot/restore <repro.runtime.StreamRuntime.snapshot>`
  — the stream cursor, sweep cursors, statistics and expiry buckets;
* the engines (``StreamingEvaluator`` / ``GeneralStreamingEvaluator`` /
  ``MultiQueryEngine``) compose those layers, adding their own verification
  header — the dispatch-index :meth:`signature
  <repro.core.dispatch.TransitionDispatchIndex.signature>` (merged-index
  ``signature()`` for the multi engine, plus the
  :meth:`QueryRegistry.snapshot <repro.multi.registry.QueryRegistry.snapshot>`
  entry table) run through :func:`stable_signature` — so a snapshot can only
  be restored into an engine evaluating the *same* queries.

The trees are plain data (no engine objects, no callables, no shared
mutable state with the live engine).  For text-format portability —
``repro-cer --checkpoint/--restore`` writes checkpoint files this way — this
module adds a tagged JSON codec that round-trips the non-JSON-native types:
tuples, frozensets, :class:`~repro.cq.schema.Tuple` events, and dicts with
non-string keys (expiry buckets are keyed by int positions, run-index tables
by key tuples).  ``decode(encode(x)) == x`` for every tree a snapshot
produces, which is what makes restore-into-a-fresh-process bit-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Union

from repro.cq.query import Atom, Variable
from repro.cq.schema import Tuple


#: Bumped when the snapshot tree layout changes incompatibly.  Version 2:
#: run-index tables are keyed ``(slot, key)`` (version 1 keyed them
#: ``(transition index, source id, key)`` — every probe of a restored version-1
#: table would miss, so it is refused, not read).  Version 3: the multi-query
#: engine stores runs per window, not per query — one lane per run store, its
#: slots numbered per store, and a ``placement`` row per query (store, first
#: observed position, slot table); a version-2 tree's per-query lanes are
#: numbered per automaton and are refused likewise.
SNAPSHOT_VERSION = 3


class SnapshotError(ValueError):
    """Raised when a snapshot cannot be serialised, parsed, or restored."""


# --------------------------------------------------------------- JSON codec
#: Tag key marking an encoded non-JSON-native value.  A plain dict that
#: happens to carry this key is itself encoded through the tagged-dict form,
#: so the codec never misreads user data as a tag.
_TAG = "__repro__"


def _encode(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_encode(item) for item in obj]
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "v": [_encode(item) for item in obj]}
    if isinstance(obj, frozenset):
        # Deterministic member order so equal snapshots encode identically.
        return {_TAG: "frozenset", "v": sorted((_encode(item) for item in obj), key=repr)}
    if isinstance(obj, set):
        return {_TAG: "set", "v": sorted((_encode(item) for item in obj), key=repr)}
    if isinstance(obj, Tuple):
        return {_TAG: "event", "r": obj.relation, "v": [_encode(item) for item in obj.values]}
    if isinstance(obj, Atom):
        # CQ-compiled automata label their transitions with query atoms, so
        # atoms (and the variables inside them) reach the arena's interned
        # label table and the dispatch signature.
        return {_TAG: "atom", "r": obj.relation, "v": [_encode(term) for term in obj.terms]}
    if isinstance(obj, Variable):
        return {_TAG: "var", "v": obj.name}
    if isinstance(obj, dict):
        if _TAG not in obj and all(isinstance(key, str) for key in obj):
            return {key: _encode(value) for key, value in obj.items()}
        return {_TAG: "dict", "v": [[_encode(key), _encode(value)] for key, value in obj.items()]}
    raise SnapshotError(f"cannot serialise a {type(obj).__name__} in a snapshot")


def _decode(obj: Any) -> Any:
    if isinstance(obj, list):
        return [_decode(item) for item in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag is None:
            return {key: _decode(value) for key, value in obj.items()}
        if tag == "tuple":
            return tuple(_decode(item) for item in obj["v"])
        if tag == "frozenset":
            return frozenset(_decode(item) for item in obj["v"])
        if tag == "set":
            return set(_decode(item) for item in obj["v"])
        if tag == "event":
            return Tuple(obj["r"], tuple(_decode(item) for item in obj["v"]))
        if tag == "atom":
            return Atom(obj["r"], tuple(_decode(term) for term in obj["v"]))
        if tag == "var":
            return Variable(obj["v"])
        if tag == "dict":
            return {_decode(key): _decode(value) for key, value in obj["v"]}
        raise SnapshotError(f"unknown snapshot tag {tag!r}")
    return obj


def dumps(snapshot: Any) -> str:
    """Serialise a snapshot tree to tagged-JSON text."""
    try:
        return json.dumps(_encode(snapshot), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot is not serialisable: {exc}") from exc


def loads(text: Union[str, bytes]) -> Any:
    """Parse tagged-JSON text back into the snapshot tree."""
    try:
        return _decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot text is not valid JSON: {exc}") from exc


def save(path: str, snapshot: Any) -> None:
    """Serialise ``snapshot`` to ``path`` (the CLI ``--checkpoint`` format)."""
    text = dumps(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def load(path: str) -> Any:
    """Read a snapshot written by :func:`save` (the CLI ``--restore`` input)."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# -------------------------------------------------------------- verification
def stable_signature(signature: Any) -> Any:
    """Strip process-specific atoms from a dispatch/merged-index signature.

    Canonical predicate keys fall back to ``("lambda", id(func))`` /
    ``("id", id(predicate))`` for callables the canonical-key protocol cannot
    describe structurally; those ids are meaningless in another process, so a
    checkpoint verified across processes replaces them with their bare tag.
    Structurally-describable predicates (the whole standard hierarchy) keep
    their full canonical keys, so the verification still catches restoring a
    snapshot into an engine evaluating different queries.
    """
    if isinstance(signature, tuple):
        if (
            len(signature) == 2
            and signature[0] in ("lambda", "id")
            and isinstance(signature[1], int)
        ):
            return (signature[0],)
        return tuple(stable_signature(item) for item in signature)
    if isinstance(signature, list):
        return [stable_signature(item) for item in signature]
    if isinstance(signature, dict):
        return {
            stable_signature(key): stable_signature(value)
            for key, value in signature.items()
        }
    if isinstance(signature, frozenset):
        return frozenset(stable_signature(item) for item in signature)
    return signature


def check_snapshot_header(snapshot: Any, engine: str) -> Dict[str, Any]:
    """Validate the common engine-snapshot header, returning the snapshot.

    Every engine snapshot carries ``snapshot_version`` and ``engine``; the
    restoring engine passes its own kind so a checkpoint taken with one
    engine mode cannot be silently restored into another.  A query-subset
    tree (``kind`` ``"multi-partial"``, no ``engine``) is refused by name.
    """
    if not isinstance(snapshot, dict):
        raise SnapshotError(f"snapshot must be a mapping, got {type(snapshot).__name__}")
    if snapshot.get("kind") == "multi-partial":
        raise SnapshotError(
            "a 'multi-partial' query-subset snapshot cannot be restored: those were "
            "written only by the removed repro.shard package; restore a full "
            "engine snapshot instead"
        )
    version = snapshot.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    kind = snapshot.get("engine")
    if kind != engine:
        raise SnapshotError(
            f"snapshot was taken from a {kind!r} engine, cannot restore into {engine!r}"
        )
    return snapshot
