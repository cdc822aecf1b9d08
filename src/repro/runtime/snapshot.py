"""The cross-layer snapshot/restore protocol: serialisation and verification.

Every layer of the runtime knows how to capture and re-absorb its own state
as a plain-Python tree (dicts / lists / tuples / ints / strings / bytes /
frozensets / :class:`~repro.cq.schema.Tuple` events):

* :meth:`ArenaDataStructure.snapshot/restore <repro.core.arena.ArenaDataStructure.snapshot>`
  — the retained slab set (each slab's filled records as one ``bytes``
  value), allocation cursor and label table;
* :meth:`EvictionLane.snapshot/restore <repro.runtime.EvictionLane.snapshot>`
  — the window, the run-index hash table and the enumeration structure;
* :meth:`StreamRuntime.snapshot/restore <repro.runtime.StreamRuntime.snapshot>`
  — the stream cursor, sweep cursors, statistics and expiry buckets;
* the engine composes those layers, adding its own verification header
  run through :func:`stable_signature` — the merged-index ``signature()``
  plus the :meth:`QueryRegistry.snapshot
  <repro.multi.registry.QueryRegistry.snapshot>` entry table — so a snapshot
  can only be restored into an engine evaluating the *same* queries with the
  same probe kinds.  There is one kind of tree, ``multi``: the K=1
  ``StreamingEvaluator`` writes it, and so does ``GeneralStreamingEvaluator``,
  whose scan store's run lists are one more section of its lane.  The
  ``general`` kind earlier builds wrote for the latter is still read
  (:meth:`MultiQueryEngine.restore <repro.multi.engine.MultiQueryEngine.restore>`).

The trees are plain data (no engine objects, no callables, no shared
mutable state with the live engine).  A checkpoint file — what
``repro-cer --checkpoint/--restore`` writes and reads — is one frame of the
wire codec (:mod:`repro.runtime.frames`): a length prefix and the tree's
typed value encoding, decoded under the same element, depth and size caps
as a frame off a socket, since a file is untrusted input too.  The
signature stays a tree compared by equality, not a digest: a digest needs a
canonical byte form, and the encoding follows set and dict iteration
order, which varies with the hash seed.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.runtime.frames import FrameProtocolError, decode_frame, encode_frame


#: Bumped when the snapshot tree layout changes incompatibly.  Version 2:
#: run-index tables are keyed ``(slot, key)`` (version 1 keyed them
#: ``(transition index, source id, key)`` — every probe of a restored version-1
#: table would miss, so it is refused, not read).  Version 3: the multi-query
#: engine stores runs per window, not per query — one lane per run store, its
#: slots numbered per store, and a ``placement`` row per query (store, first
#: observed position, slot table); a version-2 tree's per-query lanes are
#: numbered per automaton and are refused likewise.  Version 4: the file is a
#: wire-codec frame instead of tagged-JSON text, an arena slab carries its
#: record words verbatim, and a multi-query lane no longer says whether it is
#: ``joinable`` (every store is its window's store).
SNAPSHOT_VERSION = 4


class SnapshotError(ValueError):
    """Raised when a snapshot cannot be serialised, parsed, or restored."""


def dumps(snapshot: Any) -> bytes:
    """Serialise a snapshot tree to one wire-codec frame."""
    try:
        return encode_frame(snapshot)
    except FrameProtocolError as exc:
        raise SnapshotError(f"snapshot is not serialisable: {exc}") from exc


def loads(data: bytes) -> Any:
    """Parse a frame written by :func:`dumps` back into the snapshot tree."""
    if data[:1] == b"{":
        # A frame's first byte is the top of a length under the 1 GiB cap,
        # never 0x7b: this is a tagged-JSON checkpoint of an older build.
        raise SnapshotError(
            "checkpoint is tagged-JSON text, the format of snapshot version 3; "
            f"this build reads only the binary checkpoints of snapshot version {SNAPSHOT_VERSION}"
        )
    try:
        return decode_frame(data)
    except FrameProtocolError as exc:
        raise SnapshotError(f"checkpoint is not a readable snapshot: {exc}") from exc


def save(path: str, snapshot: Any) -> None:
    """Serialise ``snapshot`` to ``path`` (the CLI ``--checkpoint`` format)."""
    data = dumps(snapshot)
    with open(path, "wb") as handle:
        handle.write(data)


def load(path: str) -> Any:
    """Read a snapshot written by :func:`save` (the CLI ``--restore`` input)."""
    with open(path, "rb") as handle:
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
