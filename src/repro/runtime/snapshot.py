"""The cross-layer snapshot/restore protocol: serialisation and verification.

Every layer of the runtime knows how to capture and re-absorb its own state
as a plain-Python tree (dicts / lists / tuples / ints / strings / bytes /
frozensets / :class:`~repro.cq.schema.Tuple` events):

* :meth:`ArenaDataStructure.snapshot/restore <repro.core.arena.ArenaDataStructure.snapshot>`
  — the retained slab set (each slab's filled records as one ``bytes``
  value), allocation cursor and label table;
* :meth:`EvictionLane.snapshot/restore <repro.runtime.EvictionLane.snapshot>`
  — the window, the run-index hash table (each row with its key's pending
  expiry position) and the enumeration structure;
* :meth:`StreamRuntime.snapshot/restore <repro.runtime.StreamRuntime.snapshot>`
  — the stream cursor, sweep cursors and statistics (restore rebuilds the
  expiry buckets from the lanes' rows);
* the engine composes those layers, adding its own verification header:
  the :meth:`QueryRegistry.snapshot
  <repro.multi.registry.QueryRegistry.snapshot>` entry table and one
  32-byte SHA-256 per registered query, in registration order
  (:meth:`TransitionDispatchIndex.digest
  <repro.core.dispatch.TransitionDispatchIndex.digest>`), so a snapshot can
  only be restored into an engine evaluating the *same* queries.  There is
  one kind of tree, ``multi`` (the K=1 ``StreamingEvaluator`` writes it
  too); a store that has held scan slots carries its scan counters as one
  more section of its lane (the runs are table rows under the scan slots).  The ``general`` kind earlier builds wrote scanned every join,
  equality joins included, where this build hashes those: it is refused by
  name (:func:`check_snapshot_header`).

The trees are plain data (no engine objects, no callables, no shared
mutable state with the live engine).  A checkpoint file — what
``repro-cer --checkpoint/--restore`` writes and reads — is one frame of the
wire codec (:mod:`repro.runtime.frames`): a length prefix and the tree's
typed value encoding, decoded under the same element, depth and size caps
as a frame off a socket, since a file is untrusted input too.  A query's
digest hashes a canonical byte form of its compiled automaton
(:func:`~repro.core.dispatch.canonical_bytes`: set members sorted by their
own bytes, process-local ids stripped), so it does not depend on the hash
seed of the process that wrote it; it is memoised on the compiled objects,
its shape half shared by every query of one conjunction shape.
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
#: ``joinable`` (every store is its window's store).  Version 5: the engine is
#: verified by one digest per query (``digests``) instead of the merged-index
#: signature tree, and the constant ``release_interval`` and ``adaptive`` keys
#: are gone; a version-4 tree is refused by name.  Version 6: an expiry bucket
#: holds one ``(lane, key)`` pair per key of ``H`` (the sweep re-arms a key
#: written since it registered) instead of a ``(lane, key, node)`` triple per
#: write, and an arena slab carries no reference count; a version-5 tree is
#: refused by name.  Version 7: each fact once — a lane-table row is
#: ``(key, value, due)`` and there are no ``buckets``, no scan run lists, no
#: arena ``window``/``next_slot``/``cap``/``seal_deadline`` and no slab
#: ``base``/``count``: restore derives them; a version-6 tree is refused.
SNAPSHOT_VERSION = 7

#: Retired versions refused by name, each with why this build cannot read it.
_RETIRED = {
    4: "verified its queries by the merged-index signature tree",
    5: "registered every write of a key for expiry, with an arena reference count per slab",
    6: "wrote every key of the run index twice, in its lane table and in the expiry buckets",
}


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
def check_snapshot_header(snapshot: Any, engine: str) -> Dict[str, Any]:
    """Validate the common engine-snapshot header, returning the snapshot.

    Every engine snapshot carries ``snapshot_version`` and ``engine``; the
    restoring engine passes its own kind so a checkpoint taken with one
    engine mode cannot be silently restored into another.  A query-subset
    tree (``kind`` ``"multi-partial"``, no ``engine``) is refused by name,
    and so are a ``general`` tree and a tree of each version in ``_RETIRED``.
    """
    if not isinstance(snapshot, dict):
        raise SnapshotError(f"snapshot must be a mapping, got {type(snapshot).__name__}")
    if snapshot.get("kind") == "multi-partial":
        raise SnapshotError(
            "a 'multi-partial' query-subset snapshot cannot be restored: those were "
            "written only by the removed repro.shard package; restore a full "
            "engine snapshot instead"
        )
    if snapshot.get("engine") == "general":
        raise SnapshotError(
            "a 'general' snapshot cannot be restored: earlier builds wrote it with every "
            "join scanned, where this build hashes the equality joins; re-run the stream"
        )
    version = snapshot.get("snapshot_version")
    if version in _RETIRED:
        raise SnapshotError(
            f"snapshot version {version} {_RETIRED[version]}; this build reads only "
            f"snapshot version {SNAPSHOT_VERSION}: re-run the stream"
        )
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
