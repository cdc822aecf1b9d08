"""Tests for the cross-layer snapshot/restore protocol.

Four layers of protection:

* codec unit tests — a checkpoint is one frame of the wire codec
  (:mod:`repro.runtime.frames`), which must round-trip every value kind a
  snapshot tree can contain (tuples, frozensets, events, atoms, bytes,
  dicts with non-string keys) and refuse, at checkpoint time, a tree it
  could not read back;
* snapshot→restore→continue differentials — for each of the three engines,
  a mid-stream snapshot restored into a freshly constructed engine must
  continue with outputs *bit-identical* to the uninterrupted run, including
  restore-into-a-fresh-process simulated through pickle and checkpoint-codec
  roundtrips (no shared objects survive either; the ``"json"`` legs keep
  the name of the codec they replaced) and multi-engine handle-id
  continuity across pre-checkpoint churn;
* verification — restoring into a mismatched engine (different query,
  window, engine kind, or the object-graph structure) must be rejected
  before any state is touched — as must a version-1 tree (``H`` keyed per
  reading transition), a ``streaming`` tree of the single-query engine
  before it became the K=1 multi engine, a table numbered by other slots, a
  query-subset (``multi-partial``) tree, a tagged-JSON checkpoint of an older
  build, a ``general`` tree of the build that scanned every join, two run
  stores under one window, a ``scan`` section that does not name exactly
  its lane table's runs or whose counters are no ints in ``[0, 2**62)`` or
  would renumber a live run, a run under a hash slot or an entry under a
  scan slot, and arena records whose label id or
  product reference lies outside the restored tables, whose union link or
  product child is not an older node, or whose positions could overflow the
  kernel's window arithmetic (on both kernels);
* atomicity — a restore refused on its runtime buckets, statistics or
  placement rows leaves the engine's snapshot bytes as they were;
* fuzzing — every truncation and byte mutation of a single, mixed
  (hashed and scanned slots in one store) or multi-engine checkpoint restores into an engine that has processed
  tuples, or raises one of the exceptions the CLI's ``--restore`` catches
  (and nothing else) and leaves that engine's snapshot bytes unchanged.

Snapshot equality across the two kernels is ``tests/test_kernel.py``'s.
"""

import pickle
import random
import struct
import sys
from array import array
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.arena import ArenaDataStructure
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.kernel import native_available
from repro.cq.query import Atom, Variable, parse_query
from repro.cq.schema import Tuple
from repro.multi import MergedDispatchIndex
from repro.multi.engine import MultiQueryEngine
from repro.runtime import SNAPSHOT_VERSION, SnapshotError
from repro.runtime import snapshot as snapshot_codec
from repro.runtime.frames import HEADER_SIZE, MAX_ELEMENTS
from repro.streams.generators import random_stream

from helpers import SIGMA0, scanned, star_query


QUERY = "Q(x, y) <- T(x), S(x, y), R(x, y)"


def sigma0_stream(length, seed, domain_size=3):
    return random_stream(SIGMA0, length=length, domain_size=domain_size, seed=seed).materialise()


def roundtrip(snapshot, how):
    """A fresh-process simulation: no object is shared with the original."""
    if how == "pickle":
        return pickle.loads(pickle.dumps(snapshot))
    if how == "json":  # the checkpoint codec, named for the one it replaced
        return snapshot_codec.loads(snapshot_codec.dumps(snapshot))
    return snapshot


class TestCodec:
    CASES = [
        {"a": 1, "b": [1, 2.5, None, True, "x"]},
        (1, ("nested", (2,)), frozenset({1, 2})),
        {("tuple", "key"): "value", 7: [("x",)]},
        {0: [1, 2], 1: []},  # int-keyed dict (expiry buckets)
        Tuple("R", (1, "a")),
        [Tuple("S", (2,)), (Tuple("T", ()), 5)],
        frozenset({Atom("R", (Variable("x"), 3))}),
        {"__repro__": "user data that looks like a tag"},
        {"hash": [((0, 1, (2, "k")), (17, 4))]},
        {"records": bytes(range(40)), "prods": [(1, 2), (3,)]},
    ]

    @pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
    def test_roundtrip_equality(self, value):
        assert snapshot_codec.loads(snapshot_codec.dumps(value)) == value

    def test_types_survive_exactly(self):
        decoded = snapshot_codec.loads(snapshot_codec.dumps({"t": (1, 2), "l": [1, 2]}))
        assert isinstance(decoded["t"], tuple) and isinstance(decoded["l"], list)
        event = snapshot_codec.loads(snapshot_codec.dumps(Tuple("R", (1,))))
        assert isinstance(event, Tuple) and isinstance(event.values, tuple)

    def test_unserialisable_rejected(self):
        with pytest.raises(SnapshotError):
            snapshot_codec.dumps({"f": lambda: None})

    def test_save_load_file(self, tmp_path):
        path = str(tmp_path / "snap.ck")
        value = {"buckets": {3: [0, (1, "k"), 5]}}
        snapshot_codec.save(path, value)
        assert snapshot_codec.load(path) == value

    def test_a_tree_over_the_caps_fails_at_checkpoint_time(self):
        with pytest.raises(SnapshotError, match="exceeds the cap"):
            snapshot_codec.dumps({"hash": [None] * (MAX_ELEMENTS + 1)})

    def test_a_tagged_json_checkpoint_is_refused_by_name(self):
        old = b'{"snapshot_version": 3, "engine": "streaming"}\n'
        with pytest.raises(SnapshotError, match="snapshot version 3; .* snapshot version 4"):
            snapshot_codec.loads(old)


class TestSingleEngineSnapshot:
    WINDOW = 9

    def _engine(self, **kwargs):
        return StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=self.WINDOW, **kwargs)

    @pytest.mark.parametrize("how", ["native", "pickle", "json"])
    def test_restore_continues_bit_identically(self, how):
        stream = sigma0_stream(300, seed=3)
        original = self._engine()
        for tup in stream[:150]:
            original.process(tup)
        snap = roundtrip(original.snapshot(), how)
        restored = self._engine()
        restored.restore(snap)
        assert restored.position == original.position
        assert restored.hash_table_size() == original.hash_table_size()
        tail_original = [original.process(tup) for tup in stream[150:]]
        tail_restored = [restored.process(tup) for tup in stream[150:]]
        assert tail_original == tail_restored
        # The two engines remain structurally identical after continuing.
        assert original.snapshot() == restored.snapshot()

    def test_snapshot_counters_and_eviction_state_survive(self):
        stream = sigma0_stream(200, seed=5)
        original = self._engine(collect_stats=True)
        for tup in stream:
            original.process(tup)
        restored = self._engine(collect_stats=True)
        restored.restore(roundtrip(original.snapshot(), "json"))
        assert restored.evicted == original.evicted
        assert restored.stats == original.stats
        assert restored.memory_info() == original.memory_info()

    def test_restore_rejects_mismatches(self):
        original = self._engine()
        for tup in sigma0_stream(50, seed=1):
            original.process(tup)
        snap = original.snapshot()
        with pytest.raises(SnapshotError):
            StreamingEvaluator(
                hcq_to_pcea(parse_query(QUERY)), window=self.WINDOW + 1
            ).restore(snap)
        with pytest.raises(SnapshotError):
            StreamingEvaluator(
                hcq_to_pcea(parse_query("Q2(x, y) <- S(x, y), R(x, y)")),
                window=self.WINDOW,
            ).restore(snap)
        with pytest.raises(SnapshotError):  # every join scanned: other probes
            StreamingEvaluator(
                scanned(hcq_to_pcea(parse_query(QUERY))), window=self.WINDOW
            ).restore(snap)

    def test_a_streaming_tree_is_refused_by_name(self):
        """A single-query engine writes a ``multi`` tree; the ``streaming``
        kind of earlier builds — same version number — is refused by name."""
        engine = self._engine()
        for tup in sigma0_stream(50, seed=1):
            engine.process(tup)
        snap = engine.snapshot()
        assert snap["engine"] == "multi" and snap["snapshot_version"] == SNAPSHOT_VERSION
        old = {
            "snapshot_version": SNAPSHOT_VERSION, "engine": "streaming", "window": self.WINDOW,
            "evict": True, "lane": snap["lanes"][0], "runtime": snap["runtime"],
        }
        fresh = self._engine()
        untouched = fresh.snapshot()
        with pytest.raises(SnapshotError, match="'streaming' engine"):
            fresh.restore(roundtrip(old, "json"))
        assert fresh.snapshot() == untouched

    def test_arena_restore_rejects_wrong_window(self):
        ds = ArenaDataStructure(5)
        ds.extend({"a"}, 0, [])
        snap = ds.snapshot()
        with pytest.raises(ValueError):
            ArenaDataStructure(6).restore(snap)

    def test_object_graph_engine_cannot_snapshot(self):
        engine = self._engine(arena=False)
        with pytest.raises(ValueError):
            engine.snapshot()

    def test_snapshot_is_independent_of_later_processing(self):
        stream = sigma0_stream(120, seed=8)
        original = self._engine()
        for tup in stream[:60]:
            original.process(tup)
        snap = roundtrip(original.snapshot(), "json")
        reference = snapshot_codec.dumps(snap)
        for tup in stream[60:]:
            original.process(tup)
        assert snapshot_codec.dumps(snap) == reference


class TestScanSlotSnapshot:
    """A store holding hashed and scanned slots: ``_mixed`` (below)."""

    @staticmethod
    def _store(engine):
        return engine._stores[8]

    def test_the_mixed_query_probes_both_kinds(self):
        index = mixed_pcea().dispatch_index()
        t_state = index.state_ids[0]
        assert set(index.structure.scan_slots) == {t_state}
        assert [c.scan[0] for c in index.all_transitions() if c.scan and c.joins] == [(True, False)]
        assert any(t_state == source for source, plan in index.slots if plan is not None)

    @pytest.mark.parametrize("how", ["pickle", "json"])
    def test_restore_continues_bit_identically(self, how):
        stream = sigma0_stream(260, seed=11)
        original = _mixed()
        for tup in stream[:130]:
            original.process(tup)
        restored = _mixed()
        restored.restore(roundtrip(original.snapshot(), how))
        assert [original.process(t) for t in stream[130:]] == [
            restored.process(t) for t in stream[130:]
        ]
        assert original.snapshot() == restored.snapshot()
        assert original.nodes_scanned == restored.nodes_scanned > 0

    def test_ring_state_survives_restore(self):
        """(Named for the ring buffers the per-slot run dicts replaced.)"""
        stream = sigma0_stream(150, seed=13)
        original = _mixed()
        for tup in stream:
            original.process(tup)
        restored = _mixed()
        restored.restore(roundtrip(original.snapshot(), "json"))
        ours, theirs = self._store(restored).scans, self._store(original).scans
        assert ours == theirs and [list(runs) for runs in ours.values()] == [list(runs) for runs in theirs.values()]

    def test_hashed_and_scan_checkpoints_refuse_each_other(self):
        """The signature names the join predicates, and the scanned members."""
        pcea = hcq_to_pcea(parse_query(QUERY))
        for source, target in ((pcea, scanned(pcea)), (scanned(pcea), pcea)):
            donor = StreamingEvaluator(source, window=8)
            for tup in sigma0_stream(30, seed=19):
                donor.process(tup)
            fresh = StreamingEvaluator(target, window=8)
            untouched = fresh.snapshot()
            with pytest.raises(SnapshotError, match="signatures differ"):
                fresh.restore(roundtrip(donor.snapshot(), "json"))
            assert fresh.snapshot() == untouched

    @pytest.mark.parametrize("tamper", ["unknown run", "left-out run"])
    def test_rings_must_name_exactly_the_lane_table(self, tamper):
        original = _mixed()
        for tup in sigma0_stream(150, seed=13):
            original.process(tup)
        snap = roundtrip(original.snapshot(), "json")
        scan = snap["lanes"][0]["scan"]
        seqs = next(seqs for seqs in scan["runs"].values() if seqs)
        if tamper == "unknown run":
            seqs.append(scan["next_seq"])
        else:
            seqs.pop()
        fresh = _mixed()
        untouched = fresh.snapshot()
        with pytest.raises(SnapshotError, match="lane table"):
            fresh.restore(snap)
        assert fresh.snapshot() == untouched

    def test_a_hashed_store_writes_no_scan_section(self):
        engine = _multi()
        for tup in sigma0_stream(40, seed=5):
            engine.process(tup)
        snap = engine.snapshot()
        assert all("scan" not in lane for lane in snap["lanes"])
        assert "scan" not in snap["merged_signature"]
        assert "scan" in _mixed().snapshot()["merged_signature"]

    def test_a_general_tree_is_refused_by_name(self):
        """``general_v4.snap`` (``--general --checkpoint`` of an earlier build)
        holds scan state for joins this build hashes."""
        tree = snapshot_codec.load(str(Path(__file__).parent / "data" / "general_v4.snap"))
        assert tree["engine"] == "general" and tree["snapshot_version"] == SNAPSHOT_VERSION
        engine = StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=50)
        untouched = engine.snapshot()
        with pytest.raises(SnapshotError, match="a 'general' snapshot cannot be restored"):
            engine.restore(tree)
        assert engine.snapshot() == untouched

    def test_a_next_seq_at_a_live_run_is_refused(self):
        """A ``next_seq`` at or below a live run's sequence number would make
        new runs overwrite live ``(slot, seq)`` entries: refused, for every
        live run of a checkpoint taken every 13 tuples."""
        stream = sigma0_stream(200, seed=47)
        donor = _mixed()
        tried = 0
        for position, tup in enumerate(stream):
            donor.process(tup)
            if position % 13:
                continue
            snap = roundtrip(donor.snapshot(), "json")
            scan = snap["lanes"][0]["scan"]
            for seqs in scan["runs"].values():
                for seq in seqs:
                    scan["next_seq"] = seq
                    with pytest.raises(SnapshotError, match="next_seq"):
                        _mixed().restore(snap)
                    tried += 1
        assert tried > 20


class TestMultiEngineSnapshot:
    SPECS = [
        ("Q1(x, y) <- S(x, y), R(x, y)", 7),
        ("Q2(x) <- T(x)", 4),
        ("Q3(x, y) <- T(x), S(x, y)", 11),
    ]

    @pytest.mark.parametrize("how", ["pickle", "json"])
    def test_restore_with_churn_continues_bit_identically(self, how):
        stream = sigma0_stream(300, seed=17)
        original = MultiQueryEngine()
        handles = [original.register(q, window=w) for q, w in self.SPECS]
        for tup in stream[:80]:
            original.process(tup)
        original.unregister(handles[1])  # leaves an id gap before checkpoint
        for tup in stream[80:150]:
            original.process(tup)
        snap = roundtrip(original.snapshot(), how)

        restored = MultiQueryEngine()
        # Re-register the *surviving* queries in registration order.
        restored.register(self.SPECS[0][0], window=self.SPECS[0][1])
        restored.register(self.SPECS[2][0], window=self.SPECS[2][1])
        restored.restore(snap)
        # Handle ids (the output routing keys) adopt the snapshot's ids.
        assert [h.id for h in restored.handles()] == [handles[0].id, handles[2].id]
        assert [original.process(t) for t in stream[150:]] == [
            restored.process(t) for t in stream[150:]
        ]
        assert original.snapshot() == restored.snapshot()
        # Future registrations continue the snapshotted id sequence.
        new_a = original.register("Q4(x) <- T(x)", window=3)
        new_b = restored.register("Q4(x) <- T(x)", window=3)
        assert new_a.id == new_b.id

    def test_restore_rejects_wrong_queries(self):
        original = MultiQueryEngine()
        for q, w in self.SPECS:
            original.register(q, window=w)
        for tup in sigma0_stream(40, seed=2):
            original.process(tup)
        snap = original.snapshot()
        fresh = MultiQueryEngine()
        fresh.register(self.SPECS[0][0], window=self.SPECS[0][1])
        with pytest.raises(SnapshotError):
            fresh.restore(snap)  # wrong query count
        other = MultiQueryEngine()
        other.register(self.SPECS[0][0], window=self.SPECS[0][1])
        other.register(self.SPECS[1][0], window=self.SPECS[1][1])
        other.register("Qx(x, y) <- S(x, y)", window=self.SPECS[2][1])
        with pytest.raises(SnapshotError):
            other.restore(snap)  # structurally different query set


class TestRejectedRestoreLeavesEngineUntouched:
    """A failed restore must be atomic: no partially remapped state."""

    def test_multi_window_mismatch_is_atomic(self):
        stream = sigma0_stream(60, seed=37)
        original = MultiQueryEngine()
        handles = [
            original.register("Q1(x, y) <- S(x, y), R(x, y)", window=10),
            original.register("Q2(x) <- T(x)", window=30),
            original.register("Q3(x, y) <- T(x), S(x, y)", window=30),
        ]
        for tup in stream[:30]:
            original.process(tup)
        original.unregister(handles[0])
        snap = roundtrip(original.snapshot(), "json")

        fresh = MultiQueryEngine()
        kept = [
            fresh.register("Q2(x) <- T(x)", window=30),
            # wrong window for the second surviving query
            fresh.register("Q3(x, y) <- T(x), S(x, y)", window=7),
        ]
        before = [(h.id, h.window) for h in fresh.handles()]
        with pytest.raises(SnapshotError):
            fresh.restore(snap)
        # Registry, handles and lanes are exactly as before the attempt.
        assert [(h.id, h.window) for h in fresh.handles()] == before
        assert set(fresh._queries) == {h.id for h in kept}
        outputs = fresh.process(Tuple("T", (1,)))
        assert set(outputs) <= {h.id for h in kept}

    def test_multi_object_graph_lanes_rejected_before_mutation(self):
        original = MultiQueryEngine()
        original.register("Q2(x) <- T(x)", window=5)
        for tup in sigma0_stream(20, seed=41):
            original.process(tup)
        snap = roundtrip(original.snapshot(), "json")
        fresh = MultiQueryEngine(arena=False)
        handle = fresh.register("Q2(x) <- T(x)", window=5)
        with pytest.raises(SnapshotError):
            fresh.restore(snap)
        assert [h.id for h in fresh.handles()] == [handle.id]
        assert fresh.position == -1  # untouched


class TestRefusedRestoreChangesNothing:
    """Every section is read and checked before anything changes: a restore
    refused on its runtime buckets, its statistics or its placement rows
    leaves the engine's snapshot bytes as they were."""

    TAMPERS = ["bucket at swept_upto", "unknown lane index", "bad stats", "bad since", "bad slots"]

    @staticmethod
    def _tampered(snap, tamper):
        runtime = snap["runtime"]
        expiry, flat = next(iter(runtime["buckets"].items()))
        if tamper == "bucket at swept_upto":
            runtime["buckets"][runtime["swept_upto"]] = list(flat[:3])
        elif tamper == "unknown lane index":
            runtime["buckets"][expiry] = [len(snap["lanes"])] + flat[1:]
        elif tamper == "bad stats":
            runtime["stats"]["no_such_counter"] = 1
        else:
            where, since, slots = snap["placement"][-1]
            if tamper == "bad since":
                since = "soon"
            else:
                slots = ["s"] * len(slots)
            snap["placement"][-1] = (where, since, slots)
        return snap

    @pytest.mark.parametrize("tamper", TAMPERS)
    @pytest.mark.parametrize("kind", ["single", "mixed", "multi"])
    def test_a_refused_restore_leaves_the_snapshot_bytes_unchanged(self, kind, tamper):
        make = {"single": _single, "mixed": _mixed, "multi": lambda: _multi(churn=False)}[kind]
        stream = sigma0_stream(60, seed=43)
        donor = make()
        for tup in stream[:40]:
            donor.process(tup)
        snap = self._tampered(roundtrip(donor.snapshot(), "json"), tamper)
        engine = make()
        for tup in stream[:10]:
            engine.process(tup)
        assert engine.position == 9
        before = snapshot_codec.dumps(engine.snapshot())
        with pytest.raises(RESTORE_ERRORS):
            engine.restore(snap)
        assert snapshot_codec.dumps(engine.snapshot()) == before
        # ... and it goes on like an engine that was never offered the snapshot.
        untouched = make()
        for tup in stream[:10]:
            untouched.process(tup)
        assert [engine.process(t) for t in stream[10:]] == [untouched.process(t) for t in stream[10:]]


class TestWrongValueTypesAreRefused:
    """A checkpoint whose values have the wrong types is refused with
    ``SnapshotError`` — the engine's snapshot bytes unchanged — instead of
    restoring into an engine that fails on its next tuple or sweep; the
    engine then processes the rest of the stream like one never offered it."""

    TAMPERS = [
        "counter holds a string", "counter holds a bool", "bucket key is a list",
        "bucket key is no pair", "bucket node is a string", "lane key is a list",
        "lane key holds a list", "lane anchor is a string", "lane anchor is negative",
        "lane node is a string", "lane node is past 2**62", "lane entry is no pair",
        "lane run holds no tuple",
    ]  # fmt: skip
    #: Tampers of the ``scan`` section and of the entries' shapes by slot kind.
    SCAN_TAMPERS = [
        "next_seq is a string", "next_seq is a float", "next_seq is a bool", "next_seq is negative",
        "nodes_scanned is a string", "nodes_scanned is negative", "next_seq at the newest run",
        "run under a hash slot", "entry under a scan slot",
    ]  # fmt: skip

    @staticmethod
    def _with_node(entry, node):
        """``entry`` with its node replaced: ``(node, max_start)`` in a hash
        store, ``((tuple, node), position)`` in a scan store."""
        value, anchor = entry
        return ((value[0], node), anchor) if type(value) is tuple else (node, anchor)

    @staticmethod
    def _tampered(snap, tamper):
        runtime = snap["runtime"]
        flat = next(iter(runtime["buckets"].values()))
        lane = next(lane for lane in snap["lanes"] if lane["hash"])
        key, entry = lane["hash"][0]
        if tamper == "counter holds a string":
            runtime["stats"]["tuples_processed"] = "many"
        elif tamper == "counter holds a bool":
            runtime["stats"]["hash_updates"] = True
        elif tamper == "bucket key is a list":
            flat[1] = [1, 2]
        elif tamper == "bucket key is no pair":
            flat[1] = (flat[1][0],)
        elif tamper == "bucket node is a string":
            flat[2] = "node"
        elif tamper == "lane key is a list":
            lane["hash"][0] = (list(key), entry)
        elif tamper == "lane key holds a list":
            lane["hash"][0] = ((key[0], [key[1]]), entry)
        elif tamper == "lane anchor is a string":
            lane["hash"][0] = (key, (entry[0], "x"))
        elif tamper == "lane anchor is negative":
            lane["hash"][0] = (key, (entry[0], -1))
        elif tamper == "lane node is a string":
            lane["hash"][0] = (key, TestWrongValueTypesAreRefused._with_node(entry, "node"))
        elif tamper == "lane node is past 2**62":
            lane["hash"][0] = (key, TestWrongValueTypesAreRefused._with_node(entry, 1 << 62))
        elif tamper == "lane entry is no pair":
            lane["hash"][0] = (key, entry[:1])
        elif tamper == "lane run holds no tuple":
            node = entry[0][1] if type(entry[0]) is tuple else entry[0]
            lane["hash"][0] = (key, (("R", node), entry[1]))
        else:
            TestWrongValueTypesAreRefused._scan_tampered(lane, tamper)
        return snap

    @staticmethod
    def _scan_tampered(lane, tamper):
        scan = lane["scan"]
        field, value = {
            "next_seq is a string": ("next_seq", str(scan["next_seq"])),
            "next_seq is a float": ("next_seq", scan["next_seq"] + 0.5),
            "next_seq is a bool": ("next_seq", True),
            "next_seq is negative": ("next_seq", -1),
            "nodes_scanned is a string": ("nodes_scanned", "3"),
            "nodes_scanned is negative": ("nodes_scanned", -1),
            "next_seq at the newest run": ("next_seq", max(max(seqs) for seqs in scan["runs"].values())),
        }.get(tamper, (None, None))
        if field is not None:
            scan[field] = value
            return
        scanning = tamper == "entry under a scan slot"
        at = next(i for i, (key, _) in enumerate(lane["hash"]) if (key[0] in scan["runs"]) == scanning)
        key, (value, anchor) = lane["hash"][at]
        lane["hash"][at] = (key, (value[1], anchor) if scanning else ((Tuple("T", (0,)), value), anchor))

    @pytest.mark.parametrize(
        "kind, tamper",
        list(product(("single", "mixed", "multi"), TAMPERS)) + list(product(("mixed",), SCAN_TAMPERS)),
    )
    def test_refused_then_the_stream_goes_on(self, kind, tamper):
        make = {"single": _single, "mixed": _mixed, "multi": lambda: _multi(churn=False)}[kind]
        stream = sigma0_stream(90, seed=47)
        donor = make()
        for tup in stream[:50]:
            donor.process(tup)
        snap = roundtrip(donor.snapshot(), "json")
        # Untouched, the checkpoint restores and goes on as its donor does.
        restored = make()
        restored.restore(roundtrip(snap, "json"))
        assert [restored.process(t) for t in stream[50:]] == [donor.process(t) for t in stream[50:]]
        engine = make()
        for tup in stream[:10]:
            engine.process(tup)
        before = snapshot_codec.dumps(engine.snapshot())
        with pytest.raises(SnapshotError):
            engine.restore(self._tampered(snap, tamper))
        assert snapshot_codec.dumps(engine.snapshot()) == before
        untouched = make()
        for tup in stream[:10]:
            untouched.process(tup)
        assert [engine.process(t) for t in stream[10:]] == [untouched.process(t) for t in stream[10:]]


class TestSignatureStrictness:
    """Verification must see binary join predicates, not just join shapes."""

    def _pcea(self, position):
        from repro.core.pcea import PCEA, PCEATransition
        from repro.core.predicates import ProjectionEquality, RelationPredicate

        arm = PCEATransition(frozenset(), RelationPredicate("A"), {}, {"a"}, "q")
        close = PCEATransition(
            frozenset({"q"}),
            RelationPredicate("B"),
            {"q": ProjectionEquality({"A": (position,)}, {"B": (position,)})},
            {"b"},
            "f",
        )
        return PCEA(states={"q", "f"}, transitions=[arm, close], final={"f"})

    def test_join_position_difference_rejected(self):
        original = StreamingEvaluator(self._pcea(0), window=5)
        original.process(Tuple("A", (1, 2)))
        snap = roundtrip(original.snapshot(), "json")
        other = StreamingEvaluator(self._pcea(1), window=5)
        with pytest.raises(SnapshotError):
            other.restore(snap)
        # Sanity: the same automaton still verifies.
        same = StreamingEvaluator(self._pcea(0), window=5)
        same.restore(snap)
        assert same.position == original.position

    def test_multi_join_position_difference_rejected(self):
        original = MultiQueryEngine()
        original.register(self._pcea(0), window=5)
        original.process(Tuple("A", (1, 2)))
        snap = roundtrip(original.snapshot(), "json")
        other = MultiQueryEngine()
        other.register(self._pcea(1), window=5)
        with pytest.raises(SnapshotError):
            other.restore(snap)

    def test_truncated_snapshot_leaves_engine_untouched(self):
        original = StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=9)
        for tup in sigma0_stream(40, seed=3):
            original.process(tup)
        snap = roundtrip(original.snapshot(), "json")
        del snap["runtime"]
        fresh = StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=9)
        with pytest.raises(SnapshotError):
            fresh.restore(snap)
        assert fresh.position == -1 and fresh.hash_table_size() == 0


class TestVersionOneIsRefused:
    """Version 1 keyed ``H`` by ``(transition index, source id, key)``; read as
    a later version every probe of such a table would miss.  Version 2 kept one
    lane per registered query; version 3 keeps one per run store and says where
    each query sits.  Older trees are refused by version, and a table numbered
    by a different slot assignment by signature."""

    WINDOW = 9

    def _pcea(self):
        return hcq_to_pcea(star_query(3))

    def _stream(self):
        rng = random.Random(2)
        return [Tuple(f"A{rng.randrange(1, 4)}", (rng.randrange(2), rng.randrange(9))) for _ in range(30)]

    def _as_version_one(self, lane_snap, runtime_buckets, index):
        """Re-key one lane's table and bucket triples the version-1 way: once
        per reading transition."""
        readers = {}
        for compiled in index.all_transitions():
            for (_, source_id, _), (slot, _) in zip(compiled.joins, compiled.probes):
                readers.setdefault(slot, []).append((compiled.index, source_id))
        lane_snap["hash"] = [
            ((reader, source_id, key), value)
            for (slot, key), value in lane_snap["hash"]
            for reader, source_id in readers[slot]
        ]
        for expiry_position, flat in runtime_buckets.items():
            runtime_buckets[expiry_position] = [
                item
                for lane, (slot, key), node in zip(flat[0::3], flat[1::3], flat[2::3])
                for reader, source_id in readers[slot]
                for item in (lane, (reader, source_id, key), node)
            ]

    def test_single_engine_restore(self):
        original = StreamingEvaluator(self._pcea(), window=self.WINDOW)
        for tup in self._stream():
            original.process(tup)
        snap = original.snapshot()
        assert snap["snapshot_version"] == 4 and original.hash_table_size() > 0
        self._as_version_one(snap["lanes"][0], snap["runtime"]["buckets"], original.pcea.dispatch_index())
        snap["snapshot_version"] = 1
        assert len(snap["lanes"][0]["hash"]) == 2 * original.hash_table_size()  # k-1 readers each
        fresh = StreamingEvaluator(self._pcea(), window=self.WINDOW)
        with pytest.raises(SnapshotError, match="version 1 is not supported"):
            fresh.restore(roundtrip(snap, "json"))
        assert fresh.position == -1 and fresh.hash_table_size() == 0 and not fresh._expiry_buckets
        assert fresh.snapshot() == StreamingEvaluator(self._pcea(), window=self.WINDOW).snapshot()

    def _as_version_two(self, tree):
        """Version 2 kept one lane per *query* (numbered as its automaton is)
        and no placement; a one-query engine's store is exactly that lane."""
        del tree["placement"]
        for lane in tree["lanes"]:
            del lane["next_slot"]
        tree["snapshot_version"] = 2
        return tree

    def test_multi_engine_restore_and_adopt_queries(self):
        self._multi_engine_refuses(1)

    def test_multi_engine_refuses_per_query_lanes(self):
        self._multi_engine_refuses(2)

    def _multi_engine_refuses(self, version):
        original = MultiQueryEngine()
        handle = original.register(self._pcea(), window=self.WINDOW)
        for tup in self._stream():
            original.process(tup)
        full = original.snapshot()
        assert full["snapshot_version"] == 4
        assert full["placement"] == [(0, 0, (0, 1, 2))]
        self._as_version_two(full)
        if version == 1:
            dispatch = original._queries[handle.id].dispatch
            self._as_version_one(full["lanes"][0], full["runtime"]["buckets"], dispatch)
            full["snapshot_version"] = 1

        fresh = MultiQueryEngine()
        fresh.register(self._pcea(), window=self.WINDOW)
        for tup in self._stream():
            fresh.process(Tuple("Other", tup.values))  # same position, no state
        untouched = fresh.snapshot()
        with pytest.raises(SnapshotError, match=f"version {version} is not supported"):
            fresh.restore(roundtrip(full, "json"))
        assert fresh.snapshot() == untouched and fresh.hash_table_size() == 0

    def test_a_different_slot_numbering_is_refused_by_signature(self):
        original = StreamingEvaluator(self._pcea(), window=self.WINDOW)
        for tup in self._stream():
            original.process(tup)
        snap = original.snapshot()
        renumbered = roundtrip(snap, "json")
        renumbered["merged_signature"]["joins"] = {
            token: tuple(join[:2] + (join[2] + 1,) for join in joins)
            for token, joins in renumbered["merged_signature"]["joins"].items()
        }
        fresh = StreamingEvaluator(self._pcea(), window=self.WINDOW)
        with pytest.raises(SnapshotError, match="signatures differ"):
            fresh.restore(renumbered)
        assert fresh.position == -1 and fresh.hash_table_size() == 0
        fresh.restore(roundtrip(snap, "json"))
        assert fresh.snapshot() == snap


class TestQuerySubsetSnapshotsAreRefused:
    """``multi-partial`` trees moved queries between the shards of the removed
    ``repro.shard`` package.  A file holding one is refused by name — through
    the API and ``--restore`` — and the engine is left as it was."""

    WINDOW = 9

    def _partial(self, engine):
        """The tree a query-subset extraction wrote: the placement and lanes of
        a full snapshot, a ``kind`` tag instead of ``engine``, the position,
        the bucket triples and one dispatch signature per query."""
        full = engine.snapshot()
        return {
            "snapshot_version": full["snapshot_version"],
            "kind": "multi-partial",
            "position": engine.position,
            "placement": full["placement"],
            "lanes": full["lanes"],
            "buckets": full["runtime"]["buckets"],
            "signatures": [
                snapshot_codec.stable_signature(
                    MergedDispatchIndex([(0, engine._queries[handle.id].dispatch)]).signature()
                )
                for handle in engine.handles()
            ],
        }

    def _engine(self, stream):
        engine = MultiQueryEngine()
        engine.register(parse_query(QUERY), window=self.WINDOW, name="Q")
        for tup in stream:
            engine.process(tup)
        return engine

    def test_refused_by_name_through_the_api_and_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        stream = sigma0_stream(40, seed=5)
        partial = roundtrip(self._partial(self._engine(stream)), "json")
        fresh = self._engine(Tuple("Other", tup.values) for tup in stream)
        untouched = fresh.snapshot()
        with pytest.raises(SnapshotError, match=r"multi-partial.*removed repro\.shard"):
            fresh.restore(partial)
        assert fresh.snapshot() == untouched and fresh.hash_table_size() == 0

        path = tmp_path / "partial.json"
        snapshot_codec.save(str(path), partial)
        events = tmp_path / "events.csv"
        events.write_text("T,1\nS,1,2\nR,1,2\n")
        argv = ["multi", "--query", QUERY, "--window", str(self.WINDOW), "--restore", str(path)]
        assert main([*argv, str(events)]) == 2
        captured = capsys.readouterr()
        assert "removed repro.shard" in captured.err
        assert "events=" not in captured.out  # refused before any event was read


class TestOneStorePerWindow:
    """Every restored run store is its window's store (version 4 dropped the
    ``joinable`` lane field), so a hand-edited tree that puts two lanes under
    one window is refused before anything moves."""

    SPECS = TestMultiEngineSnapshot.SPECS

    def _engine(self, stream):
        engine = MultiQueryEngine()
        for query, window in self.SPECS:
            engine.register(query, window=window)
        for tup in stream:
            engine.process(tup)
        return engine

    def test_two_lanes_under_one_window_are_refused(self):
        stream = sigma0_stream(60, seed=19)
        snap = roundtrip(self._engine(stream).snapshot(), "json")
        assert all("joinable" not in lane for lane in snap["lanes"])
        snap["lanes"][1]["window"] = snap["lanes"][0]["window"]
        fresh = self._engine(Tuple("Other", tup.values) for tup in stream)
        untouched = fresh.snapshot()
        with pytest.raises(SnapshotError, match="two run stores for one window"):
            fresh.restore(snap)
        assert fresh.snapshot() == untouched

    def test_a_restored_store_takes_later_registrations(self):
        stream = sigma0_stream(120, seed=23)
        original = self._engine(stream[:60])
        restored = self._engine(Tuple("Other", tup.values) for tup in stream[:60])
        restored.restore(roundtrip(original.snapshot(), "json"))
        for engine in (original, restored):
            engine.register("Q4(x, y) <- T(x), S(x, y)", window=self.SPECS[0][1])
        assert restored.dispatch_info()["stores"] == len(self.SPECS)  # Q4 joined a store
        assert [original.process(t) for t in stream[60:]] == [restored.process(t) for t in stream[60:]]
        assert original.snapshot() == restored.snapshot()


#: Both kernels where the extension is built, the python one alone elsewhere.
KERNELS = ["python", "native"] if native_available() else ["python"]


def _records_of(slab_snap):
    """A snapshot slab's record words (they travel little-endian)."""
    records = array("q", slab_snap["records"])
    if sys.byteorder != "little":
        records.byteswap()
    return records


def _set_records(slab_snap, records):
    if sys.byteorder != "little":
        records.byteswap()
    slab_snap["records"] = records.tobytes()


class TestUntrustedRecords:
    """Restore checks every record against the restored tables before any slab
    is registered: the native kernel indexes ``prods`` without a bounds check."""

    def _engine(self, kernel):
        return StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=9, kernel=kernel)

    def _snapshot(self, kernel):
        original = self._engine(kernel)
        for tup in sigma0_stream(150, seed=3):
            original.process(tup)
        return roundtrip(original.snapshot(), "json")

    def _tampered(self, kernel, field):
        snap = self._snapshot(kernel)
        arena = snap["lanes"][0]["ds"]
        slab = next(slab for slab in arena["slabs"] if slab["prods"])
        records = _records_of(slab)
        node = next(index for index in range(slab["count"]) if records[5 * index + 4] >> 32)
        meta = records[5 * node + 4]
        if field == "product":
            records[5 * node + 4] = ((len(slab["prods"]) + 1) << 32) | (meta & 0xFFFFFFFF)
        elif field == "label":
            records[5 * node + 4] = (meta & ~0xFFFFFFFE) | (len(arena["labels"]) << 1)
        elif field == "link":  # a union link to itself: a walk would cycle
            records[5 * node + 2] = slab["base"] + node
        elif field == "child":  # a product child that is the node itself
            slab["prods"][(meta >> 32) - 1] = (slab["base"] + node,)
        elif field == "max_start":  # the C kernel's position - max_start overflows
            records[5 * node + 1] = -(1 << 63) + 1
        elif field == "position":
            records[5 * node] = 1 << 62
        elif field == "max_ms":
            slab["max_ms"] = -(1 << 63)
        _set_records(slab, records)
        if field == "length":
            slab["records"] = slab["records"][:-8]
        return snap

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "field, reason",
        [("product", "product reference"), ("label", "label id"), ("length", "record bytes")],
    )
    def test_a_record_outside_the_tables_is_refused(self, kernel, field, reason):
        snap = self._tampered(kernel, field)
        fresh = self._engine(kernel)
        untouched = fresh.snapshot()
        with pytest.raises(ValueError, match=reason):
            fresh.restore(snap)
        assert fresh.snapshot() == untouched
        for tup in sigma0_stream(40, seed=4):  # the kernel still holds its own slabs
            fresh.process(tup)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "field, reason",
        [
            ("link", "union link"),
            ("child", "product child"),
            ("max_start", "0 <= max_start <= position"),
            ("position", "0 <= max_start <= position"),
            ("max_ms", "max_ms"),
        ],
    )
    def test_a_record_a_walk_could_not_finish_is_refused(self, kernel, field, reason):
        """Links and children must point at older nodes, and positions stay
        where the kernel's window arithmetic cannot overflow."""
        snap = self._tampered(kernel, field)
        fresh = self._engine(kernel)
        untouched = fresh.snapshot()
        with pytest.raises(ValueError, match=reason):
            fresh.restore(snap)
        assert fresh.snapshot() == untouched

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_slabs_must_tile_the_slots(self, kernel):
        snap = self._snapshot(kernel)
        assert len(snap["lanes"][0]["ds"]["slabs"]) >= 2
        moved = roundtrip(snap, "json")
        moved["lanes"][0]["ds"]["slabs"][1]["base"] += 64  # a gap after the first slab
        shrunk = roundtrip(snap, "json")
        shrunk["lanes"][0]["ds"]["next_slot"] += 1
        for tampered, reason in ((moved, "slot sequence"), (shrunk, "allocation cursor")):
            with pytest.raises(ValueError, match=reason):
                self._engine(kernel).restore(tampered)
        self._engine(kernel).restore(snap)

    def test_bucket_triples_must_name_a_restored_lane(self):
        snap = self._snapshot("python")
        expiry, flat = next(iter(snap["runtime"]["buckets"].items()))
        other_lane = roundtrip(snap, "json")
        other_lane["runtime"]["buckets"][expiry] = [1] + flat[1:]  # the engine has lane 0 only
        cut = roundtrip(snap, "json")
        cut["runtime"]["buckets"][expiry] = flat[:-1]
        with pytest.raises(KeyError):
            self._engine("python").restore(other_lane)
        with pytest.raises(ValueError, match="whole triples"):
            self._engine("python").restore(cut)


# ---------------------------------------------------------------- fuzzing
#: What ``cli._restore_engine`` catches; anything else escaping a restore is a bug.
RESTORE_ERRORS = (OSError, ValueError, KeyError, TypeError)

MULTI_SPECS = [
    ("Q1(x, y) <- S(x, y), R(x, y)", 7),
    ("Q2(x) <- T(x)", 4),
    ("Q3(x, y) <- T(x), S(x, y)", 11),
]
CHURNED = ("Q4(x, y) <- T(x), S(x, y), R(x, y)", 7)


def _single():
    return StreamingEvaluator(hcq_to_pcea(parse_query(QUERY)), window=9)


def mixed_pcea():
    """``QUERY``'s automaton with one join scanned: the ``S`` transition's on
    the ``T`` state, which the ``R`` transition still hashes — so that
    transition probes both kinds, and the ``T`` state is read through a
    scan slot and a hash slot."""
    return scanned(hcq_to_pcea(parse_query(QUERY)), joins={(3, 0)})


def _mixed():
    """One window, one store: ``QUERY`` hashed and :func:`mixed_pcea`."""
    engine = MultiQueryEngine()
    engine.register(QUERY, window=8)
    engine.register(mixed_pcea(), window=8)
    return engine


def _multi(churn=False):
    """The multi engine's queries after churn: Q2 unregistered, Q4 registered."""
    engine = MultiQueryEngine()
    handles = [engine.register(query, window=window) for query, window in MULTI_SPECS]
    if churn:
        engine.unregister(handles[1])
        engine.register(*CHURNED)
    return engine


@lru_cache(maxsize=None)
def _checkpoint(kind):
    """``(fresh engine factory, checkpoint bytes)`` of one engine mid-stream."""
    stream = sigma0_stream(160, seed=29)
    if kind == "multi":
        engine = _multi()
        for tup in stream[:80]:
            engine.process(tup)
        engine.unregister(engine.handles()[1])
        engine.register(*CHURNED)
        make = lambda: _multi(churn=True)  # noqa: E731
    else:
        make = _single if kind == "single" else _mixed
        engine = make()
        for tup in stream[:80]:
            engine.process(tup)
    for tup in stream[80:]:
        engine.process(tup)
    blob = snapshot_codec.dumps(engine.snapshot())
    make().restore(snapshot_codec.loads(blob))  # the untouched checkpoint restores
    return make, blob


def restores_or_refuses(make, blob):
    """``blob`` restores into an engine that has processed tuples, or raises
    one of RESTORE_ERRORS and leaves that engine's snapshot bytes as they
    were; any other exception escapes and fails the test."""
    engine = make()
    for tup in sigma0_stream(20, seed=31):
        engine.process(tup)
    before = snapshot_codec.dumps(engine.snapshot())
    try:
        engine.restore(snapshot_codec.loads(blob))
    except RESTORE_ERRORS:
        assert snapshot_codec.dumps(engine.snapshot()) == before


#: The engines a checkpoint is fuzzed from: one query, one store of a hashed
#: and a mixed query (:func:`_mixed`), several stores after churn.
KINDS = ["single", "mixed", "multi"]


class TestCheckpointFuzz:
    # No test here fixes ``max_examples``: tier-1 runs the default budget, CI
    # the ``fuzz`` profile (conftest.py).
    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_truncations_restore_or_refuse(self, kind, data):
        make, blob = _checkpoint(kind)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(SnapshotError):  # the length prefix no longer fits
            snapshot_codec.loads(blob[:cut])
        body = blob[HEADER_SIZE:cut]
        restores_or_refuses(make, struct.pack("!I", len(body)) + body)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_byte_mutations_restore_or_refuse(self, kind, data):
        make, blob = _checkpoint(kind)
        mutated = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            index = data.draw(st.integers(HEADER_SIZE, len(blob) - 1), label="index")
            mutated[index] = data.draw(st.integers(0, 255), label="byte")
        restores_or_refuses(make, bytes(mutated))
