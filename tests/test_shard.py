"""Guards for the retirement of the query-sharding package ``repro.shard``.

The sharded engine split the registered queries over worker processes; it
was removed (ROADMAP "Parked") because one :class:`MultiQueryEngine` process
beat it on wall clock and splitting by query un-shares the per-window run
stores.  Each test below keeps the name of the sharded-engine test it
replaces and pins what a user of that feature has now:

* frames — the pickled pipe frames are gone; every message they carried
  round-trips through the typed codec (:mod:`repro.runtime.frames`), which
  rejects torn, corrupted, unencodable and pickled bodies;
* placement — a query is placed in the run store of its window, deals fresh
  slots there, and a restored placement that does not fit is refused;
* lane-subset snapshots — moving live state is a whole-engine
  ``snapshot``/``restore``: non-destructive, bit-identical, and refused
  before anything moves when the target holds other queries or windows;
* differentials — the shared engine equals one independent evaluator (or one
  engine) per query, in process, in a CLI child and across hash seeds;
* rebalance / recovery — handing state to a fresh engine mid-stream is
  lossless, and a dead or SIGKILLed process resumes exactly from its last
  checkpoint plus a replay of the tuples since;
* surfaces — ``observe()``, the :class:`~repro.obs.Observer` series and the
  CLI carry no shard section, and ``--workers`` is refused by argparse.
"""

import copy
import io
import os
import random
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.cli import build_multi_parser, build_parser, read_events, run, run_multi
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.net import IngestClient, ServerThread
from repro.net.protocol import PROTOCOL_VERSION
from repro.obs import Observer
from repro.runtime import SnapshotError
from repro.runtime import snapshot as snapshot_codec
from repro.runtime.frames import (
    WIRE_VERSION,
    FrameAssembler,
    FrameProtocolError,
    decode_frame,
    encode_frame,
)
from repro.runtime.snapshot import SNAPSHOT_VERSION

from helpers import SIGMA0, streams_strategy


QUERIES = [
    ("Q0(x, y) <- T(x), S(x, y), R(x, y)", 6),
    ("QA(x, y) <- T(x), R(x, y)", 4),
    ("QB(x, y) <- S(x, y), R(x, y)", 5),
    ("QC(x) <- T(x)", 3),
]

SRC = Path(__file__).resolve().parent.parent / "src"


def sigma0_stream(length, seed, domain=3):
    """A deterministic σ0 stream with a small domain (many joins)."""
    rng = random.Random(seed)
    relations = [("T", 1), ("S", 2), ("R", 2)]
    return [
        Tuple(name, tuple(rng.randrange(domain) for _ in range(arity)))
        for name, arity in (rng.choice(relations) for _ in range(length))
    ]


def events_csv(stream):
    return "".join(f"{event.relation},{','.join(map(str, event.values))}\n" for event in stream)


def reference_engine(queries=QUERIES, **kwargs):
    engine = MultiQueryEngine(**kwargs)
    handles = [
        engine.register(parse_query(text), window=window)
        for text, window in queries
    ]
    return engine, handles


def independent_outputs(queries, stream):
    """Per position, ``{query index: valuations}`` of one evaluator per query."""
    evaluators = [
        StreamingEvaluator(hcq_to_pcea(parse_query(text)), window=window)
        for text, window in queries
    ]
    outputs = []
    for tup in stream:
        produced = [list(evaluator.process(tup)) for evaluator in evaluators]
        outputs.append({qid: out for qid, out in enumerate(produced) if out})
    return outputs


def run_batches(engine, stream, batch_size=16, hook=None):
    """Feed ``stream`` in batches, calling ``hook(position)`` between them."""
    outputs = []
    for start in range(0, len(stream), batch_size):
        outputs.extend(engine.process_many(stream[start : start + batch_size]))
        if hook is not None:
            hook(engine.position)
    return outputs


def handover(engine, queries=QUERIES):
    """A fresh engine holding ``engine``'s state, passed through checkpoint text."""
    fresh, _ = reference_engine(queries)
    fresh.restore(snapshot_codec.loads(snapshot_codec.dumps(engine.snapshot())))
    return fresh


def cli_command(*argv):
    return [sys.executable, "-m", "repro.cli", *argv]


def cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def match_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


QUERY_ARGS = [
    "--query", QUERIES[0][0], "--query", QUERIES[1][0],
    "--window", "6", "--window", "4",
]


# ------------------------------------------------------------------- frames
class TestFrames:
    MESSAGES = [
        ("ping",),
        ("batch", [Tuple("S", (2, 11)), Tuple("T", (1,))]),
        ("register", 3, "q3", 100, "Q(x) <- T(x)"),
        ("matches", 7, [(0, 3, [])], 0.25),
        ("snapshot", {"snapshot_version": 1, "buckets": {9: [0, (1, 2), 5]}}, [0, 2]),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m[0])
    def test_roundtrip(self, message):
        """Every message the pipe frames carried survives the typed codec."""
        assert decode_frame(encode_frame(message)) == message

    def test_protocol_is_highest(self):
        """The build speaks one wire version, the typed one; a pickle at the
        highest pickle protocol — what the pipes sent — is refused by name."""
        import pickle

        assert PROTOCOL_VERSION == WIRE_VERSION == 2
        body = pickle.dumps(("ping",), protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(FrameProtocolError, match="pickle"):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_length_prefix_matches_body(self):
        frame = encode_frame(("ping",))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_truncated_frame_rejected(self):
        frame = encode_frame(("ping",))
        with pytest.raises(FrameProtocolError, match="length prefix"):
            decode_frame(frame[:-1])

    def test_short_frame_rejected(self):
        with pytest.raises(FrameProtocolError, match="shorter than"):
            decode_frame(b"\x00\x01")

    def test_corrupted_prefix_rejected(self):
        frame = encode_frame(("ping",))
        with pytest.raises(FrameProtocolError, match="length prefix"):
            decode_frame(b"\xff\xff\xff\xff" + frame[4:])

    def test_garbage_body_rejected(self):
        body = b"not a pickle"
        with pytest.raises(FrameProtocolError, match="unknown value tag"):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_unpicklable_message_rejected(self):
        """What the codec cannot carry (a callable) fails to encode, by name."""
        with pytest.raises(FrameProtocolError, match="not in the frame tag set"):
            encode_frame(("call", lambda: None))

    def test_channel_counts_frames_and_bytes(self):
        """The stream reassembler counts frames and bytes, whatever the chunking."""
        data = encode_frame(("ping", 123)) + encode_frame(self.MESSAGES[1])
        assembler = FrameAssembler()
        received = []
        for start in range(0, len(data), 5):
            received.extend(assembler.feed(data[start : start + 5]))
        assert received == [("ping", 123), self.MESSAGES[1]]
        assert assembler.frames_received == 2
        assert assembler.bytes_received == len(data)
        assert assembler.pending() == 0


# ---------------------------------------------------------------- placement
class TestPlacement:
    SPECS = [(QUERIES[i % 4][0], 4 + i % 3) for i in range(12)]

    @staticmethod
    def _stores(engine):
        return int(engine.dispatch_info()["stores"])

    def test_hash_placement_deterministic_and_in_range(self):
        """A query's store is a function of its window: every placement row
        names a store of the query's own window, and the same registrations
        place alike whatever the stream did between them."""
        first, first_handles = reference_engine(self.SPECS)
        second, second_handles = reference_engine(self.SPECS[:5])
        second.process_many(sigma0_stream(30, seed=2))
        second_handles += [
            second.register(parse_query(text), window=window) for text, window in self.SPECS[5:]
        ]
        placements = []
        for engine, handles in ((first, first_handles), (second, second_handles)):
            snap = engine.snapshot()
            windows = [lane["window"] for lane in snap["lanes"]]
            for handle, (where, _, _) in zip(handles, snap["placement"]):
                assert 0 <= where < len(windows) and windows[where] == handle.window
            placements.append([row[0] for row in snap["placement"]])
        assert placements[0] == placements[1]

    def test_hash_placement_spreads_consecutive_ids(self):
        """Consecutive registrations under different windows get one store
        each; under one window they share it."""
        spread, _ = reference_engine()
        assert self._stores(spread) == 4
        assert sorted(lane["window"] for lane in spread.snapshot()["lanes"]) == [3, 4, 5, 6]
        shared, _ = reference_engine([(text, 5) for text, _ in QUERIES])
        assert self._stores(shared) == 1

    def test_round_robin_cycles(self):
        """Slots are dealt in registration order and never twice: a departed
        query's slots stay retired, a newcomer gets fresh ones."""
        engine, handles = reference_engine([(QUERIES[1][0], 5), (QUERIES[2][0], 5)])
        rows = engine.snapshot()["placement"]
        assert rows[0][2] + rows[1][2] == tuple(range(len(rows[0][2]) + len(rows[1][2])))
        dealt = engine.snapshot()["lanes"][0]["next_slot"]
        engine.unregister(handles[0])
        newcomer = engine.register(parse_query("QD(x, y) <- U(x), V(x, y)"), window=5)
        assert newcomer.id == 2
        snap = engine.snapshot()
        fresh = snap["placement"][-1][2]
        assert fresh and min(fresh) >= dealt
        assert snap["lanes"][0]["next_slot"] == dealt + len(fresh)

    def test_least_loaded_picks_min_breaking_ties_low(self):
        """A newcomer joins the live store of its window rather than opening
        another, and a store lives exactly as long as its queries."""
        engine = MultiQueryEngine()
        a = engine.register(parse_query(QUERIES[0][0]), window=5)
        b = engine.register(parse_query(QUERIES[1][0]), window=5)
        assert self._stores(engine) == 1
        engine.register(parse_query(QUERIES[2][0]), window=7)
        assert self._stores(engine) == 2
        engine.unregister(a)
        assert self._stores(engine) == 2
        engine.unregister(b)
        assert self._stores(engine) == 1
        engine.register(parse_query(QUERIES[1][0]), window=5)
        assert self._stores(engine) == 2

    def test_out_of_range_placement_rejected(self):
        """A snapshot placing a query in a store it does not hold is refused,
        and the engine is left as it was."""
        source, _ = reference_engine()
        stream = sigma0_stream(80, seed=13)
        source.process_many(stream[:40])
        snap = copy.deepcopy(source.snapshot())
        where, since, slots = snap["placement"][1]
        snap["placement"][1] = (len(snap["lanes"]), since, slots)
        target, handles = reference_engine()
        twin, _ = reference_engine()
        for engine in (target, twin):
            engine.process_many(stream[:20])
        with pytest.raises(SnapshotError, match="does not fit"):
            target.restore(snap)
        assert target.handles() == handles and target.position == twin.position
        assert target.process_many(stream[20:]) == twin.process_many(stream[20:])


# ------------------------------------------------ snapshot / restore (multi)
class TestLaneSubsetSnapshots:
    def _pair(self, stream_length=60, seed=5):
        source, s_handles = reference_engine()
        target, t_handles = reference_engine(QUERIES[:2])
        stream = sigma0_stream(stream_length, seed)
        for engine in (source, target):
            engine.process_many(stream)
        return source, s_handles, target, t_handles, stream

    def test_extract_is_non_destructive(self):
        """Taking a snapshot changes nothing: the engine continues exactly as
        a twin that was never snapshotted."""
        source, _, _, _, stream = self._pair()
        twin, _ = reference_engine()
        twin.process_many(stream)
        before = source.hash_table_size()
        snap = source.snapshot()
        assert source.hash_table_size() == before
        assert snap["engine"] == "multi" and snap["snapshot_version"] == SNAPSHOT_VERSION
        assert len(snap["lanes"]) == 4 and len(snap["placement"]) == 4
        tail = sigma0_stream(60, seed=6)
        assert source.process_many(tail) == twin.process_many(tail)

    def test_migration_continues_bit_identically(self):
        """State moved to a fresh engine through checkpoint text continues
        bit-identically; a query unregistered on the old engine leaves the
        others untouched."""
        reference, _ = reference_engine()
        left, l_handles = reference_engine()
        stream = sigma0_stream(120, seed=9)
        reference.process_many(stream[:60])
        left.process_many(stream[:60])
        right = handover(left)
        left.unregister(l_handles[1])
        want = reference.process_many(stream[60:])
        assert right.process_many(stream[60:]) == want
        l_tail = left.process_many(stream[60:])
        assert l_tail == [
            {qid: out for qid, out in outputs.items() if qid != l_handles[1].id}
            for outputs in want
        ]

    def test_adopt_rejects_position_mismatch(self):
        """A snapshot without its runtime section (the stream position and
        sweep cursors) is refused before anything moves."""
        source, _, target, _, _ = self._pair()
        target.process_many(sigma0_stream(5, seed=99))
        position = target.position
        snap = dict(source.snapshot())
        del snap["runtime"]
        with pytest.raises(SnapshotError, match="runtime"):
            target.restore(snap)
        assert target.position == position

    def test_adopt_rejects_wrong_handle_count(self):
        source, _, target, t_handles, _ = self._pair()
        with pytest.raises(SnapshotError, match="different registered queries"):
            target.restore(source.snapshot())
        assert target.handles() == t_handles

    def test_adopt_rejects_window_mismatch(self):
        source, _, _, _, _ = self._pair()
        windows = [(text, window + (index == 3)) for index, (text, window) in enumerate(QUERIES)]
        target, handles = reference_engine(windows)
        with pytest.raises(SnapshotError, match="window"):
            target.restore(source.snapshot())
        assert target.handles() == handles

    def test_adopt_rejects_different_query(self):
        source, _, _, _, _ = self._pair()
        # Same windows, QUERIES[0] replaced by a structurally different query.
        swapped = [(QUERIES[1][0], QUERIES[0][1])] + QUERIES[1:]
        target, _ = reference_engine(swapped)
        with pytest.raises(SnapshotError, match="signature"):
            target.restore(source.snapshot())

    def test_adopt_rejects_full_snapshot(self):
        """Only a multi-engine snapshot restores into the multi engine: the
        single evaluator's old ``streaming`` tree is refused by name, and so
        is a query-subset tree of the removed sharding package.  A single
        evaluator writes a ``multi`` tree, which restores into an engine
        holding the same one query."""
        target, _ = reference_engine(QUERIES[3:])
        single = StreamingEvaluator(hcq_to_pcea(parse_query(QUERIES[3][0])), window=QUERIES[3][1])
        single.process(Tuple("T", (1,)))
        with pytest.raises(SnapshotError, match="cannot restore into 'multi'"):
            target.restore({**single.snapshot(), "engine": "streaming"})
        partial = {"kind": "multi-partial", "snapshot_version": SNAPSHOT_VERSION, "lanes": []}
        with pytest.raises(SnapshotError, match="repro.shard"):
            target.restore(partial)
        assert target.position == -1 and target.hash_table_size() == 0
        target.restore(single.snapshot())
        assert target.position == single.position == 0
        assert target.snapshot() == single.snapshot()

    def test_extract_rejects_stale_handle(self):
        """A departed query is gone from the engine and from its snapshots."""
        source, s_handles, _, _, _ = self._pair()
        source.unregister(s_handles[2])
        with pytest.raises(KeyError):
            source.unregister(s_handles[2])
        ids = [entry["id"] for entry in source.snapshot()["registry"]["entries"]]
        assert ids == [s_handles[0].id, s_handles[1].id, s_handles[3].id]


# ------------------------------------------------------------- differentials
class TestShardedDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_inline_matches_single_engine(self, workers):
        """The first ``workers`` queries in one shared engine equal one
        independent evaluator per query, valuation for valuation."""
        queries = QUERIES[:workers]
        engine, _ = reference_engine(queries)
        stream = sigma0_stream(150, seed=workers)
        assert run_batches(engine, stream) == independent_outputs(queries, stream)

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=24))
    def test_inline_hypothesis_streams(self, stream):
        engine, _ = reference_engine(QUERIES[:2])
        assert run_batches(engine, stream, batch_size=7) == independent_outputs(QUERIES[:2], stream)

    def test_single_tuple_process(self):
        """``process`` one tuple at a time equals batched ``process_many``."""
        single, _ = reference_engine()
        batched, _ = reference_engine()
        stream = sigma0_stream(40, seed=11)
        got = [single.process(event) for event in stream]
        assert got == run_batches(batched, stream)
        assert got == independent_outputs(QUERIES, stream)

    def test_fork_processes_match_single_engine(self, tmp_path):
        """A CLI child process prints exactly what the in-process engine does."""
        events = tmp_path / "events.csv"
        events.write_text(events_csv(sigma0_stream(150, seed=21)))
        child = subprocess.run(
            cli_command("multi", *QUERY_ARGS, str(events)),
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        args = build_multi_parser().parse_args(QUERY_ARGS)
        output = io.StringIO()
        assert run_multi(args, read_events(events.read_text().splitlines()), output) == 0
        assert match_lines(child.stdout) == match_lines(output.getvalue())
        assert match_lines(child.stdout)

    def test_spawn_processes_match_single_engine(self, tmp_path):
        """Fresh interpreters under different hash seeds print the same lines
        in the same order: nothing depends on process-local hashing."""
        events = tmp_path / "events.csv"
        events.write_text(events_csv(sigma0_stream(60, seed=31)))
        runs = [
            subprocess.run(
                cli_command("multi", *QUERY_ARGS, "--batch-size", "30", str(events)),
                env=cli_env(PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=120,
            )
            for seed in ("0", "4242")
        ]
        assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
        assert match_lines(runs[0].stdout) == match_lines(runs[1].stdout)
        assert match_lines(runs[0].stdout)

    def test_register_and_unregister_mid_stream(self):
        """Registration churn in the shared engine equals the same churn done
        with one engine per query; handle ids are never reused."""
        shared, handles = reference_engine(QUERIES[:3])
        alone = [reference_engine([query])[0] for query in QUERIES[:3]]
        stream = sigma0_stream(120, seed=41)

        def per_query(engines, tuples, ids):
            rows = [engine.process_many(tuples) for engine in engines]
            return [
                {qid: out[0] for qid, out in zip(ids, (row[i] for row in rows)) if out}
                for i in range(len(tuples))
            ]

        got = shared.process_many(stream[:60])
        want = per_query(alone, stream[:60], [0, 1, 2])
        shared.unregister(handles[1])
        newcomer = shared.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
        assert newcomer.id == 3
        late = MultiQueryEngine()
        late.process_many(stream[:60])
        late.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
        alone = [alone[0], alone[2], late]
        got += shared.process_many(stream[60:])
        want += per_query(alone, stream[60:], [0, 2, 3])
        assert got == want

    def test_double_unregister_rejected(self):
        engine, handles = reference_engine()
        engine.unregister(handles[0])
        with pytest.raises(KeyError):
            engine.unregister(handles[0])
        assert engine.handles() == handles[1:]
        stream = sigma0_stream(40, seed=3)
        assert engine.process_many(stream) == [
            {qid + 1: out for qid, out in outputs.items()}
            for outputs in independent_outputs(QUERIES[1:], stream)
        ]

    def test_unknown_command_is_error_reply_not_crash(self):
        """An unknown command gets an error reply and a closed connection;
        the server keeps serving everyone else."""
        with ServerThread(MultiQueryEngine(), max_batch=16) as st:
            with socket.create_connection((st.host, st.port), timeout=10) as raw:
                raw.sendall(encode_frame(("made_up",)))
                data = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            (reply,) = FrameAssembler().feed(data)
            assert reply[0] == "error" and "unknown command" in reply[1]
            with IngestClient(st.host, st.port) as client:
                client.subscribe(QUERIES[3][0], QUERIES[3][1])
                client.ingest_all(sigma0_stream(20, seed=8), frame_size=5)
                assert client.ping() == 19


# ------------------------------------------------------- state handover
class TestRebalance:
    def test_rebalance_mid_stream_is_lossless(self):
        """Handing the state to a fresh engine at three batch boundaries
        changes no output."""
        reference, _ = reference_engine()
        stream = sigma0_stream(200, seed=51)
        want = run_batches(reference, stream, batch_size=40)
        engine, _ = reference_engine()
        got = []
        for index, start in enumerate(range(0, 200, 40)):
            got += engine.process_many(stream[start : start + 40])
            if index in (0, 2, 3):
                engine = handover(engine)
        assert got == want

    def test_rebalance_to_same_shard_is_noop(self):
        """Restoring an engine's own snapshot into it changes nothing."""
        engine, handles = reference_engine()
        twin, _ = reference_engine()
        stream = sigma0_stream(120, seed=52)
        for each in (engine, twin):
            each.process_many(stream[:60])
        size = engine.hash_table_size()
        engine.restore(engine.snapshot())
        assert engine.handles() == handles and engine.hash_table_size() == size
        assert engine.process_many(stream[60:]) == twin.process_many(stream[60:])

    def test_rebalance_stale_handle_rejected(self):
        """Handles follow the snapshot: one unregistered before it stays stale
        after a restore, and later registrations continue its id sequence."""
        source, handles = reference_engine()
        source.process_many(sigma0_stream(30, seed=53))
        source.unregister(handles[2])
        survivors = [query for index, query in enumerate(QUERIES) if index != 2]
        target = handover(source, survivors)
        assert [handle.id for handle in target.handles()] == [0, 1, 3]
        with pytest.raises(KeyError):
            target.unregister(handles[2])
        assert target.register(parse_query(QUERIES[2][0]), window=QUERIES[2][1]).id == 4

    def test_rebalance_bad_target_rejected(self):
        """An engine without the arena cannot take run stores over; it is
        left as it was."""
        source, _ = reference_engine()
        source.process_many(sigma0_stream(30, seed=54))
        target, handles = reference_engine(arena=False)
        with pytest.raises(SnapshotError, match="arena"):
            target.restore(source.snapshot())
        assert target.handles() == handles and target.position == -1

    def test_rebalance_updates_assignment_and_rosters(self):
        """A restored engine reproduces the source's placement, handles and
        store layout."""
        source, _ = reference_engine()
        source.process_many(sigma0_stream(50, seed=55))
        source.unregister(source.handles()[1])
        source.register(parse_query(QUERIES[1][0]), window=6)
        order = [QUERIES[0], QUERIES[2], QUERIES[3], (QUERIES[1][0], 6)]
        target = handover(source, order)
        assert target.snapshot()["placement"] == source.snapshot()["placement"]
        assert target.handles() == source.handles()
        # Everything but the registration history (the patch counters).
        layout = [
            {key: value for key, value in engine.dispatch_info().items() if not key.startswith("patched_")}
            for engine in (target, source)
        ]
        # The window-4 store left with its one query; window 6 now holds two.
        assert layout[0] == layout[1] and layout[0]["stores"] == 3


# ------------------------------------------------------------------ recovery
class TestRecovery:
    @staticmethod
    def _die_and_recover(stream, die_at, checkpoint_every, churn=None):
        """Emit until ``die_at``, checkpointing every ``checkpoint_every``
        tuples; then recover in a fresh engine from the last checkpoint (or
        from nothing), replay, and finish the stream.  Returns the outputs
        emitted before the death, those replayed, and the recovered tail."""
        engine, _ = reference_engine()
        queries = list(QUERIES)
        emitted, saved = [], (0, None)
        for start in range(0, die_at, 10):
            emitted += engine.process_many(stream[start : start + 10])
            if churn is not None and start + 10 == churn:
                engine.unregister(engine.handles()[1])
                engine.register(parse_query(QUERIES[1][0]), window=7)
                queries = [QUERIES[0], QUERIES[2], QUERIES[3], (QUERIES[1][0], 7)]
            if checkpoint_every and (start + 10) % checkpoint_every == 0:
                saved = (start + 10, queries, snapshot_codec.dumps(engine.snapshot()))
        recovered, _ = reference_engine(saved[1] if saved[1] else QUERIES)
        if saved[1]:
            recovered.restore(snapshot_codec.loads(saved[2]))
        replayed = recovered.process_many(stream[saved[0] : die_at])
        assert replayed == emitted[saved[0] :]
        return emitted + recovered.process_many(stream[die_at:])

    def test_inline_death_with_checkpoints(self):
        stream = sigma0_stream(200, seed=61)
        reference, _ = reference_engine()
        want = run_batches(reference, stream, batch_size=10)
        assert self._die_and_recover(stream, die_at=130, checkpoint_every=50) == want

    def test_inline_death_without_any_checkpoint(self):
        stream = sigma0_stream(120, seed=71)
        reference, _ = reference_engine()
        want = run_batches(reference, stream, batch_size=10)
        assert self._die_and_recover(stream, die_at=70, checkpoint_every=0) == want

    def test_sigkilled_fork_worker_recovers_exactly(self, tmp_path):
        """A CLI process killed with SIGKILL never writes its checkpoint, so
        the one it restored from is intact: a new process restoring that one
        and reading the tail prints what an uninterrupted run prints."""
        stream = sigma0_stream(160, seed=81)
        head, tail, whole = (tmp_path / name for name in ("head.csv", "tail.csv", "whole.csv"))
        head.write_text(events_csv(stream[:80]))
        tail.write_text(events_csv(stream[80:]))
        whole.write_text(events_csv(stream))
        checkpoint = str(tmp_path / "checkpoint.json")
        base = ["multi", *QUERY_ARGS]
        first = io.StringIO()
        args = build_multi_parser().parse_args(QUERY_ARGS + ["--checkpoint", checkpoint])
        assert run_multi(args, read_events(head.read_text().splitlines()), first) == 0
        saved = Path(checkpoint).read_bytes()

        victim = subprocess.Popen(
            cli_command(*base, "--restore", checkpoint, "--checkpoint", checkpoint),
            env=cli_env(), stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        victim.stdin.write(events_csv(stream[80:120]).encode())
        victim.stdin.flush()
        victim.kill()
        assert victim.wait(timeout=60) == -signal.SIGKILL
        victim.stdin.close()
        assert Path(checkpoint).read_bytes() == saved

        resumed = subprocess.run(
            cli_command(*base, "--restore", checkpoint, str(tail)),
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        uninterrupted = io.StringIO()
        args = build_multi_parser().parse_args(QUERY_ARGS)
        assert run_multi(args, read_events(whole.read_text().splitlines()), uninterrupted) == 0
        assert match_lines(first.getvalue()) + match_lines(resumed.stdout) == match_lines(
            uninterrupted.getvalue()
        )

    def test_death_after_rebalance_replays_the_move(self):
        """A checkpoint taken after a query moved to another window restores
        into an engine that registered the moved query last."""
        stream = sigma0_stream(160, seed=91)
        reference, _ = reference_engine()
        want = []
        for start in range(0, 160, 10):
            want += reference.process_many(stream[start : start + 10])
            if start + 10 == 40:
                reference.unregister(reference.handles()[1])
                reference.register(parse_query(QUERIES[1][0]), window=7)
        got = self._die_and_recover(stream, die_at=110, checkpoint_every=80, churn=40)
        assert got == want


# ------------------------------------------------------------------ surfaces
class TestSurfaces:
    STANDARD = ("engine", "position", "hash_entries", "evicted", "stats", "dispatch",
                "fanout", "memory", "kernel")

    def test_observe_shape_and_shard_section(self):
        engine, _ = reference_engine(collect_stats=True)
        stream = sigma0_stream(80, seed=3)
        run_batches(engine, stream)
        observed = engine.observe()
        assert set(self.STANDARD) <= set(observed) and "shard" not in observed
        assert observed["engine"] == "MultiQueryEngine"
        assert observed["position"] == engine.position == len(stream) - 1
        assert observed["hash_entries"] == engine.hash_table_size()
        assert observed["evicted"] == engine.evicted
        assert observed["stats"]["tuples_processed"] == len(stream)

    def test_shard_counters_sit_beside_the_standard_sections(self):
        """The standard sections mirror the engine's accessors, and an
        observer exports no shard series."""
        engine, _ = reference_engine()
        observer = Observer()
        engine.attach_observer(observer)
        run_batches(engine, sigma0_stream(40, seed=4))
        observed = engine.observe()
        assert observed["memory"] == engine.memory_info()
        assert observed["kernel"] == engine.kernel_info()
        assert observed["dispatch"]["queries"] == 4 and observed["dispatch"]["stores"] == 4
        assert not [name for name in observer.collect() if "shard" in name]
        engine.detach_observer()

    def test_stats_property_aggregates(self):
        """The shared engine's counters cover every query at once: one tuple
        count for the stream, the outputs of all queries summed."""
        engine, _ = reference_engine(collect_stats=True)
        stream = sigma0_stream(60, seed=6)
        outputs = run_batches(engine, stream)
        evaluators = [
            StreamingEvaluator(hcq_to_pcea(parse_query(text)), window=window, collect_stats=True)
            for text, window in QUERIES
        ]
        for tup in stream:
            for evaluator in evaluators:
                list(evaluator.process(tup))
        stats = engine.stats
        assert stats.tuples_processed == len(stream)
        assert stats.outputs_enumerated == sum(len(out) for row in outputs for out in row.values())
        assert stats.outputs_enumerated == sum(e.stats.outputs_enumerated for e in evaluators)

    def test_observer_counts_shard_batches_and_rebalances(self):
        """The observer counts batches, and the snapshot/restore pair that
        hands state over, in its standard series."""
        observer = Observer()
        engine, _ = reference_engine()
        engine.attach_observer(observer)
        run_batches(engine, sigma0_stream(40, seed=7))
        engine.restore(engine.snapshot())
        collected = observer.collect()
        assert collected["repro_batches_total"] == 3
        assert collected["repro_checkpoints_total"] == 1
        assert collected["repro_restores_total"] == 1
        assert not [name for name in collected if name.startswith("repro_shard")]
        engine.detach_observer()

    def test_worker_module_has_main_guard(self):
        """The sharding package is gone: its worker entry point does not import."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.shard.worker"],
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "No module named 'repro.shard'" in result.stderr


# ------------------------------------------------------------------ CLI
class TestCli:
    EVENTS = events_csv(sigma0_stream(200, seed=12))

    def _run(self, argv, parser=build_multi_parser, runner=run_multi):
        try:
            args = parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, ""
        output = io.StringIO()
        code = runner(args, list(read_events(self.EVENTS.splitlines())), output)
        return code, output.getvalue()

    def test_workers_output_matches_single_process(self):
        """Each query's lines from ``multi`` equal the single-query mode's."""
        code, multi = self._run(QUERY_ARGS + ["--batch-size", "32", "--stats"])
        assert code == 0
        assert not [line for line in multi.splitlines() if line.startswith("# shard")]
        for name, (text, window) in zip(("Q0", "QA"), QUERIES[:2]):
            code, single = self._run(
                ["--query", text, "--window", str(window)], parser=build_parser, runner=run
            )
            assert code == 0
            mine = [
                line.split("\t", 1)[1]
                for line in match_lines(multi)
                if line.startswith(name + "\t")
            ]
            assert mine == match_lines(single) and mine

    def test_workers_rejects_checkpoint_flags(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        assert self._run(QUERY_ARGS + ["--workers", "2", "--checkpoint", path])[0] == 2
        assert self._run(QUERY_ARGS + ["--workers", "2", "--restore", path])[0] == 2
        assert self._run(QUERY_ARGS + ["--checkpoint", path])[0] == 0
        assert self._run(QUERY_ARGS + ["--restore", path])[0] == 0

    def test_workers_rejects_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert self._run(QUERY_ARGS + ["--workers", "2", "--trace", str(path)])[0] == 2
        assert not path.exists()
        assert self._run(QUERY_ARGS + ["--trace", str(path)])[0] == 0
        assert path.exists()
