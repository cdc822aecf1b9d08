"""Tests for the sharded multi-process engine (repro.shard).

Five layers:

* pipe-frame units — the length-prefixed pickled frames of the worker pipes
  (``repro.shard.pipes``, the one place pickle lives) must round-trip, reject
  torn/corrupted frames, and pin ``pickle.HIGHEST_PROTOCOL``;
* placement units — the policies are deterministic, in-range, and spread;
* lane-subset snapshot units — ``extract_queries``/``adopt_queries`` move a
  query's live state between engines and reject mismatched positions,
  windows, signatures and snapshot kinds before touching anything;
* differentials — a sharded engine (inline shards, real ``fork`` workers,
  and a ``spawn`` run for spawn safety) must produce bit-identical
  per-handle outputs to one shared ``MultiQueryEngine``, including across a
  mid-stream rebalance and across a worker killed with SIGKILL (recovered
  from the coordinator checkpoint + command-log replay, with and without a
  checkpoint ever taken);
* surfaces — ``observe()`` exposes the shard counters beside the standard
  sections, and the CLI ``--workers`` path matches the single-process engine
  line for line.
"""

import io
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.cli import build_multi_parser, run_multi
from repro.cq.query import parse_query
from repro.cq.schema import Tuple
from repro.multi.engine import MultiQueryEngine
from repro.runtime import SnapshotError
from repro.runtime.snapshot import PARTIAL_SNAPSHOT_KIND, SNAPSHOT_VERSION
from repro.shard import (
    FrameChannel,
    FrameProtocolError,
    HashPlacement,
    LeastLoadedPlacement,
    PICKLE_PROTOCOL,
    PlacementPolicy,
    RoundRobinPlacement,
    ShardedEngine,
    ShardError,
    ShardWorker,
    WorkerDied,
    pickle_frame,
    unpickle_frame,
)

from helpers import SIGMA0, streams_strategy


QUERIES = [
    ("Q0(x, y) <- T(x), S(x, y), R(x, y)", 6),
    ("QA(x, y) <- T(x), R(x, y)", 4),
    ("QB(x, y) <- S(x, y), R(x, y)", 5),
    ("QC(x) <- T(x)", 3),
]


def sigma0_stream(length, seed, domain=3):
    """A deterministic σ0 stream with a small domain (many joins)."""
    rng = random.Random(seed)
    relations = [("T", 1), ("S", 2), ("R", 2)]
    return [
        Tuple(name, tuple(rng.randrange(domain) for _ in range(arity)))
        for name, arity in (rng.choice(relations) for _ in range(length))
    ]


def reference_engine(queries=QUERIES):
    engine = MultiQueryEngine()
    handles = [
        engine.register(parse_query(text), window=window)
        for text, window in queries
    ]
    return engine, handles


def sharded_engine(workers, queries=QUERIES, **kwargs):
    kwargs.setdefault("start_method", "inline")
    engine = ShardedEngine(workers, **kwargs)
    handles = engine.register_many(
        [(parse_query(text), window) for text, window in queries]
    )
    return engine, handles


def canonical(per_position_outputs):
    """Order-insensitive form of a list of per-position output dicts."""
    return sorted(
        (position, qid, sorted(map(str, valuations)))
        for position, outputs in enumerate(per_position_outputs)
        for qid, valuations in outputs.items()
    )


def run_batches(engine, stream, batch_size=16, hook=None):
    """Feed ``stream`` in batches, calling ``hook(position)`` between them."""
    outputs = []
    for start in range(0, len(stream), batch_size):
        outputs.extend(engine.process_many(stream[start : start + batch_size]))
        if hook is not None:
            hook(engine.position)
    return outputs


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
        assert unpickle_frame(pickle_frame(message)) == message

    def test_protocol_is_highest(self):
        # The spawn-safety satellite pins HIGHEST_PROTOCOL; the second byte
        # of a pickled stream is the protocol number of the PROTO opcode.
        assert PICKLE_PROTOCOL == pickle.HIGHEST_PROTOCOL
        frame = pickle_frame(("ping",))
        assert frame[4] == 0x80  # PROTO opcode
        assert frame[5] == pickle.HIGHEST_PROTOCOL

    def test_length_prefix_matches_body(self):
        frame = pickle_frame(("ping",))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_truncated_frame_rejected(self):
        frame = pickle_frame(("ping",))
        with pytest.raises(FrameProtocolError, match="length prefix"):
            unpickle_frame(frame[:-1])

    def test_short_frame_rejected(self):
        with pytest.raises(FrameProtocolError, match="shorter than"):
            unpickle_frame(b"\x00\x01")

    def test_corrupted_prefix_rejected(self):
        frame = pickle_frame(("ping",))
        with pytest.raises(FrameProtocolError, match="length prefix"):
            unpickle_frame(b"\xff\xff\xff\xff" + frame[4:])

    def test_garbage_body_rejected(self):
        body = b"not a pickle"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameProtocolError, match="unpickle"):
            unpickle_frame(frame)

    def test_unpicklable_message_rejected(self):
        with pytest.raises(FrameProtocolError, match="not picklable"):
            pickle_frame(("call", lambda: None))

    def test_channel_counts_frames_and_bytes(self):
        import multiprocessing

        left, right = multiprocessing.Pipe()
        a, b = FrameChannel(left), FrameChannel(right)
        a.send(("ping", 123))
        assert b.recv() == ("ping", 123)
        assert a.frames_sent == 1 and a.bytes_sent > 4
        assert b.frames_received == 1 and b.bytes_received == a.bytes_sent
        b.close()
        with pytest.raises(WorkerDied):
            a.send(("ping",))
        a.close()


# ---------------------------------------------------------------- placement
class TestPlacement:
    def _handles(self, count):
        engine, handles = reference_engine(
            [(QUERIES[0][0], 10)] * 1
        )
        # Synthetic handles are enough for placement (only .id matters).
        from repro.multi.registry import QueryHandle

        return [QueryHandle(i, f"q{i}", 10) for i in range(count)]

    def test_hash_placement_deterministic_and_in_range(self):
        policy = HashPlacement()
        for handle in self._handles(64):
            index = policy.assign(handle, 4, [0, 0, 0, 0])
            assert 0 <= index < 4
            assert index == policy.assign(handle, 4, [99, 0, 0, 0])

    def test_hash_placement_spreads_consecutive_ids(self):
        policy = HashPlacement()
        hit = {policy.assign(handle, 4, [0] * 4) for handle in self._handles(64)}
        assert hit == {0, 1, 2, 3}

    def test_round_robin_cycles(self):
        policy = RoundRobinPlacement()
        assigned = [policy.assign(h, 3, [0] * 3) for h in self._handles(7)]
        assert assigned == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_picks_min_breaking_ties_low(self):
        policy = LeastLoadedPlacement()
        (handle,) = self._handles(1)
        assert policy.assign(handle, 3, [2, 1, 1]) == 1
        assert policy.assign(handle, 3, [0, 0, 0]) == 0

    def test_out_of_range_placement_rejected(self):
        class Bad(PlacementPolicy):
            def assign(self, handle, shards, loads):
                return shards  # one past the end

        with ShardedEngine(2, start_method="inline", placement=Bad()) as engine:
            with pytest.raises(ValueError, match="placed"):
                engine.register(parse_query(QUERIES[0][0]), window=5)
            assert engine.handles() == []  # registry rolled back


# ------------------------------------------------- extract / adopt (multi)
class TestLaneSubsetSnapshots:
    def _pair(self, stream_length=60, seed=5):
        source, s_handles = reference_engine()
        target, t_handles = reference_engine(QUERIES[:2])
        stream = sigma0_stream(stream_length, seed)
        for engine in (source, target):
            engine.process_many(stream)
        return source, s_handles, target, t_handles, stream

    def test_extract_is_non_destructive(self):
        source, handles, _, _, _ = self._pair()
        before = source.hash_table_size()
        partial = source.extract_queries(handles[1:3])
        assert source.hash_table_size() == before
        assert partial["kind"] == PARTIAL_SNAPSHOT_KIND
        assert partial["snapshot_version"] == SNAPSHOT_VERSION
        assert len(partial["lanes"]) == 2

    def test_migration_continues_bit_identically(self):
        reference, ref_handles = reference_engine()
        moved = QUERIES[1]
        left, l_handles = reference_engine()
        right = MultiQueryEngine()
        stream = sigma0_stream(120, seed=9)
        ref_out = [reference.process_many(stream[:60]), reference.process_many(stream[60:])]
        left.process_many(stream[:60])
        right.process_many(stream[:60])
        # Move QUERIES[1] from left to right at position 59.
        partial = left.extract_queries([l_handles[1]])
        left.unregister(l_handles[1])
        r_handle = right.register(parse_query(moved[0]), window=moved[1])
        right.adopt_queries(partial, [r_handle])
        l_tail = left.process_many(stream[60:])
        r_tail = right.process_many(stream[60:])
        want = [out.get(ref_handles[1].id, []) for out in ref_out[1]]
        got = [out.get(r_handle.id, []) for out in r_tail]
        assert [sorted(map(str, v)) for v in got] == [sorted(map(str, v)) for v in want]
        # The queries left behind are untouched by the extraction.
        for keep in (0, 2, 3):
            want = [out.get(ref_handles[keep].id, []) for out in ref_out[1]]
            got = [out.get(l_handles[keep].id, []) for out in l_tail]
            assert [sorted(map(str, v)) for v in got] == [
                sorted(map(str, v)) for v in want
            ]

    def test_adopt_rejects_position_mismatch(self):
        source, s_handles, target, t_handles, stream = self._pair()
        target.process_many(sigma0_stream(5, seed=99))
        partial = source.extract_queries([s_handles[3]])
        handle = target.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
        with pytest.raises(SnapshotError, match="position"):
            target.adopt_queries(partial, [handle])

    def test_adopt_rejects_wrong_handle_count(self):
        source, s_handles, target, t_handles, _ = self._pair()
        partial = source.extract_queries([s_handles[2], s_handles[3]])
        handle = target.register(parse_query(QUERIES[2][0]), window=QUERIES[2][1])
        with pytest.raises(SnapshotError, match="2"):
            target.adopt_queries(partial, [handle])

    def test_adopt_rejects_window_mismatch(self):
        source, s_handles, target, _, _ = self._pair()
        partial = source.extract_queries([s_handles[3]])
        handle = target.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1] + 1)
        with pytest.raises(SnapshotError, match="window"):
            target.adopt_queries(partial, [handle])

    def test_adopt_rejects_different_query(self):
        source, s_handles, target, _, _ = self._pair()
        partial = source.extract_queries([s_handles[0]])
        # Same window as QUERIES[0], structurally different query.
        handle = target.register(parse_query(QUERIES[1][0]), window=QUERIES[0][1])
        with pytest.raises(SnapshotError, match="signature|query"):
            target.adopt_queries(partial, [handle])

    def test_adopt_rejects_full_snapshot(self):
        source, s_handles, target, _, _ = self._pair()
        handle = target.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
        with pytest.raises(SnapshotError, match=PARTIAL_SNAPSHOT_KIND):
            target.adopt_queries(source.snapshot(), [handle])

    def test_extract_rejects_stale_handle(self):
        source, s_handles, _, _, _ = self._pair()
        source.unregister(s_handles[2])
        with pytest.raises(KeyError):
            source.extract_queries([s_handles[2]])


# ------------------------------------------------------------- differentials
class TestShardedDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_inline_matches_single_engine(self, workers):
        reference, _ = reference_engine()
        stream = sigma0_stream(150, seed=workers)
        with sharded_engine(workers)[0] as sharded:
            assert canonical(run_batches(sharded, stream)) == canonical(
                run_batches(reference, stream)
            )
            assert sharded.position == reference.position

    @settings(max_examples=25, deadline=None)
    @given(stream=streams_strategy(SIGMA0, max_length=24))
    def test_inline_hypothesis_streams(self, stream):
        reference, _ = reference_engine(QUERIES[:2])
        with sharded_engine(2, QUERIES[:2])[0] as sharded:
            assert canonical(run_batches(sharded, stream, batch_size=7)) == canonical(
                run_batches(reference, stream, batch_size=7)
            )

    def test_single_tuple_process(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(40, seed=11)
        with sharded_engine(2)[0] as sharded:
            for event in stream:
                want = reference.process(event)
                got = sharded.process(event)
                assert canonical([got]) == canonical([want])

    def test_fork_processes_match_single_engine(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(150, seed=21)
        with sharded_engine(2, start_method="fork")[0] as sharded:
            assert canonical(run_batches(sharded, stream)) == canonical(
                run_batches(reference, stream)
            )

    def test_spawn_processes_match_single_engine(self):
        # The spawn-safety satellite: children import repro fresh, nothing
        # is inherited from this process.
        reference, _ = reference_engine(QUERIES[:2])
        stream = sigma0_stream(60, seed=31)
        with sharded_engine(2, QUERIES[:2], start_method="spawn")[0] as sharded:
            assert canonical(run_batches(sharded, stream, batch_size=30)) == canonical(
                run_batches(reference, stream, batch_size=30)
            )

    def test_register_and_unregister_mid_stream(self):
        reference, ref_handles = reference_engine(QUERIES[:3])
        stream = sigma0_stream(120, seed=41)
        with sharded_engine(2, QUERIES[:3])[0] as sharded:
            a = run_batches(sharded, stream[:60])
            b = run_batches(reference, stream[:60])
            sharded.unregister(sharded.handles()[1])
            reference.unregister(ref_handles[1])
            h_new = sharded.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
            r_new = reference.register(parse_query(QUERIES[3][0]), window=QUERIES[3][1])
            assert h_new.id == r_new.id  # same global id allocation
            a += run_batches(sharded, stream[60:])
            b += run_batches(reference, stream[60:])
            assert canonical(a) == canonical(b)

    def test_double_unregister_rejected(self):
        with sharded_engine(2)[0] as sharded:
            handle = sharded.handles()[0]
            sharded.unregister(handle)
            with pytest.raises(KeyError):
                sharded.unregister(handle)

    def test_unknown_command_is_error_reply_not_crash(self):
        worker = ShardWorker()
        with pytest.raises(ValueError, match="unknown shard command"):
            worker.handle(("made_up",))


# --------------------------------------------------------------- rebalancing
class TestRebalance:
    def test_rebalance_mid_stream_is_lossless(self):
        reference, ref_handles = reference_engine()
        stream = sigma0_stream(200, seed=51)
        with sharded_engine(3)[0] as sharded:
            handles = sharded.handles()
            moves = iter([(handles[0], 2), (handles[2], 0), (handles[0], 1)])

            def hook(position):
                move = next(moves, None)
                if move is not None:
                    sharded.rebalance(*move)

            got = run_batches(sharded, stream, batch_size=40, hook=hook)
            want = run_batches(reference, stream, batch_size=40)
            assert canonical(got) == canonical(want)
            assert sharded.rebalances == 3

    def test_rebalance_to_same_shard_is_noop(self):
        with sharded_engine(2)[0] as sharded:
            handle = sharded.handles()[0]
            source = sharded.assignment()[handle.id]
            sharded.rebalance(handle, source)
            assert sharded.rebalances == 0

    def test_rebalance_stale_handle_rejected(self):
        with sharded_engine(2)[0] as sharded:
            handle = sharded.handles()[0]
            sharded.unregister(handle)
            with pytest.raises(KeyError):
                sharded.rebalance(handle, 1)

    def test_rebalance_bad_target_rejected(self):
        with sharded_engine(2)[0] as sharded:
            with pytest.raises(ValueError, match="out of range"):
                sharded.rebalance(sharded.handles()[0], 5)

    def test_rebalance_updates_assignment_and_rosters(self):
        with sharded_engine(2)[0] as sharded:
            handle = sharded.handles()[0]
            source = sharded.assignment()[handle.id]
            target = 1 - source
            sharded.rebalance(handle, target)
            assert sharded.assignment()[handle.id] == target
            observed = sharded.observe()["shard"]["per_shard"]
            assert observed[target]["queries"] == sum(
                1 for s in sharded.assignment().values() if s == target
            )


# ------------------------------------------------------------------ recovery
class TestRecovery:
    def test_inline_death_with_checkpoints(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(200, seed=61)
        with sharded_engine(3, checkpoint_interval=50)[0] as sharded:
            killed = []

            def hook(position):
                if not killed and position >= 80:
                    sharded._shards[1].channel.dead = True
                    killed.append(position)

            got = run_batches(sharded, stream, batch_size=40, hook=hook)
            want = run_batches(reference, stream, batch_size=40)
            assert canonical(got) == canonical(want)
            assert sharded.recoveries == 1
            assert sharded.checkpoints_taken >= 2

    def test_inline_death_without_any_checkpoint(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(120, seed=71)
        with sharded_engine(2)[0] as sharded:
            done = []

            def hook(position):
                if not done:
                    sharded._shards[0].channel.dead = True
                    done.append(True)

            got = run_batches(sharded, stream, batch_size=30, hook=hook)
            want = run_batches(reference, stream, batch_size=30)
            assert canonical(got) == canonical(want)
            assert sharded.recoveries == 1

    def test_sigkilled_fork_worker_recovers_exactly(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(160, seed=81)
        with sharded_engine(
            2, start_method="fork", checkpoint_interval=60
        )[0] as sharded:
            killed = []

            def hook(position):
                if not killed and position >= 80:
                    sharded._shards[1].process.kill()
                    sharded._shards[1].process.join()
                    killed.append(position)

            got = run_batches(sharded, stream, batch_size=40, hook=hook)
            want = run_batches(reference, stream, batch_size=40)
            assert canonical(got) == canonical(want)
            assert sharded.recoveries == 1

    def test_death_after_rebalance_replays_the_move(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(160, seed=91)
        with sharded_engine(2, checkpoint_interval=60)[0] as sharded:
            handle = sharded.handles()[0]
            steps = iter(range(100))

            def hook(position):
                step = next(steps)
                if step == 0:
                    target = 1 - sharded.assignment()[handle.id]
                    sharded.rebalance(handle, target)
                elif step == 1:
                    # Kill the shard that adopted the moved query: replay
                    # must re-apply the adopt from the command log.
                    sharded._shards[sharded.assignment()[handle.id]].channel.dead = True

            got = run_batches(sharded, stream, batch_size=40, hook=hook)
            want = run_batches(reference, stream, batch_size=40)
            assert canonical(got) == canonical(want)
            assert sharded.recoveries == 1 and sharded.rebalances == 1


# ------------------------------------------------------------------ surfaces
class TestSurfaces:
    def test_observe_shape_and_shard_section(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(80, seed=3)
        with sharded_engine(2)[0] as sharded:
            run_batches(sharded, stream)
            run_batches(reference, stream)
            observed = sharded.observe()
            for key in ("position", "hash_entries", "evicted", "stats", "dispatch",
                        "fanout", "memory", "kernel", "shard"):
                assert key in observed
            assert observed["position"] == reference.position
            assert observed["hash_entries"] == reference.hash_table_size()
            assert observed["evicted"] == reference.evicted
            shard = observed["shard"]
            assert shard["workers"] == 2
            assert shard["batches"] == len(range(0, 80, 16))
            assert shard["frames_sent"] > 0 and shard["bytes_sent"] > 0
            assert len(shard["per_shard"]) == 2
            # Aggregated stats equal the single engine's work counters.
            ref_observed = reference.observe()
            for field in ("transitions_fired", "hash_updates", "outputs_enumerated",
                          "tuples_processed"):
                assert observed["stats"][field] == ref_observed["stats"][field]

    def test_shard_counters_sit_beside_the_standard_sections(self):
        with sharded_engine(2)[0] as sharded:
            run_batches(sharded, sigma0_stream(40, seed=4))
            observed = sharded.observe()
            shard = observed["shard"]
            assert (shard["workers"], shard["batches"]) == (2, 3)
            assert "fan_in_matches" in shard and "rebalances" in shard
            assert observed["hash_entries"] == sharded.hash_table_size()
            assert observed["memory"] == sharded.memory_info()
            assert observed["kernel"] == sharded.kernel_info()

    def test_stats_property_aggregates(self):
        reference, _ = reference_engine()
        stream = sigma0_stream(60, seed=6)
        with sharded_engine(3)[0] as sharded:
            run_batches(sharded, stream)
            run_batches(reference, stream)
            assert sharded.stats.tuples_processed == reference.stats.tuples_processed
            assert sharded.stats.transitions_fired == reference.stats.transitions_fired
            assert sharded.hash_table_size() == reference.hash_table_size()
            assert sharded.evicted == reference.evicted

    def test_observer_counts_shard_batches_and_rebalances(self):
        from repro.obs import Observer

        observer = Observer()
        with sharded_engine(2)[0] as sharded:
            sharded.attach_observer(observer)
            run_batches(sharded, sigma0_stream(40, seed=7))
            handle = sharded.handles()[0]
            sharded.rebalance(handle, 1 - sharded.assignment()[handle.id])
            collected = observer.collect()
            assert collected["repro_shard_batches_total"] == 3
            assert collected["repro_shard_rebalances_total"] == 1
            assert collected["repro_shard_workers"] == 2
            sharded.detach_observer()

    def test_worker_module_has_main_guard(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.shard.worker"],
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0
        assert "multiprocessing entry point" in result.stderr


# ------------------------------------------------------------------ CLI
class TestCli:
    EVENTS = "".join(
        f"{event.relation},{','.join(map(str, event.values))}\n"
        for event in sigma0_stream(200, seed=12)
    )

    def _run(self, argv):
        from repro.cli import read_events

        parser = build_multi_parser()
        args = parser.parse_args(argv)
        output = io.StringIO()
        code = run_multi(args, list(read_events(self.EVENTS.splitlines())), output)
        return code, output.getvalue()

    BASE = [
        "--query", QUERIES[0][0], "--query", QUERIES[1][0],
        "--window", "6", "--window", "4",
    ]

    def test_workers_output_matches_single_process(self):
        code_single, out_single = self._run(self.BASE + ["--batch-size", "32"])
        code_sharded, out_sharded = self._run(
            self.BASE + ["--workers", "2", "--start-method", "inline", "--stats"]
        )
        assert code_single == 0 and code_sharded == 0
        single = sorted(l for l in out_single.splitlines() if not l.startswith("#"))
        sharded = sorted(l for l in out_sharded.splitlines() if not l.startswith("#"))
        assert single == sharded
        assert any(l.startswith("# shard: workers=2") for l in out_sharded.splitlines())

    def test_workers_rejects_no_arena(self):
        code, _ = self._run(self.BASE + ["--workers", "2", "--no-arena"])
        assert code == 2

    def test_workers_rejects_checkpoint_flags(self):
        code, _ = self._run(self.BASE + ["--workers", "2", "--checkpoint", "/tmp/x"])
        assert code == 2
        code, _ = self._run(self.BASE + ["--workers", "2", "--restore", "/tmp/x"])
        assert code == 2

    def test_workers_rejects_trace(self):
        code, _ = self._run(self.BASE + ["--workers", "2", "--trace", "/tmp/x.jsonl"])
        assert code == 2
