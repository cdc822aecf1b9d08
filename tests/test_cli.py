"""Tests for the command-line interface (repro.cli)."""

import io
import random
from pathlib import Path

import pytest

from repro.cli import build_parser, format_match, main, parse_event_line, read_events, run
from repro.cq.schema import Tuple
from repro.runtime import SNAPSHOT_VERSION
from repro.runtime import snapshot as checkpointing
from repro.valuation import Valuation


EVENTS_CSV = """\
# symbol price events
S,2,11
T,2
R,1,10
S,2,11
T,1
R,2,11
"""


def seeded_events(count=400, seed=30):
    """A fixed T/S/R stream over the domain {0, 1, 2} (``random.random`` only,
    which is reproducible across Python versions)."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        relation = "TSR"[int(rng.random() * 3)]
        if relation == "T":
            lines.append(f"T,{int(rng.random() * 3)}")
        else:
            lines.append(f"{relation},{int(rng.random() * 3)},{int(rng.random() * 3)}")
    return list(read_events(lines))


class TestEventParsing:
    def test_parse_simple_line(self):
        assert parse_event_line("S,2,11") == Tuple("S", (2, 11))

    def test_parse_string_values(self):
        assert parse_event_line("News,acme,up") == Tuple("News", ("acme", "up"))

    def test_blank_and_comment_lines_skipped(self):
        assert parse_event_line("") is None
        assert parse_event_line("   ") is None
        assert parse_event_line("# comment") is None

    def test_custom_separator(self):
        assert parse_event_line("S;1;2", separator=";") == Tuple("S", (1, 2))

    def test_missing_relation_raises(self):
        with pytest.raises(ValueError):
            parse_event_line(",1,2")

    def test_read_events(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        assert len(events) == 6
        assert events[0] == Tuple("S", (2, 11))


class TestFormatting:
    def test_format_match(self):
        valuation = Valuation({0: {1}, 1: {3}, 2: {5}})
        assert format_match(5, valuation) == "5\t0=1,1=3,2=5"


class TestRun:
    def _run(self, argv, events):
        parser = build_parser()
        args = parser.parse_args(argv)
        output = io.StringIO()
        code = run(args, events, output)
        return code, output.getvalue()

    def test_end_to_end_matches(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"], events
        )
        assert code == 0
        lines = [line for line in output.splitlines() if not line.startswith("#")]
        assert len(lines) == 2  # the two matches at position 5
        assert all(line.startswith("5\t") for line in lines)
        assert "matches=2" in output

    def test_quiet_mode(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--quiet"], events
        )
        assert code == 0
        assert output.count("\n") == 1  # only the summary line

    def test_limit(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--limit", "3"], events
        )
        assert code == 0
        assert "events=3" in output
        assert "matches=0" in output

    def test_rejects_unparsable_query(self):
        code, _ = self._run(["--query", "not a query"], [])
        assert code == 2

    def test_rejects_non_hierarchical_query(self):
        code, _ = self._run(["--query", "Q(x, y) <- A(x), B(y), C(x, y)"], [])
        assert code == 2

    @pytest.mark.parametrize("subcommand", [[], ["multi"]], ids=["single", "multi"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_malformed_lines_are_skipped_counted_and_reported(
        self, subcommand, source, tmp_path, capsys, monkeypatch
    ):
        text = "T,1\n,,\nS,1,2\n,x\nR,1,2\n"
        argv = [*subcommand, "--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"]
        if source == "file":
            path = tmp_path / "events.csv"
            path.write_text(text)
            argv.append(str(path))
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "events=3 " in captured.out and "matches=1 " in captured.out
        assert captured.out.rstrip().endswith("parse_errors=2")
        # only the first malformed line is named, with its line number
        assert captured.err.count("\n") == 1
        assert "line 2" in captured.err and "without a relation name" in captured.err

    def test_clean_input_reports_zero_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(EVENTS_CSV)
        assert main(["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", str(path)]) == 0
        captured = capsys.readouterr()
        assert "parse_errors=0" in captured.out and captured.err == ""

    def test_main_with_file(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(EVENTS_CSV)
        code = main(["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "matches=2" in captured.out

    def test_stats_prints_memory_section(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100", "--stats"],
            events,
        )
        assert code == 0
        assert "arena_slabs=" in output
        assert "arena_live_nodes=" in output
        assert "arena_released=" in output

    def test_general_mode_matches_hashed_engine(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        argv = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"]
        _, hashed_output = self._run(argv, events)
        code, general_output = self._run(argv + ["--general"], events)
        assert code == 0
        hashed_matches = [l for l in hashed_output.splitlines() if not l.startswith("#")]
        general_matches = [l for l in general_output.splitlines() if not l.startswith("#")]
        assert sorted(general_matches) == sorted(hashed_matches)

    def test_general_mode_books_predicates_as_single_mode_does(self):
        """On the CI cross-mode smoke stream, ``--general`` reports the
        single mode's predicate counters — one evaluation per predicate group,
        the other candidates as cache hits — and the fields that do not
        depend on how runs are joined; ``lookups`` / ``updates`` / ``unions``
        and the sweep counters differ by algorithm."""
        rng = random.Random(17)
        lines = []
        for _ in range(400):
            relation = rng.choice(["T", "S", "R"])
            if relation == "T":
                lines.append(f"T,{rng.randrange(3)}")
            else:
                lines.append(f"{relation},{rng.randrange(3)},{rng.randrange(3)}")
        events = list(read_events(lines))
        argv = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "50", "--stats"]
        _, single = self._run(argv, events)
        code, general = self._run(argv + ["--general"], events)
        assert code == 0

        def compared(output):
            counters = dict(field.split("=") for field in output.splitlines()[-4].lstrip("# ").split())
            fields = ("scanned", "pred_evals", "pred_cache_hits", "fired", "nodes", "outputs")
            return {name: counters[name] for name in fields}, output.splitlines()[-3], output.splitlines()[-1]

        assert compared(general) == compared(single)
        assert (compared(single)[0]["pred_evals"], compared(single)[0]["pred_cache_hits"]) == ("400", "674")

    def test_stats_report_shape_identical_across_modes(self):
        """The --stats keys are the same in single, general, and multi mode."""
        from repro.cli import build_multi_parser, run_multi

        def stat_keys(output):
            lines = [l for l in output.splitlines() if l.startswith("#")]
            # Drop the summary line (mode-specific); keep the counter,
            # dispatch, memory and kernel stat lines.
            report = lines[1:]
            return [
                [field.split("=")[0] for field in line.replace("# ", "").split()]
                for line in report
            ]

        events = list(read_events(EVENTS_CSV.splitlines()))
        argv = [
            "--query", "Q(x, y) <- T(x), S(x, y), R(x, y)",
            "--window", "100", "--stats", "--quiet",
        ]
        _, single = self._run(argv, events)
        _, general = self._run(argv + ["--general"], events)
        multi_parser = build_multi_parser()
        multi_args = multi_parser.parse_args(argv)
        multi_output = io.StringIO()
        assert run_multi(multi_args, events, multi_output) == 0
        single_keys = stat_keys(single)
        assert len(single_keys) == 4
        assert stat_keys(general) == single_keys
        assert stat_keys(multi_output.getvalue()) == single_keys

    @pytest.mark.parametrize("batch_size", [1, 2, 100])
    def test_batched_ingestion_matches_per_event(self, batch_size):
        events = list(read_events(EVENTS_CSV.splitlines()))
        argv = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"]
        _, per_event = self._run(argv, events)
        code, batched = self._run(argv + ["--batch-size", str(batch_size)], events)
        assert code == 0
        per_event_matches = sorted(
            line for line in per_event.splitlines() if not line.startswith("#")
        )
        batched_matches = sorted(
            line for line in batched.splitlines() if not line.startswith("#")
        )
        assert batched_matches == per_event_matches
        assert f"batch_size={batch_size}" in batched


class TestRunMulti:
    def _run(self, argv, events):
        from repro.cli import build_multi_parser, run_multi

        parser = build_multi_parser()
        args = parser.parse_args(argv)
        output = io.StringIO()
        code = run_multi(args, events, output)
        return code, output.getvalue()

    QUERIES = [
        "--query", "Q(x, y) <- T(x), S(x, y), R(x, y)",
        "--query", "Q2(x, y) <- T(x), S(x, y)",
    ]

    def test_multi_end_to_end(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(self.QUERIES + ["--window", "100"], events)
        assert code == 0
        match_lines = [line for line in output.splitlines() if not line.startswith("#")]
        # Q has its two matches at position 5; Q2 matches at positions 1 and 3.
        assert sum(1 for line in match_lines if line.startswith("Q\t5\t")) == 2
        assert sum(1 for line in match_lines if line.startswith("Q2\t")) == 2
        assert "matches=4" in output and "queries=2" in output

    def test_multi_matches_single_engine_per_query(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, multi_output = self._run(self.QUERIES + ["--window", "100"], events)
        assert code == 0
        parser = build_parser()
        for name in ("Q", "Q2"):
            query = next(q for q in self.QUERIES if q.startswith(f"{name}("))
            args = parser.parse_args(["--query", query, "--window", "100"])
            single_output = io.StringIO()
            assert run(args, events, single_output) == 0
            single_matches = sorted(
                line
                for line in single_output.getvalue().splitlines()
                if not line.startswith("#")
            )
            multi_matches = sorted(
                line[len(name) + 1 :]
                for line in multi_output.splitlines()
                if line.startswith(f"{name}\t")
            )
            assert multi_matches == single_matches

    def test_multi_batched_and_stats(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            self.QUERIES + ["--window", "100", "--batch-size", "2", "--stats"], events
        )
        assert code == 0
        assert "matches=4" in output and "batch_size=2" in output
        assert "shared_predicate_groups=" in output and "pred_cache_hits=" in output

    def test_multi_stats_memory_section(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(self.QUERIES + ["--window", "100", "--stats"], events)
        assert code == 0
        assert "arena_slabs=" in output and "arena_live_nodes=" in output

    def test_multi_per_query_windows(self):
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            self.QUERIES + ["--window", "100", "--window", "1"], events
        )
        assert code == 0
        # Q2 needs span 2 at least once; window 1 kills one of its matches.
        assert "Q2=1" in output

    def test_multi_window_count_mismatch_rejected(self):
        code, _ = self._run(
            self.QUERIES + ["--window", "1", "--window", "2", "--window", "3"], []
        )
        assert code == 2

    def test_multi_rejects_bad_query(self):
        code, _ = self._run(["--query", "not a query"], [])
        assert code == 2

    def test_main_routes_multi_subcommand(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(EVENTS_CSV)
        code = main(["multi", *self.QUERIES, "--window", "100", str(path)])
        assert code == 0
        assert "queries=2" in capsys.readouterr().out

    def test_multi_refuses_two_queries_of_one_name(self, capsys):
        """Two queries named alike would print match lines no one could tell
        apart; the error names both ``--query`` arguments."""
        events = list(read_events(EVENTS_CSV.splitlines()))
        code, output = self._run(
            ["--query", "Q(x, y) <- T(x), S(x, y)", "--query", "Q(x) <- T(x)"], events
        )
        assert code == 2 and output == ""
        err = capsys.readouterr().err
        assert "'Q(x, y) <- T(x), S(x, y)'" in err and "'Q(x) <- T(x)'" in err

    def test_client_refuses_two_queries_of_one_name(self, capsys):
        """Refused before connecting: no server is listening on the port."""
        code = main(
            ["client", "--port", "1", "--query", "Q(x, y) <- T(x), S(x, y)",
             "--query", "Q(x) <- T(x)", "/dev/null"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'Q(x, y) <- T(x), S(x, y)'" in err and "'Q(x) <- T(x)'" in err

    def test_index_and_eviction_switches_are_gone(self, capsys):
        for option in ("--no-index", "--no-evict"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["--query", "Q(x) <- T(x)", option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["single", "multi", "serve"])
    def test_the_object_graph_switch_is_gone(self, subcommand, capsys):
        """``--no-arena`` is refused by argparse: the object-graph ``DS_w`` is
        the library's differential oracle (``arena=False``), not a CLI mode."""
        from repro.cli import build_multi_parser, build_serve_parser

        parser, argv = {
            "single": (build_parser(), ["--query", "Q(x) <- T(x)"]),
            "multi": (build_multi_parser(), self.QUERIES),
            "serve": (build_serve_parser(), []),
        }[subcommand]
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--no-arena"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-arena" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--workers", "2"], ["--start-method", "fork"]])
    @pytest.mark.parametrize("subcommand", ["multi", "serve"])
    def test_worker_options_are_rejected(self, subcommand, option, capsys):
        from repro.cli import build_multi_parser, build_serve_parser

        parser = build_multi_parser() if subcommand == "multi" else build_serve_parser()
        argv = self.QUERIES + option if subcommand == "multi" else option
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_offers_no_stats_interval(self, capsys):
        """The server's batch loop prints no ``# interval`` lines, so ``serve``
        refuses the flag rather than attach an observer that reports nothing."""
        from repro.cli import build_multi_parser, build_serve_parser

        with pytest.raises(SystemExit) as exc:
            build_serve_parser().parse_args(["--stats-interval", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stats-interval 5" in capsys.readouterr().err
        assert build_multi_parser().parse_args(self.QUERIES + ["--stats-interval", "5"]).stats_interval == 5


class TestCheckpointRestore:
    """CLI --checkpoint / --restore: split runs continue bit-identically."""

    QUERY = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"]

    def _run(self, argv, events):
        parser = build_parser()
        args = parser.parse_args(argv)
        output = io.StringIO()
        code = run(args, events, output)
        return code, output.getvalue()

    def _match_lines(self, output):
        return [line for line in output.splitlines() if not line.startswith("#")]

    def _stats_tail(self, output):
        return output.splitlines()[-3:]

    @pytest.mark.parametrize("mode", [[], ["--general"]])
    def test_split_run_matches_continuous(self, tmp_path, mode):
        events = list(read_events(EVENTS_CSV.splitlines())) * 3
        checkpoint = str(tmp_path / "ck.snap")
        code, continuous = self._run(self.QUERY + mode + ["--stats"], events)
        assert code == 0
        code, _ = self._run(
            self.QUERY + mode + ["--stats", "--checkpoint", checkpoint], events[:9]
        )
        assert code == 0
        code, resumed = self._run(
            self.QUERY + mode + ["--stats", "--restore", checkpoint], events[9:]
        )
        assert code == 0
        tail = self._match_lines(resumed)
        assert tail == self._match_lines(continuous)[-len(tail) :] if tail else True
        # The cumulative --stats tail (counters, dispatch, memory) is
        # restored state plus the second half — identical to one full run.
        assert self._stats_tail(resumed) == self._stats_tail(continuous)

    def test_a_single_checkpoint_restores_under_multi(self, tmp_path):
        """Single mode is ``multi`` with one query: its checkpoint restores
        under ``multi`` with the same query and window, which then prints the
        matches and the ``--stats`` block of one uninterrupted ``multi`` run."""
        from repro.cli import build_multi_parser, run_multi

        def run_multi_argv(argv, events):
            output = io.StringIO()
            return run_multi(build_multi_parser().parse_args(argv), events, output), output.getvalue()

        events = seeded_events()
        checkpoint = str(tmp_path / "single.snap")
        code, _ = self._run(self.QUERY + ["--stats", "--checkpoint", checkpoint], events[:200])
        assert code == 0
        code, continuous = run_multi_argv(self.QUERY + ["--stats"], events)
        assert code == 0
        code, resumed = run_multi_argv(self.QUERY + ["--stats", "--restore", checkpoint], events[200:])
        assert code == 0
        second_half = [
            line for line in self._match_lines(continuous) if int(line.split("\t")[1]) >= 200
        ]
        assert second_half and self._match_lines(resumed) == second_half
        assert resumed.splitlines()[-4:] == continuous.splitlines()[-4:]
        # ... and single mode's own --stats block is multi's.
        code, single = self._run(self.QUERY + ["--stats"], events)
        assert code == 0 and single.splitlines()[-4:] == continuous.splitlines()[-4:]

    def test_multi_split_run_matches_continuous(self, tmp_path):
        from repro.cli import build_multi_parser, run_multi

        def run_multi_argv(argv, events):
            args = build_multi_parser().parse_args(argv)
            output = io.StringIO()
            return run_multi(args, events, output), output.getvalue()

        queries = [
            "--query", "Q(x, y) <- T(x), S(x, y), R(x, y)",
            "--query", "Q2(x, y) <- T(x), S(x, y)",
            "--window", "100",
        ]
        events = list(read_events(EVENTS_CSV.splitlines())) * 3
        checkpoint = str(tmp_path / "mck.snap")
        code, continuous = run_multi_argv(queries + ["--stats"], events)
        assert code == 0
        code, _ = run_multi_argv(queries + ["--stats", "--checkpoint", checkpoint], events[:9])
        assert code == 0
        code, resumed = run_multi_argv(queries + ["--stats", "--restore", checkpoint], events[9:])
        assert code == 0
        tail = self._match_lines(resumed)
        assert tail == self._match_lines(continuous)[-len(tail) :] if tail else True
        assert self._stats_tail(resumed) == self._stats_tail(continuous)

    def test_a_pinned_general_checkpoint_continues_the_stream(self):
        """``general_v4.snap`` was written by ``--general --checkpoint`` of the
        build whose general engine kept its runs in ring buffers, over the
        first 200 of :func:`seeded_events`.  Restoring it and running the
        other 200 prints the matches and the ``--stats`` block of one
        uninterrupted run — but for the predicate counters.  That build
        booked every plan member as a predicate evaluation (538 over the
        first 200 events, no cache hits); the engine now books one per
        predicate group, as the hashed engine does: 200 evaluations and 329
        cache hits over the other 200."""
        events = seeded_events()
        argv = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "50", "--general", "--stats"]
        code, continuous = self._run(argv, events)
        assert code == 0
        path = Path(__file__).parent / "data" / "general_v4.snap"
        stored = checkpointing.load(str(path))["runtime"]["stats"]
        assert (stored["predicate_evaluations"], stored["predicate_cache_hits"]) == (538, 0)
        code, resumed = self._run(argv + ["--restore", str(path)], events[200:])
        assert code == 0
        second_half = [
            line for line in self._match_lines(continuous) if int(line.split("\t")[0]) >= 200
        ]
        assert second_half and self._match_lines(resumed) == second_half
        assert resumed.splitlines()[-3:] == continuous.splitlines()[-3:]

        def counters(output):
            return dict(field.split("=") for field in output.splitlines()[-4].lstrip("# ").split())

        resumed_counters, continuous_counters = counters(resumed), counters(continuous)
        assert (resumed_counters.pop("pred_evals"), resumed_counters.pop("pred_cache_hits")) == (
            str(538 + 200),
            str(0 + 329),
        )
        assert (continuous_counters.pop("pred_evals"), continuous_counters.pop("pred_cache_hits")) == (
            "400",
            "667",
        )
        assert resumed_counters == continuous_counters

    def test_restore_with_wrong_query_fails_cleanly(self, tmp_path, capsys):
        events = list(read_events(EVENTS_CSV.splitlines()))
        checkpoint = str(tmp_path / "ck.snap")
        code, _ = self._run(self.QUERY + ["--checkpoint", checkpoint], events)
        assert code == 0
        code, _ = self._run(
            ["--query", "Q2(x, y) <- S(x, y), R(x, y)", "--window", "100",
             "--restore", checkpoint],
            events,
        )
        assert code == 2

    def test_restore_missing_file_fails_cleanly(self):
        code, _ = self._run(self.QUERY + ["--restore", "/nonexistent/ck.snap"], [])
        assert code == 2


class TestCheckpointRobustness:
    QUERY = ["--query", "Q(x, y) <- T(x), S(x, y), R(x, y)", "--window", "100"]

    def _run(self, argv, events):
        parser = build_parser()
        args = parser.parse_args(argv)
        output = io.StringIO()
        code = run(args, events, output)
        return code, output.getvalue()

    def test_malformed_checkpoint_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "ck.snap"
        path.write_text('{"snapshot_version": %d, "engine": "streaming"}\n' % SNAPSHOT_VERSION)
        code, _ = self._run(self.QUERY + ["--restore", str(path)], [])
        assert code == 2
        path.write_text("not json at all\n")
        code, _ = self._run(self.QUERY + ["--restore", str(path)], [])
        assert code == 2

    def test_a_streaming_checkpoint_is_refused_by_name(self, tmp_path, capsys):
        """A version-4 tree of the single-query engine's retired ``streaming``
        kind: its runs cannot be placed, so it is refused by name."""
        path = tmp_path / "ck.snap"
        checkpointing.save(str(path), {"snapshot_version": SNAPSHOT_VERSION, "engine": "streaming",
                                       "window": 100, "evict": True, "lane": {}, "runtime": {}})
        code, _ = self._run(self.QUERY + ["--restore", str(path)], [])
        assert code == 2
        assert "'streaming' engine" in capsys.readouterr().err

    def test_a_version_three_checkpoint_is_refused_by_name(self, capsys):
        """``checkpoint_v3.json`` was written by ``--checkpoint`` of a build
        whose snapshots were tagged-JSON text (snapshot version 3)."""
        seen = []

        def events():
            for tup in read_events(EVENTS_CSV.splitlines()):
                seen.append(tup)
                yield tup

        path = Path(__file__).parent / "data" / "checkpoint_v3.json"
        code, _ = self._run(self.QUERY + ["--restore", str(path)], events())
        assert code == 2
        assert seen == []  # refused before any event was read
        err = capsys.readouterr().err
        assert "snapshot version 3" in err and f"snapshot version {SNAPSHOT_VERSION}" in err
