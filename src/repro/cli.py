"""Command-line interface: evaluate hierarchical CQs over a CSV event stream.

The CLI is a thin veneer over the library, intended for quick experiments::

    repro-cer --query "Q(x, y) <- T(x), S(x, y), R(x, y)" --window 100 events.csv
    python -m repro.cli --query "..." --window 50 --limit 10000 events.csv
    python -m repro.cli multi --query "Q1(x) <- A(x), B(x)" \\
        --query "Q2(x, y) <- A(x), C(x, y)" --window 100 events.csv

The ``multi`` subcommand registers every ``--query`` with the shared
:class:`~repro.multi.engine.MultiQueryEngine` (one dispatch lookup and one
predicate evaluation per structurally distinct predicate per event, instead of
one engine per query); matches are prefixed with the query name, and two
queries may not share a name.  The single-query mode is ``multi`` with one
query and no name column: the same engine, drive loop, ``--stats`` block and
checkpoints.  All modes accept ``--batch-size`` to feed events through the batched ``process_many``
ingestion path and ``--stats`` to print an identical
three-line report — unified operation counters, dispatch-index summary, and a
memory section (``arena_slabs`` / ``arena_live_nodes`` / ``arena_released``)
mirroring ``hash_entries``/``evicted`` — regardless of the engine mode.

Checkpointing: ``--checkpoint PATH`` writes the engine's complete evaluation
state (the cross-layer snapshot of :mod:`repro.runtime.snapshot`, one binary
wire-codec frame) after the run's events are consumed; ``--restore PATH`` loads such a
checkpoint before processing, so a stream can be split across invocations —
or processes — with outputs, positions, and ``--stats`` counters
bit-identical to one uninterrupted run.  The restoring invocation must pass
the same ``--query`` (same queries in the same order for ``multi``) and
window; mismatches are rejected through the snapshot's per-query digests
(since snapshot version 5), which do not depend on ``PYTHONHASHSEED``.

Observability: every mode accepts ``--metrics-file PATH`` (Prometheus text
exposition of the run's counters, gauges and latency histograms),
``--trace PATH`` (ring-buffered structured spans — Chrome ``trace_event``
JSON loadable in Perfetto, or JSON-lines with a ``.jsonl`` path; sampling
period via ``--trace-sample N``) and, in every mode but ``serve``,
``--stats-interval N`` (a ``# interval`` stats line every N events,
mid-stream).  All of them attach a
:class:`repro.obs.Observer`; without them the engine runs the plain
uninstrumented hot path.

Input format: one event per line, ``relation,value,value,...``.  Values are
parsed as integers when possible and kept as strings otherwise.  Matches are
printed one per line as ``position <TAB> atom0=pos,atom1=pos,...``; pass
``--quiet`` to print only the final summary (events, matches, wall-clock).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO

from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.cq.hierarchical import NotHierarchicalError, is_hierarchical
from repro.cq.query import parse_query
from repro.multi import MultiQueryEngine
from repro.cq.schema import Tuple
from repro.runtime import snapshot as checkpointing
from repro.valuation import Valuation


def _restore_engine(engine, path: str) -> bool:
    """Load the checkpoint at ``path`` into ``engine`` (False on failure).

    ``KeyError``/``TypeError`` cover hand-edited or truncated checkpoint
    files whose tree parses but is not a valid snapshot.
    """
    try:
        engine.restore(checkpointing.load(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot restore checkpoint {path}: {exc!r}", file=sys.stderr)
        return False
    return True


def _write_checkpoint(engine, path: str) -> bool:
    """Write ``engine``'s snapshot to ``path`` (False on failure)."""
    try:
        checkpointing.save(path, engine.snapshot())
    except (OSError, ValueError) as exc:
        print(f"error: cannot write checkpoint {path}: {exc}", file=sys.stderr)
        return False
    return True


def parse_event_line(line: str, separator: str = ",") -> Optional[Tuple]:
    """Parse one ``relation,value,...`` line into a tuple (``None`` for blanks/comments)."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = [part.strip() for part in line.split(separator)]
    relation, raw_values = parts[0], parts[1:]
    values = []
    for raw in raw_values:
        try:
            values.append(int(raw))
        except ValueError:
            values.append(raw)
    if not relation:
        raise ValueError(f"event line without a relation name: {line!r}")
    return Tuple(relation, tuple(values))


class read_events:  # noqa: N801 - called like the generator function it replaced
    """The events of an iterable of CSV lines, skipping blanks and comments.

    The one reader behind every subcommand.  A malformed line (no relation
    name) is skipped and counted in ``parse_errors`` — which the summary line
    reports — and the first one is named on stderr with its line number.
    """

    def __init__(self, lines: Iterable[str], separator: str = ",") -> None:
        self._events = self._parse(lines, separator)
        self.parse_errors = 0

    def _parse(self, lines: Iterable[str], separator: str) -> Iterator[Tuple]:
        for number, line in enumerate(lines, start=1):
            try:
                event = parse_event_line(line, separator)
            except ValueError as exc:
                if not self.parse_errors:
                    print(f"warning: line {number}: {exc}; skipping such lines", file=sys.stderr)
                self.parse_errors += 1
                continue
            if event is not None:
                yield event

    def load(self) -> "read_events":
        """Parse every line now (the source is about to be closed)."""
        self._events = iter(list(self._events))
        return self

    def __iter__(self) -> Iterator[Tuple]:
        return self._events


def _parse_errors(events: Iterable[Tuple]) -> str:
    """The summary line's ``parse_errors=`` field (0 for events not read from text)."""
    return f" parse_errors={getattr(events, 'parse_errors', 0)}"


def format_match(position: int, valuation: Valuation) -> str:
    """Render one match as ``position <TAB> label=pos,...`` (labels sorted)."""
    body = ",".join(
        f"{label}={min(positions)}"
        for label, positions in sorted(valuation.items(), key=lambda kv: str(kv[0]))
    )
    return f"{position}\t{body}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cer",
        description="Evaluate a hierarchical conjunctive query over a CSV event stream "
        "with the streaming PCEA engine (logarithmic update time, output-linear delay). "
        "The literal first argument 'multi' selects the multi-query subcommand "
        "(several --query patterns, one shared engine); for an event file actually "
        "named 'multi', pass it as './multi'.",
    )
    parser.add_argument(
        "--query",
        required=True,
        help='the query, e.g. "Q(x, y) <- T(x), S(x, y), R(x, y)"',
    )
    _add_engine_arguments(parser)
    _add_checkpoint_arguments(parser)
    return parser


def _add_engine_arguments(
    parser: argparse.ArgumentParser,
    *,
    stream: bool = True,
    engine: bool = True,
    per_query_windows: bool = False,
) -> None:
    """Every option two or more subcommands share, declared once.

    ``stream`` adds the event-source options (single, ``multi``, ``client``),
    ``engine`` the engine switches (single, ``multi``, ``serve``);
    ``per_query_windows`` makes ``--window`` repeatable (``args.windows``).
    """
    if stream:
        parser.add_argument(
            "stream",
            nargs="?",
            help="path to the CSV event file (defaults to standard input)",
        )
        if per_query_windows:
            parser.add_argument(
                "--window",
                type=int,
                action="append",
                dest="windows",
                metavar="W",
                help="sliding window size; give once for all queries or once per query "
                "(default 1000)",
            )
        else:
            parser.add_argument(
                "--window", type=int, default=1000, help="sliding window size (default 1000)"
            )
        parser.add_argument("--separator", default=",", help="value separator in the event file")
        parser.add_argument("--limit", type=int, default=None, help="stop after this many events")
        parser.add_argument(
            "--batch-size",
            type=int,
            default=0,
            metavar="N",
            help="events per process_many batch, or per ingest frame for 'client' "
            "(default %(default)s; 0 = per-event processing)",
        )
    parser.add_argument("--quiet", action="store_true", help="print only the final summary")
    if engine:
        parser.add_argument(
            "--kernel",
            choices=("auto", "python", "native"),
            default=None,
            help="record-operation backend for the arena hot path (default: the "
            "REPRO_KERNEL environment variable, then auto-detection of the "
            "optional native C kernel; --stats reports which backend ran)",
        )
        parser.add_argument(
            "--stats",
            action="store_true",
            help="also print the engine's operation counters, dispatch, memory and "
            "kernel lines after the summary",
        )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="after processing, write the engine's complete state to PATH "
        "(restore it with --restore to continue the stream bit-identically)",
    )
    parser.add_argument(
        "--restore",
        metavar="PATH",
        help="before processing, restore the engine state checkpointed at PATH "
        "(requires the same query/queries and window as the checkpointing run)",
    )
    _add_observability_arguments(parser)


def _add_observability_arguments(parser: argparse.ArgumentParser, interval: bool = True) -> None:
    """The ``repro.obs`` surfaces, identical on every engine mode; ``serve``
    takes no ``--stats-interval`` (``interval=False``): its batch loop prints
    no interval lines."""
    parser.add_argument(
        "--metrics-file",
        metavar="PATH",
        help="after processing, write the run's metrics (counters, gauges, "
        "latency histograms) to PATH in the Prometheus text format",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record structured spans (sampled tuples, sweeps, batches, "
        "checkpoint/restore) and write them to PATH — Chrome trace_event "
        "JSON loadable in Perfetto, or JSON-lines when PATH ends in .jsonl",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="time every Nth event (1 = every event; default 64); applies to "
        "the per-event latency histogram and the per-event trace spans",
    )
    if interval:
        parser.add_argument(
            "--stats-interval",
            type=int,
            default=0,
            metavar="N",
            help="print a '# interval ...' stats line every N events (mid-stream, "
            "not just at exit; includes sampled update percentiles when "
            "--metrics-file/--trace is active)",
        )


def _build_observer(args: argparse.Namespace):
    """The Observer the ``repro.obs`` flags ask for, or ``None`` when none
    was given; ``ValueError`` on a bad ``--trace-sample``.  The caller
    attaches it (the server does so itself).
    """
    metrics_file = getattr(args, "metrics_file", None)
    trace_path = getattr(args, "trace", None)
    interval = getattr(args, "stats_interval", 0) or 0
    sample = getattr(args, "trace_sample", None)
    if not metrics_file and not trace_path and not interval and sample is None:
        return None
    from repro.obs import DEFAULT_SAMPLE_EVERY, Observer, TraceRecorder

    recorder = (
        TraceRecorder(sample_every=sample if sample is not None else DEFAULT_SAMPLE_EVERY)
        if trace_path
        else None
    )
    return Observer(trace=recorder, sample_every=sample)


def _finish_observability(
    args: argparse.Namespace, observer, output: TextIO
) -> bool:
    """Write the ``--metrics-file`` / ``--trace`` exports (False on failure).

    Runs after ``--checkpoint`` so a checkpointing run's trace contains its
    checkpoint span.
    """
    if observer is None:
        return True
    ok = True
    metrics_file = getattr(args, "metrics_file", None)
    if metrics_file:
        try:
            observer.export_metrics(metrics_file)
        except OSError as exc:
            print(f"error: cannot write metrics file {metrics_file}: {exc}", file=sys.stderr)
            ok = False
        else:
            print(
                f"# metrics: wrote {metrics_file} ({len(observer.metrics)} series)",
                file=output,
            )
    trace_path = getattr(args, "trace", None)
    if trace_path:
        try:
            spans = observer.export_trace(trace_path)
        except OSError as exc:
            print(f"error: cannot write trace file {trace_path}: {exc}", file=sys.stderr)
            ok = False
        else:
            print(
                f"# trace: wrote {trace_path} ({spans} spans, "
                f"{observer.trace.dropped} dropped)",
                file=output,
            )
    return ok


def _emit_interval_stats(engine, observer, events_seen: int, start: float, output: TextIO) -> None:
    """One ``--stats-interval`` report line (and a gauge refresh, so the
    exported metrics carry a mid-stream time series, not just the exit state)."""
    elapsed = time.perf_counter() - start
    rate = events_seen / elapsed if elapsed > 0 else float("inf")
    line = (
        f"# interval events={events_seen} position={engine.position} "
        f"hash_entries={engine.hash_table_size()} evicted={engine.evicted} "
        f"events/s={rate:.0f}"
    )
    if observer is not None:
        observer.observe_engine(engine)
        hist = observer.metrics.histogram("repro_update_seconds")
        if hist.count:
            line += (
                f" update_p50={hist.quantile(0.5):.3g}"
                f" update_p99={hist.quantile(0.99):.3g}"
            )
    print(line, file=output)


def build_multi_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cer multi",
        description="Evaluate several hierarchical conjunctive queries over one CSV "
        "event stream with the shared multi-query engine (merged dispatch index, "
        "one predicate evaluation per shared group, per-query windows).",
    )
    parser.add_argument(
        "--query",
        action="append",
        required=True,
        dest="queries",
        metavar="QUERY",
        help="a query to register (repeatable), e.g. \"Q(x, y) <- T(x), S(x, y)\"",
    )
    _add_engine_arguments(parser, per_query_windows=True)
    _add_checkpoint_arguments(parser)
    return parser


def run(args: argparse.Namespace, events: Iterable[Tuple], output: TextIO) -> int:
    """Evaluate the query over the events, writing matches to ``output``.

    Single mode is ``multi`` with one query and no query-name column: the
    same engine, the same drive loop, the same checkpoints.
    """
    try:
        query = parse_query(args.query)
    except ValueError as exc:
        print(f"error: cannot parse query: {exc}", file=sys.stderr)
        return 2
    if not is_hierarchical(query):
        print(
            "error: the query is not hierarchical; only hierarchical conjunctive queries "
            "admit the constant-delay streaming evaluation of the paper",
            file=sys.stderr,
        )
        return 2
    try:
        pcea = hcq_to_pcea(query)
    except NotHierarchicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        engine = _multi_engine(args)
        queries = [(pcea, args.window, _query_names([args.query], [query])[0])]
    except ValueError as exc:
        # e.g. --kernel native on an installation without the built extension
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _drive(args, events, output, engine, queries, labelled=False)


def _multi_engine(args: argparse.Namespace) -> MultiQueryEngine:
    """The engine the single mode, ``multi`` and ``serve`` register into."""
    return MultiQueryEngine(collect_stats=args.stats, kernel=args.kernel)


def _query_names(texts: Sequence[str], parsed: Sequence) -> List[str]:
    """The name each ``--query`` registers under: its head name, else ``q<index>``.

    ``ValueError`` naming both ``--query`` arguments when two queries would
    share a name: their match lines could not be told apart.
    """
    names: List[str] = []
    for index, query in enumerate(parsed):
        name = query.name or f"q{index}"
        if name in names:
            raise ValueError(
                f"--query {texts[names.index(name)]!r} and --query {texts[index]!r} "
                f"are both named {name!r}; give each query its own name"
            )
        names.append(name)
    return names


def _drive(args, events, output: TextIO, engine, queries, labelled: bool) -> int:
    """The one drive loop behind the single mode and ``multi``.

    Registers ``queries`` (``(query, window, name)`` triples) with ``engine``,
    restores ``--restore``, feeds the events one by one or ``--batch-size`` at
    a time, prints every match — after its query's name when ``labelled`` —
    and the summary, then the ``--stats`` report, ``--checkpoint`` and the
    observability exports.
    """
    try:
        observer = _build_observer(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if observer is not None:
        # Attached before registration and restore so their index-patch and
        # restore spans land in the trace.
        engine.attach_observer(observer)
    try:
        for query, window, name in queries:
            engine.register(query, window=window, name=name)
    except (ValueError, NotHierarchicalError) as exc:
        print(f"error: cannot register query: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "restore", None) and not _restore_engine(engine, args.restore):
        return 2
    # After a restore the handle ids (the routing keys) are the checkpoint's.
    names = {handle.id: handle.name for handle in engine.handles()}
    matches = dict.fromkeys(names, 0)
    batch_size = getattr(args, "batch_size", 0) or 0
    interval = getattr(args, "stats_interval", 0) or 0
    next_report = interval if interval else None
    events_seen = 0
    start = time.perf_counter()

    def emit(position: int, outputs) -> None:
        for qid, valuations in outputs.items():
            matches[qid] += len(valuations)
            if not args.quiet:
                label = f"{names[qid]}\t" if labelled else ""
                for valuation in valuations:
                    print(f"{label}{format_match(position, valuation)}", file=output)

    if batch_size > 0:
        for batch in _batched(islice(events, args.limit), batch_size):
            events_seen += len(batch)
            base_position = engine.position + 1
            for offset, outputs in enumerate(engine.process_many(batch)):
                emit(base_position + offset, outputs)
            if next_report is not None and events_seen >= next_report:
                _emit_interval_stats(engine, observer, events_seen, start, output)
                while next_report <= events_seen:
                    next_report += interval
    else:
        for event in islice(events, args.limit):
            events_seen += 1
            emit(engine.position + 1, engine.process(event))
            if next_report is not None and events_seen >= next_report:
                _emit_interval_stats(engine, observer, events_seen, start, output)
                next_report += interval
    elapsed = time.perf_counter() - start
    rate = events_seen / elapsed if elapsed > 0 else float("inf")
    total = sum(matches.values())
    counted = f"matches={total}"
    if labelled:
        per_query = " ".join(f"{names[qid]}={matches[qid]}" for qid in sorted(matches))
        counted = f"queries={len(names)} {counted} ({per_query})"
    batched = f" batch_size={batch_size}" if batch_size > 0 else ""
    print(
        f"# events={events_seen} {counted} seconds={elapsed:.3f} events/s={rate:.0f} "
        f"hash_entries={engine.hash_table_size()} evicted={engine.evicted}{batched}"
        f"{_parse_errors(events)}",
        file=output,
    )
    if args.stats:
        _print_stats(engine, output)
    if getattr(args, "checkpoint", None) and not _write_checkpoint(engine, args.checkpoint):
        return 2
    if not _finish_observability(args, observer, output):
        return 2
    return 0


def _print_stats(engine, output: TextIO) -> None:
    """The ``--stats`` report, identical in shape across all three engine
    modes (single / multi): one unified-counter line, one
    dispatch-index line, one memory line, one kernel-backend line."""
    stats = engine.stats
    info = engine.dispatch_info()
    print(
        f"# scanned={stats.transitions_scanned} "
        f"pred_evals={stats.predicate_evaluations} "
        f"pred_cache_hits={stats.predicate_cache_hits} "
        f"fired={stats.transitions_fired} "
        f"lookups={stats.hash_lookups} updates={stats.hash_updates} "
        f"unions={stats.unions} nodes={stats.nodes_created} "
        f"outputs={stats.outputs_enumerated} "
        f"sweeps={stats.sweeps} sweep_evicted={stats.sweep_evicted}",
        file=output,
    )
    print(
        f"# dispatch: queries={info['queries']:.0f} "
        f"transitions={info['transitions']:.0f} "
        f"relations={info['relations']:.0f} "
        f"wildcards={info['wildcard_transitions']:.0f} "
        f"predicate_groups={info['predicate_groups']:.0f} "
        f"shared_predicate_groups={info['shared_predicate_groups']:.0f} "
        f"threshold_families={info['threshold_families']:.0f} "
        f"stores={info['stores']:.0f} "
        f"state_classes={info['state_classes']:.0f} "
        f"shared_state_classes={info['shared_state_classes']:.0f} "
        f"mean_candidates={info['mean_candidates']:.2f} "
        f"guarded={info['guarded_transitions']:.0f}",
        file=output,
    )
    print(_format_memory_line(engine.memory_info()), file=output)
    kernel = engine.kernel_info()
    print(
        f"# kernel: active={kernel['active']} "
        f"native_available={'yes' if kernel['native_available'] else 'no'} "
        f"backends={','.join(kernel['backends'])}",
        file=output,
    )


def _format_memory_line(memory: dict) -> str:
    """The ``--stats`` memory section (mirrors ``hash_entries``/``evicted``)."""
    return (
        f"# memory: arena_slabs={memory['slabs']} "
        f"arena_live_nodes={memory['live_nodes']} "
        f"arena_released={memory['released_nodes']} "
        f"nodes_created={memory['nodes_created']}"
    )


def _batched(events: Iterable[Tuple], size: int) -> Iterator[List[Tuple]]:
    batch: List[Tuple] = []
    for event in events:
        batch.append(event)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def run_multi(args: argparse.Namespace, events: Iterable[Tuple], output: TextIO) -> int:
    """Register every ``--query`` with a shared engine and evaluate the stream."""
    windows = args.windows or [1000]
    if len(windows) not in (1, len(args.queries)):
        print(
            f"error: give --window once (shared) or once per query "
            f"(got {len(windows)} windows for {len(args.queries)} queries)",
            file=sys.stderr,
        )
        return 2
    if len(windows) == 1:
        windows = windows * len(args.queries)
    try:
        names = _query_names(args.queries, [parse_query(query) for query in args.queries])
    except ValueError as exc:
        print(f"error: cannot register query: {exc}", file=sys.stderr)
        return 2
    try:
        engine = _multi_engine(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    queries = list(zip(args.queries, windows, names))
    return _drive(args, events, output, engine, queries, labelled=True)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cer serve",
        description="Serve an engine over TCP (repro.net): clients push tuple "
        "batches and subscribe to query matches over length-prefixed binary "
        "frames; the server coalesces everything buffered across all "
        "connections into adaptive engine batches with bounded queues in "
        "both directions (see the README's 'Serving over the network').",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (default loopback)")
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (default 0 = ephemeral, printed on start)"
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port number to PATH once listening (for scripts "
        "that start the server with --port 0)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=512,
        metavar="N",
        help="most tuples the driver coalesces into one engine batch / "
        "eviction sweep (default 512)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=8192,
        metavar="N",
        help="hard bound on queued-but-unprocessed tuples across all "
        "connections; past it the sender's socket stops being read "
        "(default 8192)",
    )
    parser.add_argument(
        "--max-outbox",
        type=int,
        default=1024,
        metavar="N",
        help="hard bound on match frames queued to one subscriber before the "
        "shedding policy applies (default 1024)",
    )
    parser.add_argument(
        "--shed-policy",
        choices=("disconnect", "drop"),
        default="disconnect",
        help="what happens to a subscriber whose outbox is full: disconnect "
        "it (default; a consumer that cannot keep up should not silently "
        "lose matches) or drop that match frame and keep the connection",
    )
    parser.add_argument(
        "--exit-after-clients",
        type=int,
        default=0,
        metavar="N",
        help="exit once N clients have connected and all of them are gone "
        "(0 = serve until SIGINT/SIGTERM; used by the CI smoke)",
    )
    _add_engine_arguments(parser, stream=False)
    _add_observability_arguments(parser, interval=False)
    return parser


def run_serve(args: argparse.Namespace, output: TextIO) -> int:
    """Run the ingest server until a signal (or ``--exit-after-clients``)."""
    import asyncio
    import signal

    from repro.net.server import IngestServer

    try:
        observer = _build_observer(args)
        engine = _multi_engine(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    server = IngestServer(
        engine,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        max_outbox=args.max_outbox,
        shed_policy=args.shed_policy,
        observer=observer,
        exit_after_clients=args.exit_after_clients or None,
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.stop())
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loop: ctrl-C lands as KeyboardInterrupt below
        print(
            f"# serving host={server.host} port={server.port} "
            f"max_batch={server.max_batch} max_queue={server.max_queue} "
            f"max_outbox={server.max_outbox} shed_policy={server.shed_policy}",
            file=output,
            flush=True,
        )
        if args.port_file:
            # Written whole, then renamed into place: a reader polling for the
            # file never finds it empty.
            partial = f"{args.port_file}.partial"
            with open(partial, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
            os.replace(partial, args.port_file)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    summary = server.observe()
    print(
        f"# net: clients_served={summary['clients_served']} "
        f"frames_in={summary['frames_in']} tuples_in={summary['tuples_in']} "
        f"unwatched={summary['unwatched']} batches={summary['batches']} "
        f"match_frames_out={summary['match_frames_out']} "
        f"acks_out={summary['acks_out']} shed={summary['shed']} "
        f"protocol_errors={summary['protocol_errors']} "
        f"peak_queue_depth={summary['peak_queue_depth']} "
        f"peak_outbox={summary['peak_outbox']} position={summary['position']}",
        file=output,
    )
    if args.stats:
        _print_stats(engine, output)
    if not _finish_observability(args, observer, output):
        return 2
    if server.driver_error is not None:
        print(f"error: engine failed mid-batch: {server.driver_error!r}", file=sys.stderr)
        return 1
    return 0


def build_net_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cer client",
        description="Line-oriented client for 'repro-cer serve': subscribe the "
        "given queries, stream a CSV event file into the server, wait for "
        "every ack, and print the received matches in the multi-mode output "
        "format (sorted by position, then query name).",
    )
    _add_engine_arguments(parser, engine=False, per_query_windows=True)
    parser.set_defaults(batch_size=256)
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, required=True, help="server port")
    parser.add_argument(
        "--query",
        action="append",
        dest="queries",
        metavar="QUERY",
        help="a query to subscribe (repeatable); omit to ingest without "
        "subscribing",
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=4,
        metavar="N",
        help="ingest frames in flight before waiting for an ack (default 4)",
    )
    return parser


def run_net_client(args: argparse.Namespace, events: Iterable[Tuple], output: TextIO) -> int:
    """Stream events into a running server and print the matches received."""
    from repro.net.client import IngestClient, NetClientError

    queries = args.queries or []
    windows = args.windows or [1000]
    if len(windows) not in (1, max(1, len(queries))):
        print(
            f"error: give --window once (shared) or once per query "
            f"(got {len(windows)} windows for {len(queries)} queries)",
            file=sys.stderr,
        )
        return 2
    if len(windows) == 1:
        windows = windows * max(1, len(queries))
    try:
        parsed = [parse_query(query) for query in queries]
    except ValueError as exc:
        print(f"error: cannot parse query: {exc}", file=sys.stderr)
        return 2
    try:
        wanted = _query_names(queries, parsed)
    except ValueError as exc:
        print(f"error: cannot subscribe queries: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        client = IngestClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    names = {}
    events_seen = 0
    try:
        with client:
            for query, window, name in zip(queries, windows, wanted):
                handle_id, name, _window = client.subscribe(query, window, name=name)
                names[handle_id] = name
            outstanding: List[int] = []
            for batch in _batched(islice(events, args.limit), max(1, args.batch_size)):
                events_seen += len(batch)
                outstanding.append(client.ingest(batch))
                while len(outstanding) >= max(1, args.pipeline):
                    client.wait_ack(outstanding.pop(0))
            for seq in outstanding:
                client.wait_ack(seq)
    except NetClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = []
    total = 0
    for handle_id, batches in client.matches.items():
        name = names.get(handle_id, f"h{handle_id}")
        for position, valuations in batches:
            total += len(valuations)
            for valuation in valuations:
                rendered.append((position, name, format_match(position, valuation)))
    if not args.quiet:
        for position, name, line in sorted(rendered):
            print(f"{name}\t{line}", file=output)
    elapsed = time.perf_counter() - start
    rate = events_seen / elapsed if elapsed > 0 else float("inf")
    print(
        f"# events={events_seen} queries={len(names)} matches={total} "
        f"seconds={elapsed:.3f} events/s={rate:.0f}{_parse_errors(events)}",
        file=output,
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        args = build_serve_parser().parse_args(argv[1:])
        return run_serve(args, sys.stdout)
    if argv and argv[0] == "client":
        parser, runner = build_net_client_parser(), run_net_client
        argv = argv[1:]
    elif argv and argv[0] == "multi":
        parser, runner = build_multi_parser(), run_multi
        argv = argv[1:]
    else:
        parser, runner = build_parser(), run
    args = parser.parse_args(argv)
    if args.stream:
        with open(args.stream, "r", encoding="utf-8") as handle:
            events = read_events(handle, args.separator).load()
    else:
        events = read_events(sys.stdin, args.separator)
    return runner(args, events, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
