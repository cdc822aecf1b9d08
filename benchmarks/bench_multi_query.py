"""Benchmark — multi-query sharing, batched ingestion, constant-guard dispatch.

Three experiments, written to ``BENCH_multi_query.json``:

* **shared engine vs independent engines** — K overlapping star queries over a
  shared relation alphabet (``workloads.shared_star_queries``); the
  :class:`~repro.multi.engine.MultiQueryEngine` evaluates all K through one
  merged dispatch index with shared unary-predicate memoisation, against K
  independent indexed :class:`~repro.core.evaluation.StreamingEvaluator`
  instances over the same stream.  The headline number: per-tuple total cost
  at K=16 should be ≥2× lower on the shared engine, with per-query outputs
  verified identical.
* **batched ingestion** — ``process_many`` (one eviction sweep and one stats
  flush per batch, hoisted locals) vs the per-event ``process`` loop, on both
  the single-query and the multi-query engines.
* **constant-guard dispatch** — a skewed disjunction of constant-guarded
  branches (``workloads.guarded_disjunction_workload``); dispatch with the
  ``(relation, guard value)`` index vs relation-name-only dispatch.

Run as a script (``PYTHONPATH=src python benchmarks/bench_multi_query.py``);
``--tiny`` shrinks every dimension for CI smoke runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_HERE, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.bench.harness import write_benchmark_json
from repro.core.dispatch import TransitionDispatchIndex
from repro.core.evaluation import StreamingEvaluator
from repro.multi import MultiQueryEngine

from workloads import guarded_disjunction_workload, shared_star_queries


def build_shared_engine(queries, window: int) -> MultiQueryEngine:
    engine = MultiQueryEngine()
    for pcea in queries:
        engine.register(pcea, window=window)
    return engine


def time_shared(queries, stream, window: int) -> float:
    """Seconds per tuple for the shared engine (outputs drained)."""
    engine = build_shared_engine(queries, window)
    process = engine.process
    start = time.perf_counter()
    for tup in stream:
        process(tup)
    return (time.perf_counter() - start) / len(stream)


def time_independent(queries, stream, window: int) -> float:
    """Seconds per tuple for one indexed StreamingEvaluator per query."""
    engines = [
        StreamingEvaluator(pcea, window=window, collect_stats=False) for pcea in queries
    ]
    processes = [engine.process for engine in engines]
    start = time.perf_counter()
    for tup in stream:
        for process in processes:
            process(tup)
    return (time.perf_counter() - start) / len(stream)


def same_outputs(left, right) -> bool:
    """Order-insensitive, multiplicity-sensitive comparison of output lists.

    Comparing multisets (not sets) keeps the check able to catch duplicated
    outputs — the regression the unambiguity guarantee rules out.
    """
    return sorted(map(str, left)) == sorted(map(str, right))


def check_equivalence(queries, stream, window: int) -> bool:
    """Shared-engine outputs must match the independent engines per query."""
    engine = build_shared_engine(queries, window)
    handles = engine.handles()
    references = [
        StreamingEvaluator(pcea, window=window, collect_stats=False) for pcea in queries
    ]
    for tup in stream:
        outputs = engine.process(tup)
        for handle, reference in zip(handles, references):
            if not same_outputs(outputs.get(handle.id, []), reference.process(tup)):
                return False
    return True


def sweep_query_count(counts: List[int], length: int, window: int, check_length: int) -> List[Dict]:
    rows: List[Dict] = []
    for count in counts:
        queries, stream = shared_star_queries(count, length=length)
        shared = time_shared(queries, stream, window)
        independent = time_independent(queries, stream, window)
        info = build_shared_engine(queries, window).dispatch_info()
        rows.append(
            {
                "queries": count,
                "merged_transitions": int(info["transitions"]),
                "predicate_groups": int(info["predicate_groups"]),
                "shared_predicate_groups": int(info["shared_predicate_groups"]),
                "shared_us_per_tuple": shared * 1e6,
                "independent_us_per_tuple": independent * 1e6,
                "shared_us_per_tuple_per_query": shared * 1e6 / count,
                "speedup": independent / shared if shared else float("inf"),
                "outputs_equal": check_equivalence(queries, stream[:check_length], window),
            }
        )
        print(
            f"  K={count:<3d} shared={rows[-1]['shared_us_per_tuple']:8.2f}µs  "
            f"independent={rows[-1]['independent_us_per_tuple']:8.2f}µs  "
            f"speedup={rows[-1]['speedup']:5.2f}x  equal={rows[-1]['outputs_equal']}"
        )
    return rows


def batched_ingestion_experiment(
    batch_sizes: List[int], num_queries: int, length: int, window: int
) -> Dict:
    queries, stream = shared_star_queries(num_queries, length=length)
    single_pcea = queries[0]

    def time_single_loop() -> float:
        engine = StreamingEvaluator(single_pcea, window=window, collect_stats=False)
        start = time.perf_counter()
        for tup in stream:
            engine.process(tup)
        return (time.perf_counter() - start) / len(stream)

    def time_single_batched(batch: int) -> float:
        engine = StreamingEvaluator(single_pcea, window=window, collect_stats=False)
        start = time.perf_counter()
        for begin in range(0, len(stream), batch):
            engine.process_many(stream[begin : begin + batch])
        return (time.perf_counter() - start) / len(stream)

    def time_multi_batched(batch: int) -> float:
        engine = build_shared_engine(queries, window)
        start = time.perf_counter()
        for begin in range(0, len(stream), batch):
            engine.process_many(stream[begin : begin + batch])
        return (time.perf_counter() - start) / len(stream)

    per_event = time_single_loop()
    multi_per_event = time_shared(queries, stream, window)
    rows = []
    for batch in batch_sizes:
        single = time_single_batched(batch)
        multi = time_multi_batched(batch)
        rows.append(
            {
                "batch_size": batch,
                "single_us_per_tuple": single * 1e6,
                "single_speedup_vs_per_event": per_event / single if single else float("inf"),
                "multi_us_per_tuple": multi * 1e6,
                "multi_speedup_vs_per_event": multi_per_event / multi if multi else float("inf"),
            }
        )
        print(
            f"  batch={batch:<5d} single={single * 1e6:7.2f}µs "
            f"({rows[-1]['single_speedup_vs_per_event']:4.2f}x)  "
            f"multi={multi * 1e6:7.2f}µs ({rows[-1]['multi_speedup_vs_per_event']:4.2f}x)"
        )
    # Outputs must be identical between the batched and per-event paths.
    reference = StreamingEvaluator(single_pcea, window=window, collect_stats=False)
    batched = StreamingEvaluator(single_pcea, window=window, collect_stats=False)
    per_event_outputs = [reference.process(tup) for tup in stream]
    batched_outputs: List = []
    for begin in range(0, len(stream), batch_sizes[0]):
        batched_outputs.extend(batched.process_many(stream[begin : begin + batch_sizes[0]]))
    outputs_equal = all(
        same_outputs(a, b) for a, b in zip(per_event_outputs, batched_outputs)
    )
    return {
        "single_per_event_us_per_tuple": per_event * 1e6,
        "multi_per_event_us_per_tuple": multi_per_event * 1e6,
        "queries": num_queries,
        "rows": rows,
        "outputs_equal": outputs_equal,
    }


def guard_dispatch_experiment(branch_counts: List[int], length: int, window: int) -> List[Dict]:
    rows: List[Dict] = []
    for branches in branch_counts:
        pcea, stream = guarded_disjunction_workload(branches, length=length)
        guarded_engine = StreamingEvaluator(pcea, window=window, collect_stats=False)
        unguarded_index = TransitionDispatchIndex(
            pcea.transitions, final=pcea.final, guards=False
        )
        unguarded_engine = StreamingEvaluator(
            pcea, window=window, dispatch=unguarded_index, collect_stats=False
        )
        timings = {}
        for name, engine in (("guarded", guarded_engine), ("unguarded", unguarded_engine)):
            update = engine.update
            start = time.perf_counter()
            for tup in stream:
                update(tup)
            timings[name] = (time.perf_counter() - start) / len(stream)
        rows.append(
            {
                "branches": branches,
                "guarded_us_per_tuple": timings["guarded"] * 1e6,
                "unguarded_us_per_tuple": timings["unguarded"] * 1e6,
                "speedup": (
                    timings["unguarded"] / timings["guarded"]
                    if timings["guarded"]
                    else float("inf")
                ),
            }
        )
        print(
            f"  branches={branches:<4d} guarded={rows[-1]['guarded_us_per_tuple']:7.2f}µs  "
            f"unguarded={rows[-1]['unguarded_us_per_tuple']:7.2f}µs  "
            f"speedup={rows[-1]['speedup']:5.2f}x"
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke mode (small workloads)")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_multi_query.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.tiny:
        counts, length, window, check_length = [2, 4], 300, 64, 150
        batch_sizes, batch_queries, batch_length = [32], 4, 300
        branch_counts, guard_length = [4, 16], 300
    else:
        counts, length, window, check_length = [1, 2, 4, 8, 16], 4_000, 256, 1_500
        batch_sizes, batch_queries, batch_length = [64, 512], 8, 8_000
        branch_counts, guard_length = [4, 16, 64], 6_000

    print(f"shared engine vs independent engines (stream={length}, window={window})")
    query_rows = sweep_query_count(counts, length, window, check_length)
    print(f"batched ingestion (queries={batch_queries}, stream={batch_length})")
    batching = batched_ingestion_experiment(batch_sizes, batch_queries, batch_length, window)
    print(f"constant-guard dispatch (stream={guard_length}, window={window})")
    guard_rows = guard_dispatch_experiment(branch_counts, guard_length, window)

    speedup_at_max = query_rows[-1]["speedup"]
    payload = {
        "benchmark": "multi_query",
        "tiny": args.tiny,
        "python": sys.version.split()[0],
        "shared_vs_independent": query_rows,
        "batched_ingestion": batching,
        "constant_guard_dispatch": guard_rows,
        "summary": {
            "max_queries": query_rows[-1]["queries"],
            "speedup_at_max_queries": speedup_at_max,
            "meets_2x_target": speedup_at_max >= 2.0,
            "all_outputs_equal": (
                all(row["outputs_equal"] for row in query_rows)
                and batching["outputs_equal"]
            ),
            "best_batched_speedup": max(
                row["single_speedup_vs_per_event"] for row in batching["rows"]
            ),
            "max_guard_speedup": max(row["speedup"] for row in guard_rows),
        },
    }
    write_benchmark_json(args.output, payload)
    print(f"wrote {args.output}")
    summary = payload["summary"]
    print(
        f"speedup at K={summary['max_queries']}: {summary['speedup_at_max_queries']:.2f}x "
        f"(target ≥2x: {summary['meets_2x_target']}); outputs equal: {summary['all_outputs_equal']}; "
        f"batched: {summary['best_batched_speedup']:.2f}x; guards: {summary['max_guard_speedup']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
