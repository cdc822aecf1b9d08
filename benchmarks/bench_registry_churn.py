"""Benchmark — registration churn: incremental merged-index patching.

``MultiQueryEngine`` used to reconstruct the whole merged dispatch index on
every register/unregister — O(total registered transitions) per change, which
caps how fast a production registry serving millions of users can absorb
subscription churn.  With incremental patching
(:meth:`~repro.multi.merged_index.MergedDispatchIndex.add_query` /
``remove_query``) a change touches only the affected ``(relation, guard)``
buckets and the interned-key tables.

Two experiments, written to ``BENCH_registry_churn.json``:

* **churn latency vs registry size** — mean wall-clock of one
  register+unregister pair against an engine holding K queries
  (``workloads.shared_star_queries`` shapes), K swept geometrically, for the
  patched engine (``incremental=True``, the default) and the full-rebuild
  ablation (``incremental=False``).  The headline number: at K=1024 the
  patched path must be **≥10×** faster per pair.
* **patch-vs-rebuild equivalence** — after every mutation of a churn
  sequence, the patched index's :meth:`signature` must equal a from-scratch
  rebuild over the surviving queries, and engine outputs on a probe stream
  must match a fresh full-rebuild engine (recorded as ``verified`` in the
  payload; the same invariant runs in ``tests/test_runtime.py``).

Run as a script (``PYTHONPATH=src python benchmarks/bench_registry_churn.py``);
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

from repro.bench.harness import format_table, write_benchmark_json
from repro.multi import MergedDispatchIndex, MultiQueryEngine

from workloads import shared_star_queries


WINDOW = 64


def build_engine(queries, incremental: bool) -> MultiQueryEngine:
    engine = MultiQueryEngine(incremental=incremental)
    for pcea in queries:
        engine.register(pcea, window=WINDOW)
    return engine


def time_churn_pairs(engine: MultiQueryEngine, churn_query, pairs: int) -> float:
    """Mean seconds for one register+unregister pair against ``engine``."""
    start = time.perf_counter()
    for _ in range(pairs):
        handle = engine.register(churn_query, window=WINDOW)
        engine.unregister(handle)
    return (time.perf_counter() - start) / pairs


def measure_latency(sizes: List[int], pairs: int, repeats: int):
    """Per-size churn latency for the patched and full-rebuild engines."""
    rows = []
    for size in sizes:
        # size+1 queries: the extra one is the churn subject, so the registry
        # always holds exactly ``size`` queries while a pair is in flight.
        queries, _ = shared_star_queries(size + 1, length=1, arms=3, groups=8)
        resident, churn_query = queries[:size], queries[size]
        per_mode: Dict[str, float] = {}
        for label, incremental in (("patched", True), ("rebuild", False)):
            engine = build_engine(resident, incremental)
            best = min(
                time_churn_pairs(engine, churn_query, pairs) for _ in range(repeats)
            )
            per_mode[label] = best
        rows.append(
            {
                "queries": size,
                "patched_pair_us": per_mode["patched"] * 1e6,
                "rebuild_pair_us": per_mode["rebuild"] * 1e6,
                "speedup": per_mode["rebuild"] / per_mode["patched"],
            }
        )
    return rows


def verify_equivalence(size: int, churn_steps: int) -> bool:
    """Signature + output equivalence of the patched index under churn."""
    import random

    queries, stream = shared_star_queries(size + churn_steps, length=400, arms=3, groups=4)
    rng = random.Random(0)
    patched = build_engine(queries[:size], incremental=True)
    rebuilt = build_engine(queries[:size], incremental=False)
    live = list(zip(patched.handles(), rebuilt.handles()))
    spare = list(queries[size:])
    for index, tup in enumerate(stream):
        if index % 25 == 0 and spare:
            if live and rng.random() < 0.5:
                patched_handle, rebuilt_handle = live.pop(rng.randrange(len(live)))
                patched.unregister(patched_handle)
                rebuilt.unregister(rebuilt_handle)
            else:
                query = spare.pop()
                live.append(
                    (
                        patched.register(query, window=WINDOW),
                        rebuilt.register(query, window=WINDOW),
                    )
                )
            # The tentpole invariant: the patched index is structurally
            # identical to a from-scratch rebuild after *every* mutation.
            queries = [patched._queries[qid] for qid in sorted(patched._queries)]
            scratch = MergedDispatchIndex([(query, query.dispatch) for query in queries])
            if patched._merged.signature() != scratch.signature():
                return False
        patched_outputs = patched.process(tup)
        rebuilt_outputs = rebuilt.process(tup)
        for patched_handle, rebuilt_handle in live:
            left = sorted(map(str, patched_outputs.get(patched_handle.id, [])))
            right = sorted(map(str, rebuilt_outputs.get(rebuilt_handle.id, [])))
            if left != right:
                return False
    return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true", help="CI smoke dimensions")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_registry_churn.json"),
    )
    args = parser.parse_args()

    if args.tiny:
        sizes, pairs, repeats, verify_size, churn_steps = [16, 64], 8, 2, 8, 4
    else:
        sizes, pairs, repeats, verify_size, churn_steps = [64, 256, 1024], 32, 3, 32, 12

    print("# registration churn: patched vs full-rebuild merged index")
    rows = measure_latency(sizes, pairs, repeats)
    print(
        format_table(
            ["queries", "patched µs/pair", "rebuild µs/pair", "speedup"],
            [
                [
                    row["queries"],
                    f"{row['patched_pair_us']:.1f}",
                    f"{row['rebuild_pair_us']:.1f}",
                    f"{row['speedup']:.1f}x",
                ]
                for row in rows
            ],
        )
    )

    print("# verifying patched index == from-scratch rebuild under churn ...")
    verified = verify_equivalence(verify_size, churn_steps)
    print(f"# verified={verified}")

    top = rows[-1]
    payload = {
        "benchmark": "registry_churn",
        "description": (
            "register+unregister latency against a registry of K queries: "
            "incremental merged-index patching vs full rebuild; outputs and "
            "index structure verified identical to a from-scratch rebuild "
            "after every mutation"
        ),
        "window": WINDOW,
        "pairs_per_measurement": pairs,
        "repeats": repeats,
        "series": rows,
        "verified_identical_to_rebuild": verified,
        "summary": {
            "max_queries": top["queries"],
            "patched_pair_us_at_max": top["patched_pair_us"],
            "rebuild_pair_us_at_max": top["rebuild_pair_us"],
            "speedup_at_max": top["speedup"],
            "meets_10x_target": top["speedup"] >= 10.0,
        },
    }
    write_benchmark_json(args.output, payload)
    print(f"# wrote {args.output}")
    if not verified:
        sys.exit(1)


if __name__ == "__main__":
    main()
