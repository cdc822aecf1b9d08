"""One run of one workload: set-up, reference, passes, traced passes, metrics.

The shape of a run (what makes it repeat on a shared 2-core VM):

1. set-up, repeated ``Workload.setup_reps`` times in shares spread over the
   run -> ``setup_s`` is the median;
2. one untimed warm-up pass whose outputs become the run's reference, and
   the object-graph oracle (``arena=False``) over the first tuples;
3. ``passes`` closed-loop and ``passes`` open-loop passes, interleaved so
   both kinds sample the whole run, a fresh engine (or connection) each,
   every pass's outputs compared with the reference, the reference kernel
   timed before each (``driver.machine_speed``);
4. with tracing: ``traced`` passes through the split public calls with
   ``collect_stats=True``, a one-tuple-per-call pass, and replays of the
   same tuples through the dispatch index and the frame codec.

Every timing metric is built from each operation's least time across the
passes (``driver.steady_series``) and reported at reference machine speed
(``SPEED_POWER``); the value as measured and the per-pass values, their median
and quartiles are kept beside it in the result.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

from benchmarks.suite import driver
from benchmarks.suite.tracing import Tracer, layer_shares
from benchmarks.suite.workloads import WORKLOADS, System, Workload

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_tuples_per_s", "1/s"),
    ("cpu_us_per_tuple", "us"),
    ("match_latency_ms_p50", "ms"),
    ("match_latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

#: how a measured value becomes the reported one: ``measured * speed ** power``,
#: ``speed`` being ``driver.machine_speed`` (times grow on a faster machine's
#: scale, rates shrink, memory stays)
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1, "MB": 0}

PER_LAYER = (
    ("engine.compile_ms_per_query", "ms"),
    ("engine.transitions_total", "count"),
    ("core.dispatch.lookup_us_per_tuple", "us"),
    ("core.dispatch.candidates_per_tuple", "count"),
    ("core.predicates.evals_per_tuple", "count"),
    ("core.predicates.cache_hit_ratio", "ratio"),
    ("core.evaluation.update_us_per_tuple", "us"),
    ("core.evaluation.fired_per_tuple", "count"),
    ("core.evaluation.hash_lookups_per_tuple", "count"),
    ("core.evaluation.hash_updates_per_tuple", "count"),
    ("core.arena.enumerate_us_per_output", "us"),
    ("core.arena.outputs_per_tuple", "count"),
    ("core.arena.unions_per_tuple", "count"),
    ("core.arena.nodes_per_tuple", "count"),
    ("core.arena.live_nodes_end", "count"),
    ("core.arena.slabs_end", "count"),
    ("core.arena.kernel_active", "count"),
    ("runtime.sweeps_per_tuple", "count"),
    ("runtime.evicted_per_tuple", "count"),
    ("runtime.hash_entries_end", "count"),
    ("runtime.batch_overhead_ratio", "ratio"),
    ("multi.process_us_per_tuple", "us"),
    ("multi.register_ms_p50", "ms"),
    ("multi.unregister_ms_p50", "ms"),
    ("multi.queries_live", "count"),
    ("multi.outputs_per_tuple", "count"),
    ("runtime.snapshot.checkpoint_ms", "ms"),
    ("runtime.snapshot.restore_ms", "ms"),
    ("runtime.snapshot.bytes", "count"),
    ("runtime.frames.encode_us_per_tuple", "us"),
    ("runtime.frames.decode_us_per_tuple", "us"),
    ("runtime.frames.bytes_per_tuple", "count"),
    ("net.client.send_us_per_frame", "us"),
    ("net.client.ack_rtt_ms_p50", "ms"),
    ("net.client.cpu_us_per_tuple", "us"),
    ("net.server.cpu_us_per_tuple", "us"),
    ("net.server.batches", "count"),
    ("net.server.mean_coalesced_batch", "count"),
    ("net.server.peak_queue_depth", "count"),
    ("net.server.peak_outbox", "count"),
    ("net.server.match_frames_out", "count"),
    ("net.server.shed", "count"),
    ("net.server.protocol_errors", "count"),
    ("driver.late_batches_frac", "ratio"),
    ("driver.max_lag_ms", "ms"),
    ("driver.pass_iqr_ratio", "ratio"),
    ("driver.machine_speed", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)

#: per-layer metrics that repeat bit for bit for a fixed seed and run length
EXACT_COUNTERS = (
    "engine.transitions_total",
    "core.dispatch.candidates_per_tuple",
    "core.predicates.evals_per_tuple",
    "core.predicates.cache_hit_ratio",
    "core.evaluation.fired_per_tuple",
    "core.evaluation.hash_lookups_per_tuple",
    "core.evaluation.hash_updates_per_tuple",
    "core.arena.outputs_per_tuple",
    "core.arena.unions_per_tuple",
    "core.arena.nodes_per_tuple",
    "core.arena.live_nodes_end",
    "core.arena.slabs_end",
    "core.arena.kernel_active",
    "runtime.sweeps_per_tuple",
    "runtime.evicted_per_tuple",
    "runtime.hash_entries_end",
    "multi.queries_live",
    "multi.outputs_per_tuple",
    "runtime.snapshot.bytes",
    "runtime.frames.bytes_per_tuple",
)


class Checker:
    """Counts operations and fails those whose outputs differ from the reference."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.reference: Dict = {}

    def check(self, system: System, raws: list, batch: int, operations: int, what: str,
              upto: Optional[int] = None) -> None:
        reference = self.reference
        if upto is not None:
            reference = {key: value for key, value in reference.items() if key[0] < upto}
        self.attempted += operations
        self.failed += system.failed
        bad = driver.mismatched_positions(driver.signature(system.events(raws)), reference)
        if bad:
            self.fail(len({position // batch for position in bad}),
                      f"{what}: outputs differ at {len(bad)} positions (first {bad[0]})")

    def fail(self, operations: int, why: str) -> None:
        self.failed += operations
        print(f"# {self.name}: FAILED {why}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool,
                 out_dir: str, src_dir: str, scratch_dir: str) -> dict:
    """Measure one workload; returns the detail record ``run.py`` reports and stores."""
    cls = WORKLOADS[name]
    length = max(512, int(cls.tuples_per_second * seconds) // 256 * 256)
    passes = 3 if tiny or trace else 7  # closed-loop passes = open-loop passes
    traced = 0 if not trace else 1 if tiny else 3
    setup_reps = 2 if tiny else cls.setup_reps
    workload: Workload = cls(seed, length)
    workload.workdir, workload.src_dir = scratch_dir, src_dir
    stream = workload.stream
    checker = Checker(name)
    layer: Dict[str, float] = {metric: 0.0 for metric, _ in PER_LAYER}
    tracer = Tracer()

    setup_times: List[float] = []
    reference: List[float] = []  # reference-kernel timings, sampled before every pass

    def set_up_some() -> None:
        # spread over the run, a share before every closed-loop pass: one burst
        # of a noisy neighbour then cannot cover all the repetitions
        with driver.collector_off():
            for _ in range(-(-setup_reps // (passes + 1))):
                start = perf_counter()
                system = workload.setup()
                setup_times.append(perf_counter() - start)
                system.close()

    start = perf_counter()
    pceas = workload.compile_all()
    layer["engine.compile_ms_per_query"] = (perf_counter() - start) * 1e3 / len(pceas)
    layer["engine.transitions_total"] = sum(len(pcea.transitions) for pcea in pceas)

    server = workload.start_server(clients=1 + 2 * passes + traced)
    try:
        probe = workload.open()
        closed_batches = driver.split(stream, probe.closed_batch)
        open_batches = driver.split(stream, probe.open_batch)

        # warm-up pass: untimed; its outputs are the run's reference
        set_up_some()
        events = probe.events(driver.closed_pass(probe, closed_batches)["raws"])
        probe.close()
        checker.reference = driver.signature(events)
        reference_digest = driver.digest(events)
        outputs_total = sum(len(valuations) for _, _, valuations in events)
        del events

        # the object-graph oracle over the first tuples, once per run
        oracle = workload.oracle()
        prefix = min(length, workload.oracle_tuples) // 256 * 256
        oracle_batches = driver.split(stream[:prefix], oracle.closed_batch)
        checker.check(oracle, driver.closed_pass(oracle, oracle_batches)["raws"],
                      oracle.closed_batch, len(oracle_batches), "object-graph oracle", upto=prefix)
        del oracle

        closed, opened = [], []
        for _ in range(passes):
            set_up_some()
            reference.extend(driver.reference_times())
            system = workload.open()
            result = driver.closed_pass(system, closed_batches)
            checker.check(system, result.pop("raws"), system.closed_batch,
                          len(closed_batches), "closed-loop pass")
            system.close()
            closed.append(result)

            reference.extend(driver.reference_times())
            system = workload.open()
            result = driver.open_pass(system, open_batches, workload.rate)
            checker.check(system, result.pop("raws"), system.open_batch,
                          len(open_batches), "open-loop pass")
            system.close()
            opened.append(result)
        reference.extend(driver.reference_times())
        closed_wall = sum(driver.steady_series([r["wall_s"] for r in closed]))

        counters: Optional[Dict[str, float]] = None
        if traced:
            counters = traced_passes(workload, traced, closed_batches, tracer, checker, layer)
            layer["trace_overhead_ratio"] = min(tracer.durations("pass")) / closed_wall
            tracer.pass_id = 0

            if workload.single_path:
                system = workload.open()
                with driver.collector_off():
                    start = perf_counter()
                    raws = system.drive_single(stream)
                    wall = perf_counter() - start
                checker.check(system, raws, 1, length, "one-tuple-per-call pass")
                layer["runtime.batch_overhead_ratio"] = wall / closed_wall

            lookup = workload.dispatch_index(pceas).candidates_for
            span = tracer.begin("core.dispatch.lookup")
            for tup in stream:
                lookup(tup)
            layer["core.dispatch.lookup_us_per_tuple"] = tracer.end(span) * 1e6 / length

            if server is not None:
                # The server's engine is out of reach.  The same stream through the
                # same engine in this process gives its CPU, which is what the frames
                # and net layers come on top of, and (a second time, counting) its
                # operation counters.
                for stats in (False, True):
                    replay = workload.replay(stats)
                    batches = driver.split(stream, replay.closed_batch)
                    result = driver.closed_pass(replay, batches)
                    checker.check(replay, result.pop("raws"), replay.closed_batch, len(batches),
                                  "in-process replay")
                    if not stats:
                        layer["multi.process_us_per_tuple"] = sum(result["cpu_s"]) * 1e6 / length
                counters = engine_counters(replay.engine_view())
                layer["multi.queries_live"] = replay.queries_live()
                frames = workload.frame_replay(closed_batches, tracer)
                layer["runtime.frames.encode_us_per_tuple"] = frames["encode_s"] * 1e6 / length
                layer["runtime.frames.decode_us_per_tuple"] = frames["decode_s"] * 1e6 / length
                layer["runtime.frames.bytes_per_tuple"] = frames["bytes"] / length

        net = server.finish() if server is not None else None
    finally:
        if server is not None:
            server.stop()

    values, per_pass = end_to_end(length, setup_times, closed, opened)
    speed = driver.machine_speed(reference)
    if any(len(r["latencies_s"]) != len(opened[0]["latencies_s"]) for r in opened):
        checker.fail(1, "open-loop passes disagree on which operations produced outputs")
    lags = [lag for r in opened for lag in r["lags_s"]]
    late = sum(1 for lag in lags if lag > driver.LATE_S) / len(lags)
    info: Dict[str, object] = {
        "offered_rate_tuples_per_s": workload.rate,
        "achieved_rate_tuples_per_s": statistics.median(length / r["wall_s"] for r in opened),
        "match_latency_ms_p99": statistics.median(
            driver.percentile(r["latencies_s"], 0.99) * 1e3 for r in opened),
        "latency_samples_per_pass": len(opened[0]["latencies_s"]),
        "generator_late_frac": late,
        "generator_max_lag_ms": max(lags) * 1e3,
        # a generator this late was not an open loop: the latencies stand unresolved
        "latency_unresolved": late > 0.05,
        "outputs_per_tuple": outputs_total / length,
        "digest": reference_digest,
        "machine_speed": speed,
        "reference_kernel_ms_p10": driver.percentile(reference, 0.10) * 1e3,
        "reference_kernel_samples": len(reference),
    }
    pass_walls = driver.summarize([sum(r["wall_s"]) for r in closed])
    layer["driver.late_batches_frac"] = late
    layer["driver.max_lag_ms"] = max(lags) * 1e3
    layer["driver.pass_iqr_ratio"] = (pass_walls["q3"] - pass_walls["q1"]) / pass_walls["median"]
    layer["driver.machine_speed"] = speed

    layers_table: Dict[str, dict] = {}
    if traced:
        fold = tracer.fold()
        shares = layer_shares(fold, "pass")
        layers_table = {span: {**row, "share_of_pass": shares.get(span, 0.0)}
                        for span, row in fold.items()}
        layer.update(counter_metrics(counters, length))
        if layer["multi.queries_live"]:
            layer["multi.outputs_per_tuple"] = outputs_total / length
        span_metrics(tracer, fold, counters, length, traced, layer)
        if net is not None:
            served_metrics(net, closed, opened, length, layer)
            info["frames_and_net_share_of_cpu"] = (
                1.0 - layer["multi.process_us_per_tuple"] / values["cpu_us_per_tuple"])
        info["trace_file"] = f"{name}.trace.json"
        info["trace_file_spans"] = tracer.write_chrome_trace(
            os.path.join(out_dir, info["trace_file"]), name)
    if net is not None and (net["shed"] or net["protocol_errors"]):
        checker.fail(net["shed"] + net["protocol_errors"], "the server shed or refused frames")

    return {
        "workload": name,
        "why": workload.why,
        "parameters": workload.parameters(),
        "tuples_per_pass": length,
        "seed": seed,
        "seconds": seconds,
        "tiny": tiny,
        "passes": {"setup": len(setup_times), "closed": passes, "open": passes, "traced": traced},
        "correct": checker.failed == 0,
        "attempted_ops": checker.attempted,
        "failed_ops": checker.failed,
        "end_to_end": {metric: {"value": values[metric] * speed ** SPEED_POWER[unit],
                                "unit": unit, "measured": values[metric],
                                "per_pass": driver.summarize(per_pass[metric])}
                       for metric, unit in END_TO_END},
        "per_layer": ({metric: {"value": float(layer[metric]), "unit": unit}
                       for metric, unit in PER_LAYER} if traced else {}),
        "info": info,
        "layers": layers_table,
    }


def end_to_end(length: int, setup_times: List[float], closed: List[dict], opened: List[dict]):
    """The six gated values, and beside them the per-pass values they came from."""
    wall = sum(driver.steady_series([r["wall_s"] for r in closed]))
    cpu = (sum(driver.steady_series([r["cpu_s"] for r in closed]))
           + min(r["server_cpu_s"] for r in closed))
    latencies = driver.steady_series([r["latencies_s"] for r in opened])
    # this process plus the largest child (the measured server outlives and
    # outgrows the set-up ones), both at the end of the run
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_tuples_per_s": length / wall,
        "cpu_us_per_tuple": cpu * 1e6 / length,
        "match_latency_ms_p50": driver.percentile(latencies, 0.50) * 1e3,
        "match_latency_ms_p90": driver.percentile(latencies, 0.90) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    per_pass = {
        "setup_s": setup_times,
        "throughput_tuples_per_s": [length / sum(r["wall_s"]) for r in closed],
        "cpu_us_per_tuple": [(sum(r["cpu_s"]) + r["server_cpu_s"]) * 1e6 / length for r in closed],
        "match_latency_ms_p50": [driver.percentile(r["latencies_s"], 0.50) * 1e3 for r in opened],
        "match_latency_ms_p90": [driver.percentile(r["latencies_s"], 0.90) * 1e3 for r in opened],
        "peak_rss_mb": [rss_mb],
    }
    return values, per_pass


def served_metrics(net: Dict[str, int], closed: List[dict], opened: List[dict], length: int,
                   layer: Dict[str, float]) -> None:
    """``net.*``: the client's share of the passes and the server's exit summary."""
    layer["net.client.ack_rtt_ms_p50"] = statistics.median(
        driver.percentile(r["service_s"], 0.50) * 1e3 for r in opened)
    layer["net.client.cpu_us_per_tuple"] = min(sum(r["cpu_s"]) for r in closed) * 1e6 / length
    layer["net.server.cpu_us_per_tuple"] = min(r["server_cpu_s"] for r in closed) * 1e6 / length
    layer["net.server.batches"] = net["batches"]
    layer["net.server.mean_coalesced_batch"] = net["tuples_in"] / net["batches"]
    for key in ("peak_queue_depth", "peak_outbox", "match_frames_out", "shed", "protocol_errors"):
        layer[f"net.server.{key}"] = net[key]


def traced_passes(workload: Workload, count: int, batches, tracer: Tracer,
                  checker: Checker, layer: Dict[str, float]) -> Optional[Dict[str, float]]:
    """``count`` passes through the split calls; returns the engine's counters."""
    counters: Optional[Dict[str, float]] = None
    for index in range(count):
        system = workload.open(stats=True)
        tracer.pass_id = index + 1
        with driver.collector_off():
            root = tracer.begin("pass")
            raws = system.drive_traced(batches, tracer, root)
            tracer.end(root)
        checker.check(system, raws, system.closed_batch, len(batches), "traced pass")
        engine = system.engine_view()
        if engine is not None:
            seen = engine_counters(engine)
            if counters is not None and seen != counters:
                checker.fail(1, "operation counters differ between traced passes")
            counters = seen
        layer["multi.queries_live"] = system.queries_live()
        layer["runtime.snapshot.bytes"] = system.snapshot_bytes
        system.close()
    return counters


def engine_counters(engine) -> Dict[str, float]:
    """The engine's exact-repeat operation counters and end-of-pass state sizes."""
    counters = dataclasses.asdict(engine.stats)
    del counters["sweep_seconds"]
    memory = engine.memory_info()
    counters.update(
        evicted=engine.evicted,
        hash_entries=engine.hash_table_size(),
        live_nodes=memory["live_nodes"],
        slabs=memory["slabs"],
        kernel_native=int(engine.kernel_info()["active"] == "native"),
    )
    return counters


def counter_metrics(c: Dict[str, float], tuples: int) -> Dict[str, float]:
    judged = c["predicate_evaluations"] + c["predicate_cache_hits"]
    return {
        "core.dispatch.candidates_per_tuple": c["transitions_scanned"] / tuples,
        "core.predicates.evals_per_tuple": c["predicate_evaluations"] / tuples,
        "core.predicates.cache_hit_ratio": c["predicate_cache_hits"] / judged if judged else 0.0,
        "core.evaluation.fired_per_tuple": c["transitions_fired"] / tuples,
        "core.evaluation.hash_lookups_per_tuple": c["hash_lookups"] / tuples,
        "core.evaluation.hash_updates_per_tuple": c["hash_updates"] / tuples,
        "core.arena.outputs_per_tuple": c["outputs_enumerated"] / tuples,
        "core.arena.unions_per_tuple": c["unions"] / tuples,
        "core.arena.nodes_per_tuple": c["nodes_created"] / tuples,
        "core.arena.live_nodes_end": c["live_nodes"],
        "core.arena.slabs_end": c["slabs"],
        "core.arena.kernel_active": c["kernel_native"],
        "runtime.sweeps_per_tuple": c["sweeps"] / tuples,
        "runtime.evicted_per_tuple": c["evicted"] / tuples,
        "runtime.hash_entries_end": c["hash_entries"],
    }


def span_metrics(tracer: Tracer, fold: Dict[str, dict], counters: Dict[str, float],
                 tuples: int, passes: int, layer: Dict[str, float]) -> None:
    """The per-layer times read off the spans the traced passes recorded."""
    def per(span: str, key: str, divisor: float) -> float:
        return fold[span][key] * 1e3 / divisor if span in fold and divisor else 0.0

    layer["core.evaluation.update_us_per_tuple"] = per(
        "core.evaluation.update", "self_ms", tuples * passes)
    layer["core.arena.enumerate_us_per_output"] = per(
        "core.arena.enumerate", "self_ms", counters["outputs_enumerated"] * passes)
    if "multi.process_many" in fold:
        layer["multi.process_us_per_tuple"] = per("multi.process_many", "total_ms", tuples * passes)
    layer["net.client.send_us_per_frame"] = per(
        "net.client.ingest", "total_ms", fold.get("net.client.ingest", {}).get("calls", 0))
    for metric, span in (("multi.register_ms_p50", "multi.register"),
                         ("multi.unregister_ms_p50", "multi.unregister"),
                         ("runtime.snapshot.checkpoint_ms", "runtime.snapshot.checkpoint"),
                         ("runtime.snapshot.restore_ms", "runtime.snapshot.restore")):
        durations = tracer.durations(span)
        if durations:
            layer[metric] = statistics.median(durations) * 1e3
