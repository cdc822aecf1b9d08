"""Closed-loop and open-loop passes, their statistics, machine speed, the output check.

Timing discipline, the same for every pass: ``gc.collect()`` then the cyclic
collector disabled inside the timed region (:func:`collector_off`), one fresh
system per pass, every reported time built from each operation's least time
across the passes (:func:`steady_series`).  The open loop never busy-waits and
never slows when the system does: batch ``k`` is due at
``start + k * batch / rate`` on a schedule fixed before the pass, and its
latency is counted from that due time, so a stall is charged to every batch
it delays.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from benchmarks.suite.workloads import Event, System

#: a batch sent more than this after its due time counts as late
LATE_S = 0.001


@contextmanager
def collector_off():
    """A timed region: garbage collected first, the cyclic collector off inside."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ------------------------------------------------------------- machine speed
#: seconds one :func:`reference_kernel` call takes on the reference box (2-core
#: KVM guest, CPython 3.11.7) in the speed phase it spends most of its time in
REFERENCE_KERNEL_S = 1.33e-3


def reference_kernel() -> int:
    """A fixed piece of interpreter work: dict probes, list edits, tuple hashes.

    It belongs to the benchmark and touches nothing of the program under
    test, so how long it takes says how fast this machine runs Python right
    now and nothing else.
    """
    table: Dict[Tuple[int, int], list] = {}
    out: List[int] = []
    append = out.append
    for i in range(3000):
        key = ((i * 7919) % 509, i & 7)
        entry = table.get(key)
        if entry is None:
            table[key] = entry = []
        entry.append((i, key))
        if len(entry) > 4:
            del entry[0]
        append(hash(key) ^ i)
    return sum(out)


def reference_times() -> List[float]:
    """Wall seconds of each of 20 back-to-back :func:`reference_kernel` calls."""
    times = []
    with collector_off():
        for _ in range(20):
            start = perf_counter()
            reference_kernel()
            times.append(perf_counter() - start)
    return times


def machine_speed(reference: Sequence[float]) -> float:
    """This machine's speed during the run, as a multiple of the reference box's.

    The host of the reference box changes speed by up to 15 % for minutes at
    a time (neighbours come and go), and every timing moves with it; a run
    samples :func:`reference_times` before each pass and reports its timing
    metrics at reference speed (README, "Machine speed").  The tenth
    percentile: bursts only ever add time, as for :func:`steady_series`, and
    the minimum would follow a single lucky sample.
    """
    return REFERENCE_KERNEL_S / percentile(reference, 0.10)


def split(stream: Sequence, size: int) -> List[Sequence]:
    return [stream[start : start + size] for start in range(0, len(stream), size)]


def closed_pass(system: System, batches) -> Dict[str, object]:
    """Back-to-back operations, each one's wall and CPU time recorded.

    ``wall_s[k]`` / ``cpu_s[k]`` are operation ``k``'s own wall seconds and
    user+system CPU seconds of this process; ``server_cpu_s`` is what the live
    serve child used over the whole pass (zero for the in-process workloads).
    """
    server = system.server
    stamps: List[float] = []

    def stamp(wall=perf_counter, cpu=time.process_time, record=stamps.append):
        record(wall())
        record(cpu())

    with collector_off():
        server_start = server.cpu_seconds() if server is not None else 0.0
        stamp()
        raws = system.drive_closed(batches, stamp)
        served = server.cpu_seconds() - server_start if server is not None else 0.0
    walls, cpus = stamps[0::2], stamps[1::2]
    return {
        "wall_s": [later - earlier for earlier, later in zip(walls, walls[1:])],
        "cpu_s": [later - earlier for earlier, later in zip(cpus, cpus[1:])],
        "server_cpu_s": served,
        "raws": raws,
    }


def open_pass(system: System, batches, rate: float) -> Dict[str, object]:
    """One operation per ``batch / rate`` seconds, latency counted from the due time."""
    size = system.open_batch
    interval = size / rate
    submit = system.submit
    produced = system.produced
    sleep = time.sleep
    latencies: List[float] = []
    lags: List[float] = []
    service: List[float] = []
    raws = []
    with collector_off():
        start = perf_counter() + 0.005
        for k, batch in enumerate(batches):
            due = start + k * interval
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            raw = submit(k * size, batch)
            done = perf_counter()
            lags.append(sent - due)
            service.append(done - sent)
            if produced(raw):
                latencies.append(done - due)
            raws.append(raw)
        wall = perf_counter() - start
    return {"wall_s": wall, "latencies_s": latencies, "lags_s": lags, "service_s": service,
            "raws": raws}


# ------------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def steady_series(passes: Sequence[Sequence[float]]) -> List[float]:
    """Operation by operation, the least time any pass took for it.

    Every pass runs the same operations on the same tuples, so
    ``passes[p][k]`` are repeated timings of operation ``k``.  On this shared
    VM the noise only ever adds time: a neighbour's burst slows whichever
    operations it overlaps, in whichever pass.  Taking each operation's
    least time across the passes and only then summing (throughput, CPU) or
    ranking (latency percentiles) keeps a disturbed stretch out of the
    result unless it hit the same operation in every pass.  On 8 runs of
    unchanged code the quartile spread of throughput was 4-7 % this way,
    18-32 % for the median of the 7 per-pass totals (README, "Estimator").
    """
    return [min(timings) for timings in zip(*passes)]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric's per-pass values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


# ---------------------------------------------------------------- correctness
def digest(events: Sequence[Event]) -> str:
    """The repo's ``position|qid|sorted(valuations)`` SHA-256 over a pass's outputs."""
    sha = hashlib.sha256()
    for position, qid, valuations in events:
        sha.update(f"{position}|{qid}|{sorted(map(str, valuations))}".encode())
    return sha.hexdigest()


def signature(events: Sequence[Event]) -> Dict[Tuple[int, int], int]:
    """``(position, qid) -> hash of the sorted valuation hashes``.

    What every pass is compared by: it identifies the same outputs as
    :func:`digest` (order within a position does not matter, multiplicity
    does) at a tenth of the cost of rendering each valuation, and a pass can
    drop its outputs once it is taken.  Repeatable across processes because
    the benchmark runs under ``PYTHONHASHSEED=0``.
    """
    return {
        (position, qid): hash(tuple(sorted(map(hash, valuations))))
        for position, qid, valuations in events
    }


def mismatched_positions(ours: Dict[Tuple[int, int], int],
                         reference: Dict[Tuple[int, int], int]) -> List[int]:
    """Stream positions at which two passes' output signatures differ."""
    if ours == reference:
        return []
    return sorted({key[0] for key in ours.keys() | reference.keys()
                   if ours.get(key) != reference.get(key)})
