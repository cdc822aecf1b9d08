"""The unified operation-counter surface shared by every streaming engine.

One dataclass serves the one engine (the multi-query engine, whose K=1
case is the single-query evaluator), so ``engine.observe()["stats"]``, the CLI ``--stats`` line and
the differential tests read the same field names regardless of mode.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStatistics:
    """Operation counters for the per-tuple loop (benchmark instrumentation).

    ``transitions_scanned`` counts the candidate transitions the dispatch
    lookup returned.  The hashed engine books one ``predicate_evaluations``
    per predicate group and per threshold family (its base call), every other
    member as ``predicate_cache_hits`` — also when a family falls back to its
    groups' acceptors.  ``hash_lookups``/``hash_updates`` count run-index
    table probes and stores; a scan probe counts every live run it reads as
    a lookup, so the "how much stored state did this tuple touch" column
    means the same thing for both probe kinds.

    ``sweeps``/``sweep_evicted`` attribute eviction cost per run segment
    (reset the statistics per batch to attribute it per batch): ``sweeps``
    counts non-empty expiry buckets popped, ``sweep_evicted`` the entries
    those pops genuinely evicted — both deterministic, so they participate
    in snapshot equality like every other counter.  Like every other
    counter here they are gated on the engine's ``collect_stats`` (mirrored
    into ``StreamRuntime.count_stats``); fast mode pays no per-sweep
    attribute writes.  ``sweep_seconds``
    accumulates measured sweep wall time and is only ever non-zero while an
    observer (:mod:`repro.obs`) samples sweeps; engines without one keep it
    at exactly ``0.0``, which keeps snapshots bit-identical across hosts.
    """

    tuples_processed: int = 0
    transitions_scanned: int = 0
    predicate_evaluations: int = 0
    predicate_cache_hits: int = 0
    transitions_fired: int = 0
    hash_lookups: int = 0
    hash_updates: int = 0
    unions: int = 0
    nodes_created: int = 0
    outputs_enumerated: int = 0
    sweeps: int = 0
    sweep_evicted: int = 0
    sweep_seconds: float = 0.0
