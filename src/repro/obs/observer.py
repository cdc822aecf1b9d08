"""The :class:`Observer`: one object that instruments a streaming engine.

An observer bundles a :class:`~repro.obs.metrics.MetricsRegistry` and an
optional :class:`~repro.obs.trace.TraceRecorder` and knows how to thread
them through an engine's hook points:

* ``observer.attach(engine)`` (or the engine's ``attach_observer``) sets the
  shared runtime's ``obs`` slot — which activates the sweep / batch / slab
  hooks that live inside :mod:`repro.runtime.core` — binds the arena
  slab-seal hook on every lane, *wraps* the engine's enumeration call and
  ``snapshot``/``restore`` with timing shims (instance-attribute
  shadowing, so the class methods are untouched and ``detach`` restores
  the original behaviour exactly), and starts the per-tuple sampling
  *period clock*: the runtime itself times every ``sample_every``-th
  update between two consecutive ``advance`` calls (see ``_wrap_entry``
  for the design and the graveyard of method-interception schemes it
  replaced).

The **no-op path** is the design constraint: an engine without an attached
observer runs the same bytecode it ran before this module existed — the
only residue is ``obs is None`` checks at batch/sweep granularity, never in
the per-candidate loops — and allocates zero metrics objects
(:func:`~repro.obs.metrics.instrument_allocations` is the test hook).
With an observer attached, per-tuple work is still only paid on sampled
positions (``position % sample_every == 0``); unsampled tuples pay one
integer compare in ``StreamRuntime.advance`` and nothing else — the
engine's class, instance dict, and method bindings are never touched.

Metric names are listed in the README's observability section; they are
pre-bound as attributes here so hook sites never pay a registry lookup.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_SAMPLE_EVERY, TraceRecorder

_perf = time.perf_counter


class Observer:
    """Metrics + optional tracing, attachable to any runtime-backed engine.

    Parameters
    ----------
    metrics:
        The registry to feed; a fresh one by default.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder`; without it the
        observer maintains metrics only (spans are skipped, sampled timing
        still feeds the latency histograms).
    sample_every:
        Per-tuple sampling period (every Nth stream position is timed).
        Defaults to the trace recorder's period, or
        :data:`~repro.obs.trace.DEFAULT_SAMPLE_EVERY` without one.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        sample_every: Optional[int] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        if sample_every is None:
            sample_every = trace.sample_every if trace is not None else DEFAULT_SAMPLE_EVERY
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1 (1 = every tuple)")
        self.sample_every = sample_every
        self._engines: List[object] = []
        # id(engine) -> rearm closure from _wrap_entry (reseats the period
        # clock after a restore moves the stream position).
        self._entry_hooks: Dict[int, object] = {}
        m = self.metrics
        # Pre-bound instruments: hook sites pay zero registry lookups.
        self._tuples_sampled = m.counter("repro_tuples_sampled_total")
        self._update_seconds = m.histogram("repro_update_seconds")
        self._enum_seconds = m.histogram("repro_enumeration_seconds")
        self._outputs = m.counter("repro_outputs_enumerated_total")
        self._batches = m.counter("repro_batches_total")
        self._batch_tuples = m.counter("repro_batch_tuples_total")
        self._batch_seconds = m.histogram("repro_batch_seconds")
        self._sweep_seconds = m.histogram("repro_sweep_seconds")
        self._sweep_evicted_sampled = m.counter("repro_sweep_evicted_sampled_total")
        self._slab_seals = m.counter("repro_slab_seals_total")
        self._slab_fill = m.histogram("repro_slab_seal_fill")
        self._slabs_released = m.counter("repro_slabs_released_sampled_total")
        self._patch_seconds = m.histogram("repro_index_patch_seconds")
        self._patch_adds = m.counter("repro_index_patches_total", {"op": "add"})
        self._patch_removes = m.counter("repro_index_patches_total", {"op": "remove"})
        self._checkpoints = m.counter("repro_checkpoints_total")
        self._checkpoint_seconds = m.histogram("repro_checkpoint_seconds")
        self._restores = m.counter("repro_restores_total")
        self._restore_seconds = m.histogram("repro_restore_seconds")

    # ------------------------------------------------------------ attachment
    def attach(self, engine) -> None:
        """Instrument ``engine`` (see the module docstring for what attaches).

        One observer may watch several engines; one engine holds at most one
        observer (``ValueError`` otherwise — detach first).
        """
        if getattr(engine, "_observer", None) is not None:
            raise ValueError(
                f"{type(engine).__name__} already has an observer attached "
                "(call detach_observer() first)"
            )
        runtime = engine._runtime
        engine._observer = self
        runtime.obs = self
        self._engines.append(engine)
        self._wrap_enumeration(engine, runtime)
        self._wrap_checkpointing(engine)
        self._wrap_entry(engine, runtime)
        for lane in runtime.lanes():
            self.observe_lane(lane)

    def detach(self, engine) -> None:
        """Remove this observer from ``engine``, restoring the class methods."""
        if getattr(engine, "_observer", None) is not self:
            raise ValueError("this observer is not attached to that engine")
        runtime = engine._runtime
        self._entry_hooks.pop(id(engine), None)
        for name in ("_enumerate", "snapshot", "restore"):
            engine.__dict__.pop(name, None)
        for lane in runtime.lanes():
            ds = lane.ds
            if ds is not None and hasattr(ds, "on_seal"):
                ds.on_seal = None
        runtime.obs = None
        runtime.obs_arm = None
        runtime.obs_next = -1
        runtime.obs_sweep_sampled = False
        engine._observer = None
        self._engines.remove(engine)

    def observe_lane(self, lane) -> None:
        """Bind the arena slab-seal hook on ``lane`` (object-graph: no-op).

        Called for every lane at attach time and by the multi-query engine
        for lanes registered while the observer is attached.
        """
        ds = lane.ds
        if ds is not None and hasattr(ds, "on_seal"):
            ds.on_seal = self.on_slab_seal

    # ------------------------------------------------------- entry-point shims
    def _wrap_entry(self, engine, runtime) -> None:
        """Period sampling: the sampled per-tuple latency is measured from
        *inside the runtime*, between two consecutive ``advance`` calls.

        ``StreamRuntime.advance`` fires ``obs_arm()`` when the new position
        equals ``obs_next`` (one slot load and one integer compare per
        tuple; ``-1`` = never).  The observer uses that single hook as a
        two-phase period clock:

        * **begin** — at sampled position ``M`` (a multiple of
          ``sample_every``): stamp ``perf_counter``, snapshot the union
          counter, set ``obs_sweep_sampled`` (so update ``M``'s eviction
          sweep takes the timed path), and re-aim ``obs_next`` at ``M+1``;
        * **finish** — at ``M+1``: the elapsed interval is update ``M``'s
          full post-``advance`` body (sweep, transition firing, index
          maintenance) plus the driver's loop overhead.  Record it into the
          latency histogram and the ``tuple``/``union`` spans, clear the
          sweep flag, and re-aim at the next grid position.

        Everything lives in closures bound to ``StreamRuntime`` slots; the
        engine's class and instance are untouched.  That is deliberate, and
        the fourth design to survive measurement on CPython 3.11 — every
        scheme that intercepts the entry *method* de-specialises the
        engine's inline caches:

        * shadowing the bound method in the instance dict and ``del``-ing
          it afterwards converts the dict from the split-keys layout to a
          combined table, permanently de-specialising every ``self.x``
          load in the hot path (~3 % per tuple, forever);
        * ``engine.__class__ = ArmedSubclass`` (and back) materialises the
          managed instance dict on the first assignment — the same
          permanent de-specialisation (~3.5 % measured, even when
          assigning the *same* class);
        * a one-shot *class-attribute* swap (install a timing shim just
          before the sampled position, restore right after) leaves the
          unsampled path untouched but bumps the type's version tag twice
          per sample, and every specialised ``LOAD_ATTR``/``LOAD_METHOD``
          on instances of that type then re-specialises — tens of
          microseconds per sample, ~4-6 % at 1-in-64 on the kernel-backends
          workloads.

        The period clock costs two ``perf_counter`` calls per *sample* and
        nothing per tuple beyond ``advance``'s compare.  The trade-offs:
        the measured interval includes the driver's loop overhead (~0.1 µs)
        and the next update's prologue, and the ``tuple`` span carries the
        position but not the tuple's relation or fired-output count (the
        runtime never sees the tuple).  A sample whose period spans a pause
        in the stream reports the wall-clock gap; the final grid position
        of a stream has no successor and is simply not reported.
        """
        sample_every = self.sample_every
        trace = self.trace
        update_hist = self._update_seconds
        sampled = self._tuples_sampled
        lanes = runtime.lanes

        def unions() -> int:
            # Summed over the engine's current stores: registration and
            # restore add and replace them.
            return sum(getattr(lane.ds, "union_calls", 0) for lane in lanes())

        start = 0.0
        unions_before = 0
        sampled_pos = -1

        def begin():
            nonlocal start, unions_before, sampled_pos
            sampled_pos = runtime.position
            runtime.obs_sweep_sampled = True
            runtime.obs_arm = finish
            runtime.obs_next = sampled_pos + 1
            unions_before = unions()
            start = _perf()

        def finish():
            nonlocal start, unions_before, sampled_pos
            elapsed = _perf() - start
            update_hist.record(elapsed)
            sampled.inc()
            if trace is not None:
                trace.record("tuple", start, elapsed, {"position": sampled_pos})
                count = unions() - unions_before
                if count > 0:
                    trace.record("union", start, 0.0, {"position": sampled_pos, "count": count})
            position = runtime.position
            next_grid = sampled_pos + sample_every
            if next_grid <= position:
                # Dense sampling (sample_every == 1): this advance both
                # finishes the previous period and begins the next.
                sampled_pos = position
                runtime.obs_next = position + 1
                unions_before = unions()
                start = _perf()
            else:
                runtime.obs_sweep_sampled = False
                runtime.obs_arm = begin
                runtime.obs_next = next_grid

        def rearm():
            # Reseat the clock for the *current* runtime position — called
            # at attach and after a restore moves the position (abandoning
            # any half-open period).  Sampled positions are the multiples
            # of ``sample_every`` strictly ahead of the current position.
            runtime.obs_sweep_sampled = False
            runtime.obs_arm = begin
            runtime.obs_next = (runtime.position // sample_every + 1) * sample_every

        self._entry_hooks[id(engine)] = rearm
        rearm()

    def _wrap_enumeration(self, engine, runtime) -> None:
        # Every engine enumerates one query's final nodes per
        # ``_enumerate(query, nodes)`` call, a list back.
        inner = type(engine)._enumerate
        sample_every = self.sample_every
        trace = self.trace
        enum_hist = self._enum_seconds
        outputs_counter = self._outputs

        def _enumerate(query, final_nodes):
            if runtime.position % sample_every or not final_nodes:
                return inner(engine, query, final_nodes)
            start = _perf()
            outputs = inner(engine, query, final_nodes)
            elapsed = _perf() - start
            enum_hist.record(elapsed)
            outputs_counter.inc(len(outputs))
            if trace is not None:
                trace.record(
                    "enumeration",
                    start,
                    elapsed,
                    {"position": runtime.position, "outputs": len(outputs)},
                )
            return outputs

        engine._enumerate = _enumerate

    def _wrap_checkpointing(self, engine) -> None:
        snapshot_inner = getattr(type(engine), "snapshot", None)
        restore_inner = getattr(type(engine), "restore", None)
        if snapshot_inner is None or restore_inner is None:
            return
        trace = self.trace
        name = type(engine).__name__

        def snapshot():
            start = _perf()
            snap = snapshot_inner(engine)
            elapsed = _perf() - start
            self._checkpoints.inc()
            self._checkpoint_seconds.record(elapsed)
            if trace is not None:
                trace.record("checkpoint", start, elapsed, {"engine": name})
            return snap

        def restore(snap):
            start = _perf()
            restore_inner(engine, snap)
            elapsed = _perf() - start
            self._restores.inc()
            self._restore_seconds.record(elapsed)
            # Restore may rebuild lanes (multi) — re-bind the slab-seal hooks
            # — and moves the position, so reseat the sampling clock.
            for lane in engine._runtime.lanes():
                self.observe_lane(lane)
            rearm = self._entry_hooks.get(id(engine))
            if rearm is not None:
                rearm()
            if trace is not None:
                trace.record("restore", start, elapsed, {"engine": name})

        engine.snapshot = snapshot
        engine.restore = restore

    # ---------------------------------------------------------- runtime hooks
    # Called from repro.runtime.core at batch/sweep/slab granularity; every
    # call site is behind an ``obs is not None`` check, so the disabled path
    # never reaches them.
    def on_sweep(self, position: int, evicted: int, seconds: float) -> None:
        """A *sampled* eviction sweep finished (cumulative sweep counts live
        in ``EngineStatistics``; this feeds the cost distribution)."""
        self._sweep_seconds.record(seconds)
        self._sweep_evicted_sampled.inc(evicted)
        if self.trace is not None:
            self.trace.record(
                "sweep",
                _perf() - seconds,
                seconds,
                {"position": position, "evicted": evicted},
            )

    def on_batch(self, count: int, seconds: float, position: int) -> None:
        """One ``drive_batch`` call finished."""
        self._batches.inc()
        self._batch_tuples.inc(count)
        self._batch_seconds.record(seconds)
        if self.trace is not None:
            self.trace.record(
                "batch", _perf() - seconds, seconds, {"position": position, "tuples": count}
            )

    def on_slab_seal(self, fill: int) -> None:
        """An arena slab sealed with ``fill`` records."""
        self._slab_seals.inc()
        self._slab_fill.record(float(fill))

    def on_slab_release(self, slabs: int, position: int) -> None:
        """A *sampled* eviction sweep released ``slabs`` expired arena slabs
        (unsampled per-event sweeps skip the accounting to stay cheap;
        batched sweeps always report)."""
        self._slabs_released.inc(slabs)

    def on_index_patch(self, op: str, seconds: float, transitions: int) -> None:
        """A merged-index ``add_query``/``remove_query`` patch was applied."""
        (self._patch_adds if op == "add" else self._patch_removes).inc()
        self._patch_seconds.record(seconds)
        if self.trace is not None:
            self.trace.record(
                "index_patch", _perf() - seconds, seconds,
                {"op": op, "transitions": transitions},
            )

    # -------------------------------------------------------------- sampling
    def sampled(self, position: int) -> bool:
        """Whether ``position`` falls on the 1-in-N sampling grid."""
        return position % self.sample_every == 0

    # ------------------------------------------------------------- collection
    def observe_engine(self, engine) -> None:
        """Refresh the point-in-time gauges from ``engine.observe()``.

        Pull-model collection: counter-like engine state (the unified
        ``EngineStatistics``, eviction totals, arena occupancy, kernel-op
        counts) is mirrored into gauges at collection time instead of being
        pushed per tuple, so it costs nothing on the hot path.  Called
        automatically by the exporters for attached engines; call it
        periodically (e.g. the CLI ``--stats-interval`` loop) to turn the
        per-relation fan-out gauges into a time series.
        """
        snapshot = engine.observe()
        gauge = self.metrics.gauge
        gauge("repro_stream_position").set(snapshot["position"])
        gauge("repro_hash_entries").set(snapshot["hash_entries"])
        gauge("repro_evicted_total").set(snapshot["evicted"])
        for field, value in snapshot["stats"].items():
            gauge(f"repro_engine_{field}").set(value)
        for field, value in snapshot["memory"].items():
            gauge(f"repro_memory_{field}").set(value)
        for field, value in snapshot["dispatch"].items():
            gauge(f"repro_dispatch_{field}").set(value)
        for relation, candidates in snapshot["fanout"].items():
            gauge("repro_relation_candidates", {"relation": relation}).set(candidates)
        kernel = snapshot["kernel"]
        gauge("repro_kernel_native_active").set(1.0 if kernel.get("active") == "native" else 0.0)
        ds = snapshot.get("ds")
        if ds is not None:
            for field, value in ds.items():
                gauge(f"repro_ds_{field}").set(value)
        if self.trace is not None:
            gauge("repro_trace_spans_total").set(self.trace.total)
            gauge("repro_trace_spans_dropped").set(self.trace.dropped)

    def collect(self) -> Dict[str, object]:
        """Refresh attached-engine gauges and snapshot every metric series."""
        for engine in self._engines:
            self.observe_engine(engine)
        return self.metrics.collect()

    # ---------------------------------------------------------------- export
    def export_metrics(self, path: str) -> None:
        """Write the Prometheus text exposition (gauges refreshed first)."""
        for engine in self._engines:
            self.observe_engine(engine)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.metrics.to_prometheus())

    def export_trace(self, path: str) -> int:
        """Write the trace (`*.jsonl` → JSON-lines, else Chrome trace JSON).

        Returns the number of spans written; raises ``ValueError`` when the
        observer has no trace recorder.
        """
        if self.trace is None:
            raise ValueError("this observer has no trace recorder attached")
        if path.endswith(".jsonl"):
            return self.trace.export_jsonl(path)
        return self.trace.export_chrome(path)

    def __repr__(self) -> str:
        trace = f"trace(1/{self.trace.sample_every})" if self.trace is not None else "no trace"
        return (
            f"Observer({len(self.metrics)} series, {trace}, "
            f"{len(self._engines)} engine(s))"
        )
