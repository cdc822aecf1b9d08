"""`repro.obs`: low-overhead observability for the streaming runtime.

Three pieces (see each module's docstring for the details):

* :mod:`repro.obs.metrics` — counters, gauges and fixed log-bucket latency
  histograms (p50/p99 without storing samples) behind a
  :class:`MetricsRegistry` with JSON snapshots and Prometheus text
  exposition;
* :mod:`repro.obs.trace` — the ring-buffered :class:`TraceRecorder` of
  structured spans (batch / sweep / tuple / union / enumeration /
  index-patch / checkpoint / restore), exportable as JSON-lines or the
  Chrome ``trace_event`` format (Perfetto-loadable);
* :mod:`repro.obs.observer` — the :class:`Observer` that threads both
  through an engine's hook points with 1-in-N per-tuple sampling.

Usage::

    from repro.obs import Observer, TraceRecorder

    observer = Observer(trace=TraceRecorder(sample_every=64))
    engine.attach_observer(observer)
    ...  # run the stream
    observer.export_metrics("metrics.prom")
    observer.export_trace("trace.json")      # open in Perfetto
    engine.detach_observer()

The overhead contract: an engine **without** an attached observer runs the
pre-observability hot path — it enters no ``repro.obs`` frame and makes the
same python calls as a never-observed engine (counted in
``tests/test_obs.py``; measured ≤ 1.02× before the timing script was retired,
CHANGES.md "Retired results") — and allocates zero metrics objects; sampled
tracing stayed within 1.05×.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_allocations,
)
from repro.obs.observer import Observer
from repro.obs.trace import DEFAULT_SAMPLE_EVERY, TraceRecorder

__all__ = [
    "Counter",
    "DEFAULT_SAMPLE_EVERY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "TraceRecorder",
    "instrument_allocations",
]
