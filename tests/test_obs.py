"""Tests for the observability layer (repro.obs).

Covers the metrics primitives (log-bucket histograms, registry,
Prometheus exposition), the span ring (wrap, counts, exports), the
observer's attach/detach contract (the engine's class and methods are
never touched), period-clock sampling (grid counts, output parity,
checkpoint/restore span determinism), the zero-allocation no-op path, and
the CLI flags on all three modes.
"""

import gc
import io
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings

from helpers import QUERY_Q0, STREAM_S0, streams_strategy
from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.cq.schema import Tuple
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.multi.engine import MultiQueryEngine
from repro.obs import (
    MetricsRegistry,
    Observer,
    TraceRecorder,
    instrument_allocations,
)
from repro.obs.metrics import NUM_BUCKETS, _bucket_index, bucket_upper_bound


PCEA_Q0 = hcq_to_pcea(QUERY_Q0)


def _stream(repeats: int = 40):
    """A deterministic join-heavy stream long enough to cross sample grids."""
    return [tup for _ in range(repeats) for tup in STREAM_S0]


# --------------------------------------------------------------------- metrics
class TestHistogram:
    def test_bucket_bounds_monotonic(self):
        bounds = [bucket_upper_bound(i) for i in range(NUM_BUCKETS)]
        assert bounds == sorted(bounds)
        assert bounds[-1] == math.inf

    def test_bucket_index_monotonic_in_value(self):
        values = [0.0, 1e-12, 3e-7, 1e-6, 2.5e-6, 1e-3, 0.5, 1.0, 70.0, 1e9]
        indexes = [_bucket_index(v) for v in values]
        assert indexes == sorted(indexes)
        assert all(0 <= i < NUM_BUCKETS for i in indexes)

    def test_recorded_value_within_its_bucket_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1e-7, 3.3e-6, 0.02, 1.5):
            hist.record(value)
            # Conservative quantiles: the p100 bound never under-reports.
            assert hist.quantile(1.0) >= value

    def test_quantiles_and_mean(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(99):
            hist.record(1e-6)
        hist.record(1.0)
        assert hist.count == 100
        assert hist.quantile(0.5) < 1e-5
        assert hist.quantile(0.999) >= 1.0
        assert abs(hist.mean() - (99e-6 + 1.0) / 100) < 1e-9
        assert len(hist.nonzero_buckets()) == 2

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.quantile(0.99) == 0.0
        assert hist.mean() == 0.0

    def test_registry_interns_and_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", {"k": "v"})
        assert registry.counter("c", {"k": "v"}) is counter
        assert registry.counter("c", {"k": "other"}) is not counter
        with pytest.raises(TypeError):
            registry.gauge("c", {"k": "v"})

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total").inc(5)
        registry.gauge("repro_live", {"engine": "single"}).set(2.5)
        hist = registry.histogram("repro_lat_seconds")
        hist.record(1e-6)
        hist.record(2.0)
        text = registry.to_prometheus()
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total 5" in text
        assert 'repro_live{engine="single"} 2.5' in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text
        # le buckets are cumulative.
        lines = [l for l in text.splitlines() if l.startswith("repro_lat_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)

    def test_collect_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").record(0.5)
        json.dumps(registry.collect())


# ------------------------------------------------------------------ trace ring
class TestTraceRecorder:
    def test_ring_wrap_keeps_counts(self):
        trace = TraceRecorder(capacity=4, sample_every=1)
        for index in range(10):
            trace.record("tuple", float(index), 0.001, {"position": index})
        assert len(trace) == 4
        assert trace.total == 10
        assert trace.dropped == 6
        assert trace.counts() == {"tuple": 10}
        # Retained spans are the newest four, oldest first.
        positions = [span[3]["position"] for span in trace.spans()]
        assert positions == [6, 7, 8, 9]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
        with pytest.raises(ValueError):
            TraceRecorder(sample_every=0)

    def test_exports(self, tmp_path):
        trace = TraceRecorder(capacity=16)
        trace.record("sweep", 1.0, 0.002, {"position": 7, "evicted": 3})
        trace.record("union", 1.1, 0.0, {"count": 2})
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        assert trace.export_jsonl(str(jsonl)) == 2
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert lines[0]["kind"] == "sweep" and lines[0]["evicted"] == 3
        assert trace.export_chrome(str(chrome)) == 2
        payload = json.loads(chrome.read_text())
        events = payload["traceEvents"]
        assert events[0]["ph"] == "X" and events[0]["name"] == "sweep"
        assert events[1]["ph"] == "i"  # zero-duration spans are instants
        assert payload["otherData"]["dropped_spans"] == 0


# ------------------------------------------------------------- attach / detach
class TestAttachDetach:
    def test_engine_class_and_instance_never_shadowed(self):
        """The period clock must not touch the engine's dispatch surface."""
        class_update = StreamingEvaluator.update
        engine = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        for tup in _stream(5):
            engine.process(tup)
        assert StreamingEvaluator.update is class_update
        assert "update" not in engine.__dict__
        engine.detach_observer()
        assert StreamingEvaluator.update is class_update
        assert "update" not in engine.__dict__

    def test_detach_resets_runtime_and_instance_state(self):
        engine = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        for tup in _stream(3):
            engine.process(tup)
        engine.detach_observer()
        runtime = engine._runtime
        assert runtime.obs is None
        assert runtime.obs_arm is None
        assert runtime.obs_next == -1
        assert runtime.obs_sweep_sampled is False
        assert runtime.obs_sample_every == 1
        for name in ("_enumerate", "enumerate_outputs", "snapshot", "restore"):
            assert name not in engine.__dict__
        assert engine.observer is None

    def test_double_attach_rejected(self):
        engine = StreamingEvaluator(PCEA_Q0, window=16)
        engine.attach_observer(Observer())
        with pytest.raises(ValueError):
            Observer().attach(engine)


# ------------------------------------------------------------- period sampling
class TestPeriodSampling:
    def test_sampled_count_matches_grid(self):
        engine = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(trace=TraceRecorder(sample_every=8), sample_every=8)
        engine.attach_observer(observer)
        stream = _stream(20)  # 160 tuples, positions 0..159
        for tup in stream:
            engine.process(tup)
        # Grid positions 0, 8, ..., 152 all have a successor: 20 samples.
        assert observer._tuples_sampled.value == 20
        assert observer.trace.counts()["tuple"] == 20

    def test_outputs_identical_with_observer(self):
        stream = _stream(20)
        plain = StreamingEvaluator(PCEA_Q0, window=16)
        expected = [len(plain.process(tup)) for tup in stream]
        observed = StreamingEvaluator(PCEA_Q0, window=16)
        observed.attach_observer(Observer(sample_every=4))
        assert [len(observed.process(tup)) for tup in stream] == expected

    def test_batched_path_sampled(self):
        stream = _stream(20)
        plain = StreamingEvaluator(PCEA_Q0, window=16)
        expected = [len(out) for out in plain.process_many(stream)]
        observed = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(sample_every=8)
        observed.attach_observer(observer)
        assert [len(out) for out in observed.process_many(stream)] == expected
        assert observer._tuples_sampled.value == 20
        assert observer._batches.value == 1

    def test_dense_sampling_every_tuple(self):
        engine = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(sample_every=1)
        engine.attach_observer(observer)
        for tup in _stream(10):  # 80 tuples
            engine.process(tup)
        # Every position except the last (no successor) completes a period.
        assert observer._tuples_sampled.value == 79

    def test_interleaved_siblings_do_not_interfere(self):
        stream = _stream(20)
        plain = StreamingEvaluator(PCEA_Q0, window=16)
        expected = [len(plain.process(tup)) for tup in stream]
        watched = StreamingEvaluator(PCEA_Q0, window=16)
        sibling = StreamingEvaluator(PCEA_Q0, window=16)
        observer = Observer(sample_every=8)
        watched.attach_observer(observer)
        got_watched, got_sibling = [], []
        for tup in stream:
            got_watched.append(len(watched.process(tup)))
            got_sibling.append(len(sibling.process(tup)))
        assert got_watched == expected
        assert got_sibling == expected
        assert observer._tuples_sampled.value == 20

    def test_general_and_multi_engines_sample(self):
        stream = _stream(20)
        general = GeneralStreamingEvaluator(PCEA_Q0, window=16)
        obs_general = Observer(sample_every=8)
        general.attach_observer(obs_general)
        for tup in stream:
            general.process(tup)
        assert obs_general._tuples_sampled.value == 20

        multi = MultiQueryEngine()
        multi.register("Q(x, y) <- T(x), S(x, y), R(x, y)", window=16)
        obs_multi = Observer(sample_every=8)
        multi.attach_observer(obs_multi)
        for tup in stream:
            multi.process(tup)
        assert obs_multi._tuples_sampled.value == 20

    def test_checkpoint_restore_span_determinism(self):
        """A checkpoint→restore run emits the spans of an uninterrupted run
        plus exactly one checkpoint and one restore span."""
        stream = _stream(30)
        straight = StreamingEvaluator(PCEA_Q0, window=16)
        obs_straight = Observer(trace=TraceRecorder(sample_every=4), sample_every=4)
        straight.attach_observer(obs_straight)
        expected = [len(straight.process(tup)) for tup in stream]

        first = StreamingEvaluator(PCEA_Q0, window=16)
        obs_first = Observer(trace=TraceRecorder(sample_every=4), sample_every=4)
        first.attach_observer(obs_first)
        midpoint = len(stream) // 2
        outputs = [len(first.process(tup)) for tup in stream[:midpoint]]
        snap = first.snapshot()
        second = StreamingEvaluator(PCEA_Q0, window=16)
        obs_second = Observer(trace=TraceRecorder(sample_every=4), sample_every=4)
        second.attach_observer(obs_second)
        second.restore(snap)
        outputs += [len(second.process(tup)) for tup in stream[midpoint:]]
        assert outputs == expected

        straight_counts = obs_straight.trace.counts()
        merged: dict = {}
        for counts in (obs_first.trace.counts(), obs_second.trace.counts()):
            for kind, count in counts.items():
                merged[kind] = merged.get(kind, 0) + count
        assert merged.pop("checkpoint") == 1
        assert merged.pop("restore") == 1
        assert merged == straight_counts


# ------------------------------------------------------------------ no-op path
class TestNoOpPath:
    def test_unobserved_runs_allocate_zero_instruments(self):
        stream = _stream(10)
        engines = [
            StreamingEvaluator(PCEA_Q0, window=16),
            GeneralStreamingEvaluator(PCEA_Q0, window=16),
        ]
        multi = MultiQueryEngine()
        multi.register("Q(x, y) <- T(x), S(x, y), R(x, y)", window=16)
        engines.append(multi)
        before = instrument_allocations()
        for engine in engines:
            for tup in stream:
                engine.process(tup)
            engine.observe()
            engine.memory_info()
        assert instrument_allocations() == before

    @pytest.mark.parametrize("kind", ["single", "general", "multi"])
    def test_disabled_observer_makes_the_never_observed_calls(self, kind):
        """The disabled-path contract (≤ 1.02× when it was a timing) as a count:
        with no observer — never attached, or attached and detached — a stream
        enters no ``repro.obs`` frame and makes the python calls, one for one,
        of an engine that never saw an observer."""

        def build():
            if kind == "multi":
                engine = MultiQueryEngine()
                engine.register("Q(x, y) <- T(x), S(x, y), R(x, y)", window=16)
                return engine
            cls = StreamingEvaluator if kind == "single" else GeneralStreamingEvaluator
            # Its own automaton: the index builds its plans on first read, so a
            # shared one would already be warm for the second engine.
            return cls(hcq_to_pcea(QUERY_Q0), window=16)

        package = os.path.dirname(sys.modules["repro"].__file__)

        def python_calls(engine):
            calls = []

            def hook(frame, event, arg):
                # The package's own frames only (and no collector run, below):
                # a finaliser may run anywhere in the middle of the stream.
                if event == "call" and frame.f_code.co_filename.startswith(package):
                    calls.append((frame.f_code.co_filename, frame.f_code.co_name))

            stream = _stream(20)
            gc.collect()
            gc.disable()
            sys.setprofile(hook)
            try:
                for tup in stream[:80]:
                    engine.process(tup)
                engine.process_many(stream[80:])
            finally:
                sys.setprofile(None)
                gc.enable()
            return calls

        never = python_calls(build())
        detached = build()
        detached.attach_observer(Observer(sample_every=1))
        detached.detach_observer()
        assert python_calls(detached) == never
        assert len(never) > 160  # a process/_process (or update) pair per tuple at least
        assert not [call for call in never if call[0].startswith(os.path.join(package, "obs"))]

    def test_sweep_counters_gated_on_collect_stats(self):
        stream = _stream(40)
        counting = StreamingEvaluator(PCEA_Q0, window=4, collect_stats=True)
        for tup in stream:
            counting.process(tup)
        stats = counting._runtime.stats
        assert stats.sweeps > 0
        assert stats.sweep_evicted > 0
        assert stats.sweep_seconds == 0.0  # only observers time sweeps

        fast = StreamingEvaluator(PCEA_Q0, window=4, collect_stats=False)
        for tup in stream:
            fast.process(tup)
        assert fast._runtime.stats.sweeps == 0
        assert fast._runtime.stats.sweep_evicted == 0
        # Eviction itself is identical either way.
        assert fast.evicted == counting.evicted


# ------------------------------------------------- cross-engine observe parity
class TestObserveParity:
    ENGINE_KEYS = {
        "engine",
        "position",
        "hash_entries",
        "evicted",
        "stats",
        "dispatch",
        "fanout",
        "memory",
        "kernel",
    }

    def _engines(self):
        multi = MultiQueryEngine(collect_stats=True)
        multi.register("Q(x, y) <- T(x), S(x, y), R(x, y)", window=16)
        return [
            StreamingEvaluator(PCEA_Q0, window=16),
            GeneralStreamingEvaluator(PCEA_Q0, window=16),
            multi,
        ]

    def test_observe_key_parity_across_engines(self):
        for engine in self._engines():
            for tup in _stream(5):
                engine.process(tup)
            snapshot = engine.observe()
            assert self.ENGINE_KEYS <= set(snapshot), type(engine).__name__
            assert set(snapshot["stats"]) == set(
                self._engines()[0].observe()["stats"]
            )

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(max_length=25, domain=3))
    def test_memory_info_key_parity_across_engines(self, stream):
        """Same workload → same memory_info keys, monotonic positions."""
        engines = self._engines()
        key_sets = []
        for engine in engines:
            last_position = engine.position
            for tup in stream:
                engine.process(tup)
                assert engine.position > last_position
                last_position = engine.position
            info = engine.memory_info()
            key_sets.append(set(info))
            for value in info.values():
                assert isinstance(value, int)
        # All three expose the same arena-level view.
        assert key_sets[0] == key_sets[1] == key_sets[2]

    @settings(max_examples=25, deadline=None)
    @given(streams_strategy(max_length=30, domain=3))
    def test_observer_does_not_perturb_state(self, stream):
        """memory_info / observe / outputs are identical with an observer."""
        plain = StreamingEvaluator(PCEA_Q0, window=8)
        observed = StreamingEvaluator(PCEA_Q0, window=8)
        observed.attach_observer(Observer(sample_every=4))
        plain_outputs = [len(plain.process(tup)) for tup in stream]
        observed_outputs = [len(observed.process(tup)) for tup in stream]
        assert observed_outputs == plain_outputs
        assert observed.memory_info() == plain.memory_info()
        plain_snapshot = plain.observe()
        observed_snapshot = observed.observe()
        # sweep_seconds is a timing accumulator only sampled sweeps fill in;
        # every semantic counter must be bit-identical.
        for snapshot in (plain_snapshot, observed_snapshot):
            snapshot["stats"].pop("sweep_seconds", None)
        for key in ("position", "hash_entries", "evicted", "stats", "fanout"):
            assert observed_snapshot[key] == plain_snapshot[key]

    @settings(max_examples=10, deadline=None)
    @given(streams_strategy(max_length=20, domain=3))
    def test_observer_collect_reports_engine_gauges(self, stream):
        engine = StreamingEvaluator(PCEA_Q0, window=8)
        observer = Observer(sample_every=4)
        engine.attach_observer(observer)
        for tup in stream:
            engine.process(tup)
        collected = observer.collect()
        assert collected["repro_stream_position"] == engine.position
        assert collected["repro_hash_entries"] == engine.hash_table_size()


# ------------------------------------------------------------------------- CLI
EVENTS_CSV = """\
S,2,11
T,2
R,1,10
S,2,11
T,1
R,2,11
"""

QUERY = "Q(x, y) <- T(x), S(x, y), R(x, y)"


class TestCliObservability:
    def _events(self):
        from repro.cli import read_events

        return list(read_events(EVENTS_CSV.splitlines()))

    def _run_single(self, argv):
        from repro.cli import build_parser, run

        args = build_parser().parse_args(argv)
        output = io.StringIO()
        code = run(args, self._events(), output)
        return code, output.getvalue()

    def _run_multi(self, argv):
        from repro.cli import build_multi_parser, run_multi

        args = build_multi_parser().parse_args(argv)
        output = io.StringIO()
        code = run_multi(args, self._events(), output)
        return code, output.getvalue()

    @pytest.mark.parametrize("extra", [[], ["--general"]])
    def test_single_and_general_mode_exports(self, tmp_path, extra):
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        code, output = self._run_single(
            ["--query", QUERY, "--window", "100", "--quiet"]
            + extra
            + [
                "--metrics-file", str(metrics),
                "--trace", str(trace),
                "--trace-sample", "1",
            ]
        )
        assert code == 0
        assert "# metrics: wrote" in output
        assert "# trace: wrote" in output
        text = metrics.read_text()
        assert "# TYPE repro_update_seconds histogram" in text
        assert "repro_stream_position" in text
        # Every mode reports its DS_w counters and times its enumerations.
        assert "repro_ds_union_calls" in text
        payload = json.loads(trace.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"tuple", "enumeration"} <= names

    def test_multi_mode_exports(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        code, output = self._run_multi(
            [
                "--query", QUERY,
                "--query", "Q2(x, y) <- T(x), S(x, y)",
                "--window", "100", "--quiet",
                "--metrics-file", str(metrics),
                "--trace", str(trace),
                "--trace-sample", "1",
            ]
        )
        assert code == 0
        assert "# metrics: wrote" in output
        assert "# trace: wrote" in output
        text = metrics.read_text()
        assert "repro_update_seconds" in text
        assert "repro_ds_union_calls" in text
        kinds = {json.loads(line)["kind"] for line in trace.read_text().splitlines()}
        assert {"tuple", "enumeration"} <= kinds

    def test_stats_interval_lines(self):
        code, output = self._run_single(
            ["--query", QUERY, "--window", "100", "--quiet", "--stats-interval", "2"]
        )
        assert code == 0
        interval_lines = [l for l in output.splitlines() if l.startswith("# interval")]
        assert len(interval_lines) == 3  # 6 events, one line per 2
        assert "events/s=" in interval_lines[0]

    def test_trace_sample_must_be_positive(self):
        code, _ = self._run_single(
            ["--query", QUERY, "--trace-sample", "0", "--quiet"]
        )
        assert code != 0
