"""Tests for the pluggable record-operation kernel (repro.core.kernel).

Four layers of protection:

* unit tests of :func:`resolve_kernel`'s precedence and failure semantics
  (explicit knob beats environment beats auto; a ``"native"`` request never
  silently degrades) and of :func:`backend_info`'s shape;
* differential property tests: identical streams through the python and
  native kernels — single query, multi query, and the general evaluator —
  must produce identical outputs, identical machine-independent counters
  (``evicted``, nodes created, union copies) and bit-identical snapshots;
* representation independence: a snapshot taken under one backend restores
  under the other (both directions) and processing continues identically;
* forced fallback: ``REPRO_KERNEL=python`` with the extension present keeps
  the hot path on the pure-python kernel (the differential-oracle lane).

Every native-side test is skipped when the extension was not built, so the
suite stays green on toolchain-less installs (where ``setup.py`` degraded
to a pure-python package on purpose).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.kernel import KERNEL_ENV, backend_info, native_available, resolve_kernel
from repro.cq.schema import Tuple
from repro.extensions.general_evaluation import GeneralStreamingEvaluator
from repro.multi.engine import MultiQueryEngine

from helpers import star_query, star_schema, streams_strategy

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel extension not built"
)

def _computation_counters(engine):
    """What ``observe()`` reports about the computation: its ``kernel``
    section and ``memory["native"]`` describe the backend instead."""
    observed = engine.observe()
    counters = {key: observed.get(key) for key in ("stats", "hash_entries", "evicted", "ds")}
    counters["memory"] = {k: v for k, v in observed["memory"].items() if k != "native"}
    return counters


def run_both_kernels(pcea, stream, window, **kwargs):
    """Outputs per position for the python-kernel and native-kernel evaluators."""
    py = StreamingEvaluator(pcea, window=window, arena=True, kernel="python", **kwargs)
    nat = StreamingEvaluator(pcea, window=window, arena=True, kernel="native", **kwargs)
    py_outputs = []
    nat_outputs = []
    for tup in stream:
        py_outputs.append(py.process(tup))
        nat_outputs.append(nat.process(tup))
    return py, nat, py_outputs, nat_outputs


def star2_stream(seed, length, relations=("A1", "A2"), domain=4):
    rng = random.Random(seed)
    return [
        Tuple(rng.choice(relations), (rng.randrange(domain), rng.randrange(3)))
        for _ in range(length)
    ]


class TestResolveKernel:
    def test_explicit_python_always_resolves(self):
        assert resolve_kernel("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend kernel="):
            resolve_kernel("fast")

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(ValueError, match=KERNEL_ENV):
            resolve_kernel(None)

    def test_explicit_knob_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "native" if native_available() else "python")
        assert resolve_kernel("python") == "python"

    def test_auto_prefers_native_when_built(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(None) == ("native" if native_available() else "python")

    def test_active_backend_is_the_resolved_one_with_or_without_stores(self):
        """``kernel_info()["active"]`` is what the engine resolved at
        construction — also before its first store opens (a server before its
        first subscription) and after its last one closed; ``"object"`` only
        for the object-graph structure."""
        engine = MultiQueryEngine(kernel="python")
        assert engine.kernel_info()["active"] == "python"
        handle = engine.register("Q(x) <- T(x)", window=4)
        assert engine.kernel_info()["active"] == "python"
        engine.unregister(handle)
        assert engine.kernel_info()["active"] == "python"
        assert MultiQueryEngine(arena=False).kernel_info()["active"] == "object"
        assert MultiQueryEngine(arena=False, kernel="python").kernel_info()["active"] == "object"

    def test_backend_info_shape(self):
        info = backend_info()
        assert "python" in info["backends"]
        assert info["native_available"] == native_available()
        if native_available():
            assert "native" in info["backends"]
            assert info["import_error"] is None
        else:
            assert info["native_module"] is None


@needs_native
class TestForcedFallback:
    def test_env_python_with_native_present(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        engine = StreamingEvaluator(hcq_to_pcea(star_query(2)), window=8)
        assert engine.kernel_info()["active"] == "python"
        assert engine.kernel_info()["native_available"] is True

    def test_auto_picks_native_by_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        engine = StreamingEvaluator(hcq_to_pcea(star_query(2)), window=8)
        assert engine.kernel_info()["active"] == "native"

    def test_counters_report_active_backend(self):
        pcea = hcq_to_pcea(star_query(2))
        py = StreamingEvaluator(pcea, window=8, kernel="python")
        nat = StreamingEvaluator(pcea, window=8, kernel="native")
        assert (py.observe()["kernel"]["active"], py.memory_info()["native"]) == ("python", 0)
        assert (nat.observe()["kernel"]["active"], nat.memory_info()["native"]) == ("native", 1)


@needs_native
class TestDifferentialKernels:
    @settings(max_examples=40, deadline=None)
    @given(streams_strategy(star_schema(2), max_length=24, domain=2), st.integers(0, 6))
    def test_single_query_native_equals_python(self, stream, window):
        pcea = hcq_to_pcea(star_query(2))
        py, nat, py_outputs, nat_outputs = run_both_kernels(pcea, stream, window)
        assert nat_outputs == py_outputs  # same valuations, same order
        assert nat.snapshot() == py.snapshot()

    @settings(max_examples=20, deadline=None)
    @given(streams_strategy(star_schema(3), max_length=20, domain=2), st.integers(0, 5))
    def test_three_arm_star_native_equals_python(self, stream, window):
        pcea = hcq_to_pcea(star_query(3))
        _, _, py_outputs, nat_outputs = run_both_kernels(pcea, stream, window)
        assert nat_outputs == py_outputs

    def test_long_stream_counters_and_snapshot_bit_identical(self):
        pcea = hcq_to_pcea(star_query(2))
        stream = star2_stream(seed=11, length=4_000)
        py, nat, py_outputs, nat_outputs = run_both_kernels(pcea, stream, window=32)
        assert nat_outputs == py_outputs
        # Expiry actually happened: the comparison covers the sweep path.
        assert nat.ds.released_slabs > 0
        assert nat.evicted == py.evicted
        assert nat.ds.nodes_created == py.ds.nodes_created
        assert nat.ds.union_calls == py.ds.union_calls
        assert nat.ds.union_copies == py.ds.union_copies
        assert _computation_counters(nat) == _computation_counters(py)
        assert nat.snapshot() == py.snapshot()

    def test_general_evaluator_native_equals_python(self):
        pcea = hcq_to_pcea(star_query(2))
        stream = star2_stream(seed=9, length=800, domain=3)
        py = GeneralStreamingEvaluator(pcea, window=16, kernel="python")
        nat = GeneralStreamingEvaluator(pcea, window=16, kernel="native")
        for tup in stream:
            assert nat.process(tup) == py.process(tup)
        assert nat.ds.released_slabs > 0
        assert nat.snapshot() == py.snapshot()

    def test_multi_engine_native_equals_python(self):
        queries = [star_query(2, prefix="A"), star_query(2, prefix="B")]
        stream = star2_stream(seed=5, length=1_500, relations=("A1", "A2", "B1", "B2"), domain=3)
        py = MultiQueryEngine(kernel="python")
        nat = MultiQueryEngine(kernel="native")
        for query in queries:
            py.register(query, window=24)
            nat.register(query, window=24)
        for tup in stream:
            assert nat.process(tup) == py.process(tup)
        assert nat.evicted == py.evicted
        assert nat.memory_info()["released_slabs"] > 0
        assert nat.snapshot() == py.snapshot()


@needs_native
class TestCrossBackendSnapshot:
    @pytest.mark.parametrize(
        "first,second", [("python", "native"), ("native", "python")]
    )
    def test_snapshot_restores_across_backends(self, first, second):
        pcea = hcq_to_pcea(star_query(2))
        stream = star2_stream(seed=7, length=2_000)
        half = len(stream) // 2
        source = StreamingEvaluator(pcea, window=32, kernel=first)
        for tup in stream[:half]:
            source.process(tup)
        snap = source.snapshot()

        target = StreamingEvaluator(pcea, window=32, kernel=second)
        target.restore(snap)
        assert target.kernel_info()["active"] == second  # restore keeps the backend
        for tup in stream[half:]:
            assert target.process(tup) == source.process(tup)
        assert target.evicted == source.evicted
        assert target.ds.nodes_created == source.ds.nodes_created
        assert target.snapshot() == source.snapshot()

    @pytest.mark.parametrize(
        "first,second", [("python", "native"), ("native", "python")]
    )
    def test_repeated_cross_restore_round_trips(self, first, second):
        # python -> native -> python (and the reverse) over the same snapshot:
        # the serialised form must be a fixed point under either backend.
        pcea = hcq_to_pcea(star_query(2))
        stream = star2_stream(seed=13, length=600)
        source = StreamingEvaluator(pcea, window=16, kernel=first)
        for tup in stream:
            source.process(tup)
        snap = source.snapshot()
        other = StreamingEvaluator(pcea, window=16, kernel=second)
        other.restore(snap)
        assert other.snapshot() == snap
        back = StreamingEvaluator(pcea, window=16, kernel=first)
        back.restore(other.snapshot())
        assert back.snapshot() == snap
