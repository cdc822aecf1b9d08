"""The repo's benchmark: four workloads, six end-to-end metrics, per-layer tracing.

Run it with ``python3 benchmarks/suite/run.py`` from the repository root; the
contract it meets is ``BENCHMARK.json``, the definitions are in ``README.md``.
"""
