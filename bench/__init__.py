"""The repo's single benchmark: five named workloads over the JStar
runtime, end-to-end metrics with regression bounds (``BENCHMARK.json``)
and an outside-in per-layer trace.  See ``bench/README.md``.

Nothing here is imported by ``repro``; the benchmark only drives the
runtime through its public entry points.
"""
