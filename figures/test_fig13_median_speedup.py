"""Fig 13 — Median-finding speedup vs fork/join pool size.

Paper (quad-CPU Xeon E7-8837, 32 cores): "we get the speedup results
shown in Fig. 13, with good speedup 8.6X up to 12 cores, and then a
more gradual speedup up to a maximum of 14X with 32 cores."

Scaled array: 200 000 doubles (from 100 M), 24 regions, the §6.6
optimisation stack (two-iteration native-array store, bulk writes, no
Delta transit for Data).  Saturation comes from the per-iteration
barrier plus the serial controller — Amdahl inside every iteration.
"""

from __future__ import annotations

import pytest

from repro.apps.baselines.median_base import median_sort_baseline
from repro.apps.median import median_from_result, random_doubles, run_median
from repro.figures import speedup_series
from repro.core import ExecOptions

N = 200_000
THREADS = (1, 2, 4, 8, 12, 16, 24, 32)
VALS = random_doubles(N, seed=9)


@pytest.fixture(scope="module")
def series():
    truth = median_sort_baseline(VALS)
    seq = run_median(VALS)
    assert median_from_result(seq) == truth

    def run(threads: int) -> float:
        r = run_median(VALS, ExecOptions(strategy="forkjoin", threads=threads))
        assert median_from_result(r) == truth
        return r.virtual_time

    return speedup_series("median n=200k, 24 regions", THREADS, run, sequential=seq.virtual_time)


def test_fig13_wall_12_threads(benchmark):
    benchmark.pedantic(
        lambda: run_median(VALS, ExecOptions(strategy="forkjoin", threads=12)),
        rounds=3,
        warmup_rounds=1,
    )


def test_fig13_report(benchmark, series, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    rel = dict(zip(series.threads, series.relative))
    emit(
        "fig13_median_speedup",
        "### Fig 13 — Median speedup vs pool size (paper: 8.6x @ 12, 14x @ 32)\n"
        + series.format()
        + f"\n\nspeedup at 12: {rel[12]:.2f} (paper 8.6); at 32: {rel[32]:.2f} (paper ~14)",
    )
    assert 6.5 < rel[12] < 11.0    # paper 8.6
    assert 11.0 < rel[32] < 17.0   # paper ~14
    # "more gradual" after 12: per-core gain drops
    early = (rel[12] - rel[1]) / 11
    late = (rel[32] - rel[12]) / 20
    assert late < early
    # monotone
    speeds = [rel[t] for t in THREADS]
    assert all(b >= a * 0.97 for a, b in zip(speeds, speeds[1:]))
