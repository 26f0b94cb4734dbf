"""Fig 11 — naive matrix multiplication speedup vs fork/join pool size.

Paper (quad-CPU Xeon E7-8837, 32 cores): "This program is
embarrassingly parallel, and has a high computation to communication
ratio (after applying compiler optimisations, only one tuple per row of
the output matrix needs to go through the delta set), so shows good
speedup up to 20 cores."

Reproduced with N=96 rows (scaled from 1000) on the virtual machine:
near-linear to ~16–20 cores, flattening beyond as memory bandwidth and
per-step overheads bite.
"""

from __future__ import annotations

import pytest

from repro.apps.matmul import random_matrix, run_matmul
from repro.figures import speedup_series
from repro.core import ExecOptions

N = 96
THREADS = (1, 2, 4, 8, 12, 16, 20, 24, 32)
OPT = ExecOptions(no_delta=frozenset({"Matrix"}))

A = random_matrix(N, 1)
B = random_matrix(N, 2)


@pytest.fixture(scope="module")
def series():
    seq, _ = run_matmul(A, B, OPT, "unboxed")

    def run(threads: int) -> float:
        r, c = run_matmul(
            A, B, OPT.with_(strategy="forkjoin", threads=threads), "unboxed"
        )
        assert (c == A @ B).all()
        return r.virtual_time

    return speedup_series("matmul N=96 (unboxed)", THREADS, run, sequential=seq.virtual_time)


def test_fig11_wall_8_threads(benchmark):
    benchmark.pedantic(
        lambda: run_matmul(A, B, OPT.with_(strategy="forkjoin", threads=8), "unboxed"),
        rounds=3,
        warmup_rounds=1,
    )


def test_fig11_report(benchmark, series, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    rel = dict(zip(series.threads, series.relative))
    emit(
        "fig11_matmul_speedup",
        "### Fig 11 — MatrixMult speedup vs pool size (paper: good speedup to ~20 cores)\n"
        + series.format()
        + f"\n\nspeedup at 8/16/20/32: {rel[8]:.2f} / {rel[16]:.2f} / {rel[20]:.2f} / {rel[32]:.2f}"
        + "\n(paper's Fig 11 shows near-linear to ~20, then flat)",
    )
    # near-linear early
    assert rel[2] > 1.7
    assert rel[8] > 5.5
    # good speedup up to ~20
    assert rel[20] > 11.0
    # flattening: the 20->32 gain is clearly sub-linear
    assert (rel[32] - rel[20]) / (32 - 20) < 0.75
    # never decreasing
    speeds = [rel[t] for t in THREADS]
    assert all(b >= a * 0.97 for a, b in zip(speeds, speeds[1:]))
