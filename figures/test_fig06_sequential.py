"""Fig 6 — absolute sequential speed: JStar programs vs hand-coded
baselines, ten bars across the four case studies.

Paper numbers (seconds on an i7-2600): PvWatts 4.7 (JStar) vs 5.9
(Java); MatrixMult 21.9 (boxed) / 8.1 (int) vs 7.5 (naive Java) / 1.0
(transposed Java); Dijkstra 3.8 vs 1.8; Median 6.8 vs 13.4.

We reproduce the *pairwise ratios* at scaled workloads (see
DESIGN.md §4).  Two panels are emitted:

* measured wall seconds for every bar (pytest-benchmark measures the
  headline pairs; the sweep below reports single-shot numbers for all
  ten), with honest deviations where CPython interpretation of the
  runtime dominates (PvWatts, Dijkstra — see EXPERIMENTS.md);
* component claims measured in isolation where the paper names the
  cause of a gap: byte-CSV vs text-CSV reading (PvWatts's win) and
  selection vs full sort kernels (Median's win).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.baselines.matmul_base import matmul_naive, matmul_transposed
from repro.apps.baselines.median_base import (
    kernel_comparison,
    median_sort_baseline,
)
from repro.apps.baselines.pvwatts_base import pvwatts_baseline
from repro.apps.baselines.shortestpath_base import dijkstra_baseline
from repro.apps.matmul import random_matrix, run_matmul
from repro.apps.median import median_from_result, random_doubles, run_median
from repro.apps.pvwatts import month_means_from_output, run_pvwatts
from repro.apps.shortestpath import (
    GraphSpec,
    distances_from_result,
    make_graph,
    run_shortestpath,
)
from repro.figures import comparison_block
from repro.core import ExecOptions
from repro.csvio import PVWATTS_INT_POSITIONS, read_records_bytes, read_records_text

MATMUL_N = 96
SP_SPEC = GraphSpec(n_vertices=2000, extra_edges=4000)
MEDIAN_N = 2_000_000

PAPER_RATIOS = {
    "pvwatts jstar/java": 4.7 / 5.9,
    "matmul boxed/int": 21.9 / 8.1,
    "matmul int/naive": 8.1 / 7.5,
    "matmul naive/transposed": 7.5 / 1.0,
    "dijkstra jstar/java": 3.8 / 1.8,
    "median java/jstar": 13.4 / 6.8,
}


def _once(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


@pytest.fixture(scope="module")
def fig6_rows(csv_by_month):
    """Single-shot wall times for all ten bars."""
    rows: dict[str, float] = {}
    seq = ExecOptions(strategy="sequential")

    t, r = _once(lambda: run_pvwatts(csv_by_month, seq.with_(no_delta=frozenset({"PvWatts"}))))
    assert len(month_means_from_output(r.output)) == 12
    rows["pvwatts jstar"] = t
    rows["pvwatts java"], base_means = _once(lambda: pvwatts_baseline(csv_by_month))
    assert len(base_means) == 12

    a, b = random_matrix(MATMUL_N, 1), random_matrix(MATMUL_N, 2)
    truth = a @ b
    mm_opts = seq.with_(no_delta=frozenset({"Matrix"}))
    for variant in ("boxed", "unboxed"):
        t, (_, c) = _once(lambda v=variant: run_matmul(a, b, mm_opts, v))
        assert (c == truth).all()
        rows[f"matmul {variant}"] = t
    t, c = _once(lambda: matmul_naive(a, b))
    assert (c == truth).all()
    rows["matmul naive"] = t
    t, c = _once(lambda: matmul_transposed(a, b))
    assert (c == truth).all()
    rows["matmul transposed"] = t

    edges = make_graph(SP_SPEC)
    t, r = _once(lambda: run_shortestpath(SP_SPEC))
    rows["dijkstra jstar"] = t
    t, base = _once(lambda: dijkstra_baseline(edges, SP_SPEC.n_vertices))
    rows["dijkstra java"] = t
    assert distances_from_result(r) == base

    vals = random_doubles(MEDIAN_N)
    t, r = _once(lambda: run_median(vals))
    rows["median jstar"] = t
    t, m = _once(lambda: median_sort_baseline(vals))
    rows["median java"] = t
    assert median_from_result(r) == m
    return rows


class TestFig6Pairs:
    """pytest-benchmark wall measurements of the four headline pairs."""

    def test_pvwatts_jstar(self, benchmark, csv_by_month):
        benchmark.pedantic(
            lambda: run_pvwatts(
                csv_by_month, ExecOptions(no_delta=frozenset({"PvWatts"}))
            ),
            rounds=3,
            warmup_rounds=1,
        )

    def test_pvwatts_baseline(self, benchmark, csv_by_month):
        benchmark.pedantic(lambda: pvwatts_baseline(csv_by_month), rounds=5, warmup_rounds=1)

    def test_matmul_jstar_unboxed(self, benchmark):
        a, b = random_matrix(MATMUL_N, 1), random_matrix(MATMUL_N, 2)
        opts = ExecOptions(no_delta=frozenset({"Matrix"}))
        benchmark.pedantic(lambda: run_matmul(a, b, opts, "unboxed"), rounds=3, warmup_rounds=1)

    def test_matmul_baseline_naive(self, benchmark):
        a, b = random_matrix(MATMUL_N, 1), random_matrix(MATMUL_N, 2)
        benchmark.pedantic(lambda: matmul_naive(a, b), rounds=3, warmup_rounds=1)

    def test_dijkstra_jstar(self, benchmark):
        benchmark.pedantic(lambda: run_shortestpath(SP_SPEC), rounds=3, warmup_rounds=1)

    def test_dijkstra_baseline(self, benchmark):
        edges = make_graph(SP_SPEC)
        benchmark.pedantic(
            lambda: dijkstra_baseline(edges, SP_SPEC.n_vertices), rounds=5, warmup_rounds=1
        )

    def test_median_jstar(self, benchmark):
        vals = random_doubles(MEDIAN_N)
        benchmark.pedantic(lambda: run_median(vals), rounds=3, warmup_rounds=1)

    def test_median_baseline(self, benchmark):
        vals = random_doubles(MEDIAN_N)
        benchmark.pedantic(lambda: median_sort_baseline(vals), rounds=3, warmup_rounds=1)


def test_fig06_report(benchmark, fig6_rows, csv_by_month, emit):
    """Assemble the Fig 6 panel: measured bars, pairwise ratios vs the
    paper's, and the two component claims in isolation."""
    rows = fig6_rows
    pairs = [
        ("pvwatts jstar/java", rows["pvwatts jstar"], rows["pvwatts java"]),
        ("matmul boxed/int", rows["matmul boxed"], rows["matmul unboxed"]),
        ("matmul int/naive", rows["matmul unboxed"], rows["matmul naive"]),
        ("matmul naive/transposed", rows["matmul naive"], rows["matmul transposed"]),
        ("dijkstra jstar/java", rows["dijkstra jstar"], rows["dijkstra java"]),
        ("median java/jstar", rows["median java"], rows["median jstar"]),
    ]
    block = comparison_block(
        "Fig 6 — sequential JStar vs hand-coded baselines (wall seconds, scaled workloads)",
        pairs,
        paper_ratios=PAPER_RATIOS,
        note=(
            "shape targets: median & matmul pairs reproduce; pvwatts/dijkstra "
            "absolute ratios are dominated by CPython interpretation of the "
            "runtime (see EXPERIMENTS.md); their causal components follow."
        ),
    )

    # component claim 1: byte reader beats text reader (PvWatts's win);
    # measured on a 3-year file so the ~10 % gap clears timing noise
    from repro.csvio import generate_csv_bytes

    big_csv = generate_csv_bytes(n_years=3, seed=42)

    def read_bytes():
        return read_records_bytes(big_csv, PVWATTS_INT_POSITIONS, 5)

    def read_text():
        return read_records_text(big_csv, PVWATTS_INT_POSITIONS, 5)

    def best_of(fn, reps=7):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    benchmark.pedantic(read_bytes, rounds=3, warmup_rounds=1)
    t_bytes = best_of(read_bytes)
    t_text = best_of(read_text)

    # component claim 2: selection kernel beats full-sort kernel (Median)
    import numpy as np

    vals = random_doubles(MEDIAN_N)
    sel, srt = kernel_comparison(vals)
    assert sel == srt
    t_sel = best_of(lambda: np.partition(vals, (MEDIAN_N - 1) // 2), reps=5)
    t_sort = best_of(lambda: np.sort(vals), reps=5)

    block += "\n\n" + comparison_block(
        "Fig 6 components — causes measured in isolation",
        [
            ("csv byte-reader/text-reader", t_bytes, t_text),
            ("median selection/sort kernel", t_sel, t_sort),
        ],
        paper_ratios={
            "csv byte-reader/text-reader": 0.8,  # implied by the PvWatts pair
            "median selection/sort kernel": 0.5,  # ~2x selection win
        },
    )
    emit("fig06_sequential", block)
    assert rows["matmul boxed"] > rows["matmul unboxed"]
    assert rows["median java"] > rows["median jstar"]
    assert t_bytes < t_text
    assert t_sel < t_sort
