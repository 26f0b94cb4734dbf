"""Fig 10 — execution times of the Disruptor PvWatts, threads 1–8,
unsorted (by-month) vs sorted (round-robin) input.

Paper (i7-2600, 4 cores + HT): "the Disruptor version with 8 threads
has a speedup of 3.31 over the sequential PvWatts JStar code" on the
default (by-month) input; on the sorted input "the Disruptor version
with 8 threads has a speedup of 2.52", because sorting "makes both the
sequential and parallel programs faster".

Reproduction notes (EXPERIMENTS.md 'Fig 10'):

* the sequential reference is the engine's sequential PvWatts virtual
  time, identical for both input orders in our cost model;
* the paper's sorted-sequential advantage is a cache-locality effect
  outside the cost model's scope — we adopt it as an exogenous factor
  (``SORTED_SEQ_FACTOR``, derived from the paper's own numbers) and
  report results both with and without it;
* the *mechanisms* are genuinely modelled: by-month input overloads one
  consumer and stalls the producer on the ring (reported), round-robin
  balances the twelve consumers and is faster in absolute time.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import run_pvwatts
from repro.apps.pvwatts_disruptor import run_disruptor_simulated, run_disruptor_threaded
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions

THREADS = (1, 2, 4, 8)
PAPER_SPEEDUP_UNSORTED = 3.31
PAPER_SPEEDUP_SORTED = 2.52
#: paper-derived locality factor: sorted input speeds the sequential
#: JStar program by roughly the ratio of the two reported speedups
#: times the parallel-time ratio
SORTED_SEQ_FACTOR = 0.72


@pytest.fixture(scope="module")
def sweep(csv_by_month, csv_round_robin):
    seq = run_pvwatts(
        csv_by_month, ExecOptions(no_delta=frozenset({"PvWatts"}))
    ).virtual_time
    out = {}
    for label, data in (("unsorted/by-month", csv_by_month), ("sorted/round-robin", csv_round_robin)):
        out[label] = {
            t: run_disruptor_simulated(data, threads=t) for t in THREADS
        }
    return seq, out


def test_fig10_threaded_wall(benchmark, csv_by_month):
    """Wall measurement of the real-threads Disruptor (functional)."""
    means = benchmark.pedantic(
        lambda: run_disruptor_threaded(csv_by_month), rounds=2, warmup_rounds=1
    )
    assert len(means) == 12


def test_fig10_report(benchmark, sweep, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    seq, out = sweep
    rows = []
    for label, results in out.items():
        for t in THREADS:
            rows.append(FigureRow(f"{label} @{t} threads (wu)", results[t].elapsed))
    un8 = out["unsorted/by-month"][8]
    so8 = out["sorted/round-robin"][8]
    speedup_unsorted = seq / un8.elapsed
    speedup_sorted_raw = seq / so8.elapsed
    speedup_sorted_adj = (seq * SORTED_SEQ_FACTOR) / so8.elapsed
    rows += [
        FigureRow("sequential reference (wu)", seq),
        FigureRow("speedup @8, unsorted", speedup_unsorted, paper=PAPER_SPEEDUP_UNSORTED),
        FigureRow("speedup @8, sorted (common ref)", speedup_sorted_raw),
        FigureRow(
            "speedup @8, sorted (paper-derived seq locality factor)",
            speedup_sorted_adj,
            paper=PAPER_SPEEDUP_SORTED,
        ),
        FigureRow("producer stalls, unsorted @8", float(un8.producer_stalls)),
        FigureRow("producer stalls, sorted @8", float(so8.producer_stalls)),
    ]
    emit(
        "fig10_disruptor",
        figure_block(
            "Fig 10 — Disruptor PvWatts execution times (virtual), both input orders",
            rows,
            note="sorted input is faster in absolute time at every thread "
            "count; by-month runs stall the producer on the hot consumer",
        ),
    )
    # shape assertions
    assert 2.3 < speedup_unsorted < 4.5            # paper: 3.31
    for t in THREADS:
        assert (
            out["sorted/round-robin"][t].elapsed
            <= out["unsorted/by-month"][t].elapsed + 1e-6
        )
    assert un8.producer_stalls > so8.producer_stalls
    # monotone in threads
    for label in out:
        elapsed = [out[label][t].elapsed for t in THREADS]
        assert elapsed == sorted(elapsed, reverse=True)
