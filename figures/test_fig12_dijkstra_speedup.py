"""Fig 12 — Dijkstra shortest-path speedup vs fork/join pool size.

Paper (dual-CPU Xeon W5590, 8 cores): "This has mediocre speedup, with
a maximum speedup of only 4.0 (8 cores).  This seems to be because the
inner loop of the program puts several million Estimate tuples through
the Delta tree, which is still not sufficiently scalable to cope with a
large number of threads contending for the same branches of the tree."

Scaled graph: |V| = 2 000, |E| ≈ 8 000 directed (tree + extras, both
directions), §6.5's optimisation set (24 parallel graph-gen tasks,
-noDelta Edge/Vertex, -noGamma Estimate).  The bench also reports how
much of the parallel-run slowdown the machine attributes to Delta-tree
contention — the paper's diagnosis, measurable here.
"""

from __future__ import annotations

import pytest

from repro.apps.baselines.shortestpath_base import dijkstra_baseline
from repro.apps.shortestpath import (
    GraphSpec,
    distances_from_result,
    make_graph,
    recommended_options,
    run_shortestpath,
)
from repro.figures import speedup_series
from repro.core import ExecOptions

SPEC = GraphSpec(n_vertices=2000, extra_edges=4000)
#: smaller instance for the index-mode cost note (one-off sequential runs)
SPEC_SMALL = GraphSpec(n_vertices=500, extra_edges=1000)
THREADS = (1, 2, 4, 6, 8)
PAPER_MAX = 4.0


@pytest.fixture(scope="module")
def series():
    truth = dijkstra_baseline(make_graph(SPEC), SPEC.n_vertices)
    seq = run_shortestpath(SPEC)
    assert distances_from_result(seq) == truth

    contention = {}

    def run(threads: int) -> float:
        r = run_shortestpath(
            SPEC, recommended_options(ExecOptions(strategy="forkjoin", threads=threads))
        )
        assert distances_from_result(r) == truth
        contention[threads] = r.report.contention / max(r.report.elapsed, 1e-9)
        return r.virtual_time

    s = speedup_series("dijkstra |V|=2000", THREADS, run, sequential=seq.virtual_time)
    return s, contention


def test_fig12_wall_8_threads(benchmark):
    benchmark.pedantic(
        lambda: run_shortestpath(
            SPEC, recommended_options(ExecOptions(strategy="forkjoin", threads=8))
        ),
        rounds=2,
        warmup_rounds=1,
    )


def test_fig12_report(benchmark, series, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    s, contention = series
    rel = dict(zip(s.threads, s.relative))

    # index-mode note: §6.5's first hand optimisation is the hash store
    # on Edge keyed by src; on *default* stores, index_mode="auto"
    # derives the same access path from the rule's query shape alone
    off = run_shortestpath(SPEC_SMALL, ExecOptions(index_mode="off"))
    auto = run_shortestpath(SPEC_SMALL, ExecOptions(index_mode="auto"))
    assert auto.output_text() == off.output_text()
    sel_off = off.meter.cost_by_prefix("gamma_lookup:")
    sel_auto = auto.meter.cost_by_prefix("gamma_lookup:") + auto.meter.cost_by_prefix(
        "gamma_ixlookup:"
    )
    assert auto.meter.cost_by_prefix("gamma_ixlookup:Edge") > 0
    assert sel_auto < sel_off

    emit(
        "fig12_dijkstra_speedup",
        "### Fig 12 — Dijkstra speedup vs pool size (paper: mediocre, max 4.0 at 8 cores)\n"
        + s.format()
        + f"\n\nmax relative speedup: {max(rel.values()):.2f} (paper 4.0)"
        + f"\nDelta-tree contention share of elapsed at 8 threads: {contention[8]:.0%}"
        + "\n(the paper's diagnosis: Estimate tuples contending in the Delta tree)"
        + f"\nauto-index on default stores (|V|={SPEC_SMALL.n_vertices}): "
        + f"select cost {sel_off:.1f} -> {sel_auto:.1f} "
        + "(planner derives §6.5's Edge hash(src) by itself)",
    )
    # mediocre: max speedup lands in the paper's band, nowhere near linear
    assert 3.0 < max(rel.values()) < 5.5
    assert rel[8] < 8 * 0.7
    # the machine attributes a visible share of time to Delta contention
    assert contention[8] > 0.10
    # the curve bends early: marginal gain 4 -> 8 threads well below linear
    assert (rel[8] - rel[4]) / 4 < 0.5
