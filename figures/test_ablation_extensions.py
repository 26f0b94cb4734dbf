"""Ablation — the §5.2 'additional parallelism' headroom.

Paper: "this parallel implementation does not take advantage of all
the potential parallelism ... we could create one task per rule that
is triggered.  Also, within a rule, any loop that does not use a
reducer object is known to have independent loop bodies, so these
could be executed in parallel.  Loops that do involve a reducer object
could also be executed in parallel, with a tree-based pass to combine
the final reducer results."  And in §8: "[the graph-generation rewrite]
would be less necessary if our implementation exploited the
embarrassingly parallel for loops within rules."

This bench turns those extensions ON (they are opt-in features here)
and measures the recovered headroom:

* PvWatts with the SumMonth reducer loop run through ``par_reduce`` —
  12 reducer tasks become 12 × chunks of divisible work;
* the §8 claim directly: ShortestPath graph generation as ONE rule
  whose edge loop is a parallel reducer loop vs the paper's manual
  24-task rewrite — the extension makes the rewrite unnecessary.
"""

from __future__ import annotations

import pytest

from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions, Program, Statistics
from repro.csvio import PVWATTS_INT_POSITIONS, read_records_bytes


def pvwatts_parloop_program(data: bytes, use_par_reduce: bool):
    """PvWatts variant whose reduce loop optionally uses par_reduce."""
    p = Program("pvwatts-parloop")
    Req = p.table("Req", "str filename", orderby=("Req",))
    PvWatts = p.table(
        "PvWatts", "int year, int month, int day, str hour, int power",
        orderby=("PvWatts",),
    )
    SumMonth = p.table("SumMonth", "int year, int month", orderby=("SumMonth",))
    p.order("Req", "PvWatts", "SumMonth")

    @p.foreach(Req, unsafe=True)
    def read_loop(ctx, req):
        def on_record(rec):
            y, m, d, hour, power = rec
            ctx.put(PvWatts.new(y, m, d, hour.decode("ascii"), power))
        n = read_records_bytes(data, PVWATTS_INT_POSITIONS, 5, on_record=on_record)
        ctx.charge(0.8 * n, "csv_parse")

    @p.foreach(PvWatts)
    def make_summonth(ctx, pv):
        ctx.put(SumMonth.new(pv.year, pv.month))

    # a deliberately analytics-heavy reducer pass (2 wu/record): the
    # regime where the 12 month-tasks alone cannot fill a large machine
    REDUCE_COST = 2.0

    @p.foreach(SumMonth)
    def average_month(ctx, s):
        rows = ctx.get(PvWatts, s.year, s.month)
        if use_par_reduce:
            stats = ctx.par_reduce(
                (r.power for r in rows), Statistics(), chunks=16,
                cost_per_item=REDUCE_COST,
            )
        else:
            acc = Statistics().zero()
            red = Statistics()
            for r in rows:
                acc = red.step(acc, r.power)
            ctx.charge(REDUCE_COST * len(rows), "reduce_op")
            stats = acc
        ctx.println(f"{s.year}/{s.month}: {stats.mean:.3f}")

    p.put(Req.new("f.csv"))
    return p


def shortestpath_single_rule_program(parallel_loop: bool):
    """Graph generation as ONE rule (the paper's original design that
    became a >60% bottleneck), with the edge loop optionally divisible."""
    from repro.apps.shortestpath import GraphSpec, make_graph
    from repro.core import SumReducer

    spec = GraphSpec(n_vertices=1000, extra_edges=2000)
    edges = make_graph(spec)

    p = Program("gen-single-rule")
    Cmd = p.table("Cmd", "int n", orderby=("Gen",))
    Edge = p.table("Edge", "int src, int dst, int value", orderby=("Edge",))
    p.order("Gen", "Edge")

    @p.foreach(Cmd, unsafe=True)
    def generate(ctx, cmd):
        store = ctx.native(Edge)
        for s, d, w in edges:
            store.insert(Edge.new(s, d, w))
        if parallel_loop:
            # "any loop that does not use a reducer object is known to
            # have independent loop bodies" — meter it as divisible
            # (1.2 wu/edge, the same RNG+alloc cost the 24-task version
            # charges)
            ctx.par_reduce(range(len(edges)), SumReducer(), chunks=24, cost_per_item=1.2)
        else:
            ctx.charge(1.2 * len(edges), "user_work")

    p.put(Cmd.new(spec.n_vertices))
    return p


def reduce_phase_probe(par: bool) -> float:
    """The reduce phase in isolation: 12 month-tasks on 32 cores, each
    folding ~730 records (2 wu each) — with and without par_reduce."""
    from repro.core import SumReducer

    p = Program("reduce-phase")
    Go = p.table("Go", "int month", orderby=("B", "par month"))

    @p.foreach(Go)
    def agg(ctx, go):
        if par:
            ctx.par_reduce(range(730), SumReducer(), chunks=16, cost_per_item=2.0)
        else:
            ctx.charge(2.0 * 730)

    for m in range(12):
        p.put(Go.new(m))
    return p.run(ExecOptions(strategy="forkjoin", threads=32)).virtual_time


@pytest.fixture(scope="module")
def measurements(csv_by_month):
    # 32 cores: 12 month-tasks alone leave most of the machine idle —
    # exactly when in-rule loop parallelism matters.  The custom
    # per-month store removes read contention (as in Fig 8), leaving
    # the reducer loop itself as the phase bottleneck.
    from repro.apps.pvwatts import array_of_hashsets_store

    opts32 = ExecOptions(
        strategy="forkjoin",
        threads=32,
        no_delta=frozenset({"PvWatts"}),
        store_overrides={"PvWatts": array_of_hashsets_store()},
    )
    opts8 = opts32.with_(threads=8)
    pv_plain = pvwatts_parloop_program(csv_by_month, False).run(opts32)
    pv_par = pvwatts_parloop_program(csv_by_month, True).run(opts32)
    assert sorted(pv_plain.output) == sorted(pv_par.output)

    gen_plain = shortestpath_single_rule_program(False).run(opts8)
    gen_par = shortestpath_single_rule_program(True).run(opts8)
    phase_plain = reduce_phase_probe(False)
    phase_par = reduce_phase_probe(True)
    return pv_plain, pv_par, gen_plain, gen_par, phase_plain, phase_par


def test_ablation_extensions_report(benchmark, measurements, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    pv_plain, pv_par, gen_plain, gen_par, phase_plain, phase_par = measurements
    rows = [
        FigureRow("reduce phase @32, 12 serial loops (wu)", phase_plain),
        FigureRow("reduce phase @32, par_reduce loops (wu)", phase_par),
        FigureRow("  phase-level gain", phase_plain / phase_par),
        FigureRow("PvWatts @32, sequential reducer loops (wu)", pv_plain.virtual_time),
        FigureRow("PvWatts @32, par_reduce loops (wu)", pv_par.virtual_time),
        FigureRow("  reducer-loop gain", pv_plain.virtual_time / pv_par.virtual_time),
        FigureRow("graph-gen @8, single rule, serial loop (wu)", gen_plain.virtual_time),
        FigureRow("graph-gen @8, single rule, parallel loop (wu)", gen_par.virtual_time),
        FigureRow("  §8 claim: gain w/o manual 24-task rewrite",
                  gen_plain.virtual_time / gen_par.virtual_time),
    ]
    emit(
        "ablation_extensions",
        figure_block(
            "Ablation — §5.2 extensions (per-rule loops as divisible work)",
            rows,
            note="the parallel-loop extension recovers the parallelism the "
            "paper otherwise obtained by manually splitting rules (§6.5/§8)",
        ),
    )
    # the reduce *phase* gains >2x; the whole program a few percent
    # (its read phase dominates, which is §6.3's motivation for the
    # Disruptor redesign rather than more in-rule parallelism)
    assert phase_plain / phase_par > 2.0
    assert pv_par.virtual_time < pv_plain.virtual_time * 0.99
    # the single-rule generator parallelises without the manual rewrite
    assert gen_par.virtual_time < gen_plain.virtual_time / 3
