"""Ablation — distributed execution hints (§2 stage 3).

The paper's workflow promise, applied to clusters: "whether each set of
tuples should be partitioned, duplicated or shared across the different
cores or computers ... These instructions are separate from the
program" — so alternative distributions are an experiment, not a
rewrite.  This bench runs PvWatts on the simulated cluster with

* a node sweep under the good placement (everything keyed by month —
  the reduce phase is fully local), and
* three placements at 4 nodes: co-partitioned by month, mis-partitioned
  by day (the SumMonth reduce becomes remote), and PvWatts replicated
  (queries local, every insert broadcast).

Assertions encode the qualitative cluster truths: compute shrinks with
nodes while communication grows; co-partitioning beats
mis-partitioning; replication trades insert traffic for query locality.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import build_pvwatts_program, month_means_from_output
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions
from repro.dist import Partitioned, Replicated, run_sharded

GOOD = {
    "PvWattsRequest": Replicated(),
    "ReadRegion": Partitioned("start"),
    "PvWatts": Partitioned("month"),
    "SumMonth": Partitioned("month"),
}
MISALIGNED = {**GOOD, "PvWatts": Partitioned("day")}
REPLICATED = {**GOOD, "PvWatts": Replicated()}


def simulate(program, nodes, placements):
    """``program`` on the cost-model backend of the sharded tier."""
    opts = ExecOptions(threads=nodes, placements=placements)
    return run_sharded(program, opts, transport="model")


def probes_remote(result) -> int:
    return sum(nd["probes_remote"] for nd in result.nodes)


@pytest.fixture(scope="module")
def runs(csv_by_month):
    def build():
        return build_pvwatts_program({"f.csv": csv_by_month}, "f.csv", n_readers=8)

    ref = month_means_from_output(build().program.run(ExecOptions()).output)

    sweep = {}
    for nodes in (1, 2, 4, 8):
        r = simulate(build().program, nodes, GOOD)
        assert month_means_from_output(sorted(r.output)) == ref
        sweep[nodes] = r

    mis = simulate(build().program, 4, MISALIGNED)
    repl = simulate(build().program, 4, REPLICATED)
    for r in (mis, repl):
        assert month_means_from_output(sorted(r.output)) == ref
    return sweep, mis, repl


def test_ablation_distribution_report(benchmark, runs, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    sweep, mis, repl = runs
    rows = []
    for nodes, r in sweep.items():
        rows.append(
            FigureRow(
                f"{nodes} node(s): elapsed (wu) [compute/comm]",
                r.virtual_time,
            )
        )
        rows.append(FigureRow(f"  {nodes}-node compute", r.report.compute))
        rows.append(FigureRow(f"  {nodes}-node comm", r.report.comm))
    good4 = sweep[4]
    rows += [
        FigureRow("4 nodes, month-partitioned: remote queries", float(probes_remote(good4))),
        FigureRow("4 nodes, day-partitioned: remote queries", float(probes_remote(mis))),
        FigureRow("4 nodes, day-partitioned elapsed (wu)", mis.virtual_time),
        FigureRow("4 nodes, PvWatts replicated: tuples moved", float(repl.report.tuples_moved)),
        FigureRow("4 nodes, PvWatts replicated elapsed (wu)", repl.virtual_time),
    ]
    emit(
        "ablation_distribution",
        figure_block(
            "Ablation — §2 stage-3 distribution hints on PvWatts (simulated cluster)",
            rows,
            note="placements changed as data only; outputs byte-identical; "
            "co-partitioning by month keeps the reduce phase local",
        ),
    )
    # compute shrinks with nodes; communication appears
    assert sweep[4].report.compute < sweep[1].report.compute
    assert sweep[8].report.compute < sweep[2].report.compute
    assert sweep[4].report.comm > sweep[1].report.comm
    # co-partitioning keeps the reduce local; day-partitioning doesn't
    assert probes_remote(good4) == 0
    assert probes_remote(mis) > 0
    assert good4.virtual_time < mis.virtual_time
    # replication multiplies insert traffic
    assert repl.report.tuples_moved > good4.report.tuples_moved * 2
