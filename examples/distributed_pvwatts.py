#!/usr/bin/env python3
"""Distributing a JStar program without touching it (§2 stage 3).

The paper's workflow says distribution decisions — "whether each set of
tuples should be partitioned, duplicated or shared across the different
cores or computers, and how the communication should be implemented" —
live outside the program.  This example takes the unmodified PvWatts
program and:

1. statically checks a placement's query locality (stage 2/3 tooling);
2. runs it on simulated clusters of 1–8 nodes — the sharded tier
   (``ExecOptions(strategy="processes")``) on its cost-model backend,
   ``transport="model"``; ``pipe`` or ``tcp`` would fork real workers;
3. compares a good placement (co-partition PvWatts and SumMonth by
   month) with a bad one (partition by day) — same program, same
   output, very different communication bills.

Run:  python examples/distributed_pvwatts.py
"""

from repro.apps.pvwatts import build_pvwatts_program, month_means_from_output
from repro.core import ExecOptions
from repro.csvio import generate_csv_bytes
from repro.dist import Partitioned, Replicated, check_locality, run_sharded

GOOD = {
    "PvWattsRequest": Replicated(),
    "ReadRegion": Partitioned("start"),
    "PvWatts": Partitioned("month"),
    "SumMonth": Partitioned("month"),
}
BAD = {**GOOD, "PvWatts": Partitioned("day")}


def simulate(program, nodes, placements):
    opts = ExecOptions(threads=nodes, placements=placements)
    return run_sharded(program, opts, transport="model")


def main() -> None:
    data = generate_csv_bytes(n_years=1, seed=42)

    def build():
        return build_pvwatts_program({"f.csv": data}, "f.csv", n_readers=8)

    ref = month_means_from_output(build().program.run(ExecOptions()).output)

    print("== static locality check (month co-partitioning) ==")
    for finding in check_locality(build().program, GOOD):
        print(" ", finding)

    print("\n== node sweep, good placement ==")
    for nodes in (1, 2, 4, 8):
        r = simulate(build().program, nodes, GOOD)
        assert month_means_from_output(sorted(r.output)) == ref
        compute = [nd["compute"] for nd in r.nodes]
        print(
            f"  {nodes} node(s): elapsed {r.virtual_time:9,.0f} wu "
            f"(compute {r.report.compute:,.0f}, comm {r.report.comm:,.0f}; "
            f"{r.report.tuples_moved} tuples moved, "
            f"imbalance {max(compute) * nodes / sum(compute):.2f})"
        )

    print("\n== placement experiment at 4 nodes (same program!) ==")
    for label, placements in (("by month (good)", GOOD), ("by day (bad)", BAD)):
        r = simulate(build().program, 4, placements)
        assert month_means_from_output(sorted(r.output)) == ref
        reads = sum(nd["probes_remote"] for nd in r.nodes)
        trips = sum(nd["remote_queries"] for nd in r.nodes)
        print(
            f"  {label:17s}: elapsed {r.virtual_time:9,.0f} wu, "
            f"remote reads {reads} in {trips} round trips, "
            f"messages {r.report.messages}"
        )
    print("\nco-partitioning keeps every SumMonth reduce on its own node —")
    print("the experiment cost a placement dict, not a program rewrite (§2)")


if __name__ == "__main__":
    main()
