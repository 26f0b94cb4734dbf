#!/usr/bin/env python3
"""Distributing a JStar program without touching it (§2 stage 3).

The paper's workflow says distribution decisions — "whether each set of
tuples should be partitioned, duplicated or shared across the different
cores or computers, and how the communication should be implemented" —
live outside the program.  This example takes the unmodified PvWatts
program and:

1. statically checks a placement's query locality (stage 2/3 tooling);
2. runs it on simulated clusters of 1–8 nodes;
3. compares a good placement (co-partition PvWatts and SumMonth by
   month) with a bad one (partition by day) — same program, same
   output, very different communication bills.

Run:  python examples/distributed_pvwatts.py
"""

from repro.apps.pvwatts import build_pvwatts_program, month_means_from_output
from repro.core import ExecOptions
from repro.csvio import generate_csv_bytes
from repro.dist import Partitioned, Replicated, check_locality, run_distributed

GOOD = {
    "PvWattsRequest": Replicated(),
    "ReadRegion": Partitioned("start"),
    "PvWatts": Partitioned("month"),
    "SumMonth": Partitioned("month"),
}
BAD = {**GOOD, "PvWatts": Partitioned("day")}


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
        r = run_distributed(build().program, n_nodes=nodes, placements=GOOD)
        assert month_means_from_output(sorted(r.output)) == ref
        print(
            f"  {nodes} node(s): elapsed {r.elapsed:9,.0f} wu "
            f"(compute {r.compute_time:,.0f}, comm {r.comm_time:,.0f}; "
            f"{r.tuples_moved} tuples moved, imbalance {r.imbalance:.2f})"
        )

    print("\n== placement experiment at 4 nodes (same program!) ==")
    for label, placements in (("by month (good)", GOOD), ("by day (bad)", BAD)):
        r = run_distributed(build().program, n_nodes=4, placements=placements)
        assert month_means_from_output(sorted(r.output)) == ref
        print(
            f"  {label:17s}: elapsed {r.elapsed:9,.0f} wu, "
            f"remote reads {r.probes_remote} in {r.remote_queries} round trips, "
            f"messages {r.messages}"
        )
    print("\nco-partitioning keeps every SumMonth reduce on its own node —")
    print("the experiment cost a placement dict, not a program rewrite (§2)")


if __name__ == "__main__":
    main()
