#!/usr/bin/env python3
"""Quickstart: the Ship program from §3/Fig 2 of the paper.

Declares one table, one rule and one initial tuple, runs it under
three execution strategies, and shows that the output — the exact
Ship table of Fig 2 — never depends on the strategy.

Run:  python examples/quickstart.py
"""

from repro.core import ExecOptions, Program
from repro.stats import run_report


def main() -> None:
    p = Program("ship")

    # table Ship(int frame -> int x, int y, int dx, int dy)
    #     orderby (Int, seq frame)
    Ship = p.table(
        "Ship",
        "int frame -> int x, int y, int dx, int dy",
        orderby=("Int", "seq frame"),
    )

    # foreach (Ship s) { if (s.x < 400) put new Ship(s.frame+1, ...) }
    # The causality prover reads this body's source: one put of
    # Ship(frame + 1, ...) under the condition x < 400 (the paper's SMT
    # obligations, §4) — nothing is declared beside the rule.
    @p.foreach(Ship)
    def move_right(ctx, s):
        if s.x < 400:
            ctx.put(Ship.new(s.frame + 1, s.x + 150, s.y, s.dx, s.dy))
        ctx.println(f"frame {s.frame}: ship at ({s.x}, {s.y})")

    p.put(Ship.new(0, 10, 10, 150, 0))

    # Static causality check before running — all obligations prove.
    report = p.check_causality()
    print("== static causality check ==")
    print(report.summary(), "\n")

    # The same program under three strategies: same output every time.
    results = {}
    for label, opts in {
        "sequential": ExecOptions(strategy="sequential"),
        "forkjoin x8": ExecOptions(strategy="forkjoin", threads=8),
        "real threads": ExecOptions(strategy="threads", threads=4),
    }.items():
        results[label] = p.run(opts)

    print("== output (identical under every strategy) ==")
    for line in results["sequential"].output:
        print(line)
    assert all(r.output == results["sequential"].output for r in results.values())

    print("\n== run report (fork/join x8) ==")
    print(run_report(results["forkjoin x8"]))


if __name__ == "__main__":
    main()
