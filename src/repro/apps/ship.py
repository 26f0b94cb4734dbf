"""The Space-Invaders Ship walkthrough (§3, Fig 2).

A single ship moves right across the screen in 150-pixel jumps, then
descends slowly, then moves left — all recorded as immutable tuples
with the ``frame`` field as timestamp.  The program reproduces Fig 2's
table exactly (8 frames) and every branch of its rule proves causal
(each puts into ``frame + 1``), so it also serves as the quickstart
example and the causality-prover demo.
"""

from __future__ import annotations

from repro.core import ExecOptions, Program, RunResult
from repro.core.tuples import TableHandle

__all__ = ["FIG2_TRACE", "build_ship_program", "run_ship", "ship_trace"]

#: the Ship table of Fig 2: (frame, x, y, dx, dy)
FIG2_TRACE: list[tuple[int, int, int, int, int]] = [
    (0, 10, 10, 150, 0),
    (1, 160, 10, 150, 0),
    (2, 310, 10, 150, 0),
    (3, 460, 10, 0, 10),
    (4, 460, 20, 0, 10),
    (5, 460, 30, -150, 0),
    (6, 310, 30, -150, 0),
    (7, 160, 30, -150, 0),
]

RIGHT_EDGE = 460
BOTTOM = 30
LEFT_EDGE = 10


def build_ship_program() -> tuple[Program, TableHandle]:
    """The Ship program: one table, one rule, one initial put."""
    p = Program("ship")
    Ship = p.table(
        "Ship",
        "int frame -> int x, int y, int dx, int dy",
        orderby=("Int", "seq frame"),
    )

    @p.foreach(Ship)
    def fly(ctx, s):
        """Right until the edge, down twice, then left until done."""
        if s.dx > 0:  # moving right
            nx = s.x + s.dx
            if nx >= RIGHT_EDGE:
                ctx.put(Ship.new(s.frame + 1, RIGHT_EDGE, s.y, 0, 10))
            else:
                ctx.put(Ship.new(s.frame + 1, nx, s.y, s.dx, s.dy))
        elif s.dy > 0:  # descending
            ny = s.y + s.dy
            if ny >= BOTTOM:
                ctx.put(Ship.new(s.frame + 1, s.x, BOTTOM, -150, 0))
            else:
                ctx.put(Ship.new(s.frame + 1, s.x, ny, s.dx, s.dy))
        elif s.dx < 0:  # moving left; stop once the left edge is reached
            nx = s.x + s.dx
            if nx > LEFT_EDGE:
                ctx.put(Ship.new(s.frame + 1, nx, s.y, s.dx, s.dy))

    p.put(Ship.new(*FIG2_TRACE[0]))
    return p, Ship


def run_ship(options: ExecOptions | None = None) -> RunResult:
    p, _ = build_ship_program()
    return p.run(options or ExecOptions())


def ship_trace(result: RunResult) -> list[tuple[int, int, int, int, int]]:
    """Extract the Ship table from a finished run, frame-ordered."""
    store = result.require_database().store("Ship")
    return sorted(tuple(t.values) for t in store.scan())
