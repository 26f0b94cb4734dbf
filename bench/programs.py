"""The two programs the benchmark defines itself (the other workloads
use ``repro.apps``), with their seeded input generators."""

from __future__ import annotations

import random

from repro.core import Program

__all__ = [
    "telemetry_factory",
    "telemetry_script",
    "SETTLE_EVERY",
    "churn_program",
    "churn_script",
]

# -- telemetry: the serving shape of benchmarks/bench_service.py --------------

HOT = 900
N_SENSORS = 8
TICKS_PER_BATCH = 4  # 8 sensors x 4 ticks = 32-tuple feeds
SETTLE_EVERY = 2


def telemetry_factory() -> Program:
    """A stream of readings, a threshold rule, causally ordered log
    output (copied from ``bench_service.py`` so that script's published
    numbers stay comparable)."""
    p = Program("telemetry")
    Reading = p.table(
        "Reading",
        "int tick, int sensor -> int value",
        orderby=("Int", "seq tick", "Reading", "par sensor"),
    )
    Alert = p.table(
        "Alert",
        "int tick, int sensor -> int value",
        orderby=("Int", "seq tick", "Alert", "par sensor"),
    )
    Println = p.table(
        "Println",
        "int tick, int sensor -> str text",
        orderby=("Int", "seq tick", "Out", "seq sensor"),
    )
    p.order("Int", "Out")
    p.order("Reading", "Alert", "Out")

    @p.foreach(Reading)
    def threshold(ctx, r):
        if r.value >= HOT:
            ctx.put(Alert.new(r.tick, r.sensor, r.value))

    @p.foreach(Alert)
    def report(ctx, a):
        ctx.put(Println.new(a.tick, a.sensor,
                            f"tick {a.tick}: sensor {a.sensor} hot at {a.value}"))

    @p.foreach(Println, unsafe=True)
    def emit(ctx, line):
        ctx.println(line.text)

    return p


def telemetry_script(seed: int, n_tuples: int) -> list[list[list]]:
    """Wire-triple batches, one batch per ``TICKS_PER_BATCH`` whole ticks."""
    batches: list[list[list]] = []
    cur: list[list] = []
    tick = 0
    mixer = seed * 2654435761 % 2**31
    for i in range(n_tuples):
        sensor = i % N_SENSORS
        if sensor == 0 and i:
            tick += 1
            if tick % TICKS_PER_BATCH == 0:
                batches.append(cur)
                cur = []
        cur.append(["+", "Reading", [tick, sensor, (i * 1103515245 + mixer) % 1000]])
    if cur:
        batches.append(cur)
    return batches


# -- churn: session-fed Dijkstra under retraction -----------------------------


def churn_program():
    """Fig 5's rule over externally fed edges: the same Delta/Gamma
    path as ``dijkstra_batch``, but edges arrive (and leave) through
    ``feed``.  Returns ``(program, Edge, Estimate, Done)``."""
    p = Program("dijkstra-churn")
    Edge = p.table("Edge", "int src, int dst, int value", orderby=("Edge",))
    Estimate = p.table(
        "Estimate", "int vertex, int distance", orderby=("Int", "seq distance", "Estimate")
    )
    Done = p.table(
        "Done", "int vertex -> int distance", orderby=("Int", "seq distance", "Done")
    )
    p.order("Edge", "Int")
    p.order("Estimate", "Done")

    @p.foreach(Estimate, assume_stratified=True)
    def dijkstra(ctx, dist):
        if (
            ctx.get_uniq(Done, vertex=dist.vertex, ranges={"distance": {"lt": dist.distance}})
            is None
        ):
            ctx.put(Done.new(dist.vertex, dist.distance))
            for edge in ctx.get(Edge, dist.vertex):
                if ctx.get_uniq(Done, vertex=edge.dst) is None:
                    ctx.put(Estimate.new(edge.dst, dist.distance + edge.value))

    return p, Edge, Estimate, Done


#: fixes the graph shape and the churn schedule (see churn_script)
_CHURN_SHAPE_SEED = 0x5EED


def churn_script(seed: int, n_vertices: int, n_edges: int, rounds: int):
    """``(origin, initial_edges, rounds)``: a connected random graph of
    ``n_edges`` directed edges and ``rounds`` lists of
    ``("-"|"+", (src, dst, weight))`` events, two deletes and two
    inserts each.

    The graph *shape* and the schedule are fixed; ``seed`` relabels the
    vertices and reorders the events inside the load and inside each
    round.  The cost of a round depends on whether a deleted edge sits
    on the shortest-path tree and how large the subtree under it is, a
    heavy-tailed quantity: over 8 freely seeded 120-round schedules the
    median round time alone spread by 20 %, which would drown any
    regression bound.  Relabelling gives every seed different tuples,
    hashes and Delta insertion orders over the same amount of repair
    work.
    """
    shape = random.Random(_CHURN_SHAPE_SEED)
    live: dict[tuple[int, int], int] = {}
    for v in range(1, n_vertices):  # spanning tree, both directions
        parent = shape.randrange(v)
        w = shape.randint(1, 10)
        live[(parent, v)] = w
        live[(v, parent)] = w
    while len(live) < n_edges:
        a, b = shape.randrange(n_vertices), shape.randrange(n_vertices)
        if a != b and (a, b) not in live:
            live[(a, b)] = shape.randint(1, 10)
    initial = [(a, b, w) for (a, b), w in live.items()]
    schedule: list[list[tuple[str, tuple[int, int, int]]]] = []
    for _ in range(rounds):
        events: list[tuple[str, tuple[int, int, int]]] = []
        for key in shape.sample(sorted(live), 2):
            events.append(("-", (*key, live.pop(key))))
        added = 0
        while added < 2:
            a, b = shape.randrange(n_vertices), shape.randrange(n_vertices)
            if a != b and (a, b) not in live:
                live[(a, b)] = shape.randint(1, 10)
                events.append(("+", (a, b, live[(a, b)])))
                added += 1
        schedule.append(events)

    rng = random.Random(seed)
    label = list(range(n_vertices))
    rng.shuffle(label)

    def relabel(edge):
        return (label[edge[0]], label[edge[1]], edge[2])

    initial = [relabel(e) for e in initial]
    rng.shuffle(initial)
    out_rounds = []
    for events in schedule:
        # deletes stay ahead of inserts; order within each kind is seeded
        dels = [(op, relabel(e)) for op, e in events if op == "-"]
        ins = [(op, relabel(e)) for op, e in events if op == "+"]
        rng.shuffle(dels)
        rng.shuffle(ins)
        out_rounds.append(dels + ins)
    return label[0], initial, out_rounds
