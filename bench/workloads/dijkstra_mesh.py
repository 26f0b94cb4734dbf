"""``dijkstra_mesh``: the shortest-path program on 2 real worker
processes over the pipe transport, with the same program run
sequentially in the same repetition as the denominator."""

from __future__ import annotations

import pickle
import time

from repro.apps.shortestpath import GraphSpec, build_shortestpath_program, make_graph
from repro.core import ExecOptions
from repro.dist.procrun import run_sharded

from bench import oracle
from bench.measure import children_cpu, children_rss_mb

#: (vertices, extra edges, max weight).  2000/4000 rather than the
#: 3000/6000 first planned: at ~6 s a repetition only 3-4 of those fit a
#: run, too few for the median of their ratios to repeat
SIZES = {"full": (2000, 4000, 3), "quick": (300, 600, 3)}
N_WORKERS = 2
N_GEN_TASKS = 4


def _pickle_us_per_tuple(database) -> float:
    """Bench-side ``dumps``+``loads`` of every stored tuple's values:
    the floor for what serialising the run's tuples can cost."""
    rows = [t.values for store in database.stores.values() for t in store.scan()]
    t0 = time.perf_counter()
    for row in rows:
        pickle.loads(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
    return (time.perf_counter() - t0) * 1e6 / len(rows)


def run(rep) -> None:
    n, extra, max_weight = SIZES[rep.size]
    spec = GraphSpec(n, extra, max_weight=max_weight, seed=rep.seed)
    with rep.setup():
        mesh_program = build_shortestpath_program(spec, N_GEN_TASKS).program
        seq_program = build_shortestpath_program(spec, N_GEN_TASKS).program
    if rep.tracer is not None:
        rep.tracer.install("engine", "dist")

    # mesh first, always: the workers are forked from this process, so a
    # sequential run's heap ahead of them would count in their peak RSS
    cpu0 = children_cpu()
    with rep.leg("default"):
        mesh = run_sharded(
            mesh_program,
            ExecOptions(strategy="processes", threads=N_WORKERS),
            transport="pipe",
        )
        text = mesh.output_text()
    worker_cpu = children_cpu() - cpu0
    with rep.leg("seq"):
        seq = seq_program.run(ExecOptions())
        seq_text = seq.output_text()

    rows = oracle.done_rows(seq.require_database())
    rep.digest = oracle.digest(seq_text, seq.table_sizes, rows)
    rep.check(rows == oracle.dijkstra_distances(make_graph(spec)), "Done table != heap Dijkstra")
    rep.check_digest(
        oracle.digest(text, mesh.table_sizes, oracle.done_rows(mesh.require_database())),
        rep.digest,
        "mesh leg vs sequential leg",
    )

    nodes = mesh.nodes
    peer_msgs = sum(nd["peer_msgs"] for nd in nodes)
    peer_bytes = sum(nd["peer_bytes_sent"] for nd in nodes)
    coord_bytes = sum(nd["bytes_sent"] + nd["bytes_recv"] for nd in nodes)
    rep.tuples = sum(mesh.table_sizes.values())
    rep.bytes = peer_bytes + coord_bytes
    rep.counts = {
        "steps": mesh.steps,
        "tuples": rep.tuples,
        "peer_msgs": peer_msgs,
        "peer_bytes": peer_bytes,
        "coord_bytes": coord_bytes,
    }
    rep.peak_rss_mb = children_rss_mb()  # the largest worker

    if rep.tracer is None:
        fires = [nd["fires"] for nd in nodes]
        wall = rep.legs["default"]["wall_s"]
        rep.layers.update(
            {
                "dist.procrun.steps": mesh.steps,
                "dist.transport.peer_msgs": peer_msgs,
                "dist.transport.peer_bytes": peer_bytes,
                "dist.transport.coord_bytes": coord_bytes,
                "dist.transport.msgs_per_step": peer_msgs / mesh.steps,
                "dist.worker.cpu_s": worker_cpu,
                "dist.worker.idle_ratio": 1.0 - worker_cpu / (wall * N_WORKERS),
                "dist.worker.fire_skew": max(fires) / (sum(fires) / len(fires)),
                "dist.pickle_us_per_tuple": _pickle_us_per_tuple(mesh.require_database()),
                "gamma.heap_tuples": mesh.require_database().heap_tuples(),
                "core.kernel.steps": mesh.steps,
            }
        )
