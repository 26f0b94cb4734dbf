"""``dijkstra_churn``: a retraction-enabled session over the session-fed
Dijkstra program; rounds of two edge deletes and two edge inserts."""

from __future__ import annotations

import time

from repro.core import ExecOptions
from repro.core.delta import Delete, Insert
from repro.core.session import EngineSession

from bench import oracle
from bench.programs import churn_program, churn_script

#: (vertices, directed edges, rounds)
SIZES = {"full": (400, 1200, 60), "quick": (120, 360, 8)}


def _scratch(survivors, origin):
    """Recompute the surviving facts from nothing, without retraction."""
    program, Edge, Estimate, _Done = churn_program()
    with program.session(ExecOptions(metering="off")) as session:
        session.feed([Edge.new(*e) for e in survivors] + [Estimate.new(origin, 0)])
    return session.result


def run(rep) -> None:
    n_vertices, n_edges, n_rounds = SIZES[rep.size]
    if rep.tracer is not None:
        rep.tracer.install("engine")
    with rep.setup():
        origin, initial, rounds = churn_script(rep.seed, n_vertices, n_edges, n_rounds)
        program, Edge, Estimate, _Done = churn_program()
        session = EngineSession(
            program, ExecOptions(strategy="sequential", retraction=True, metering="off")
        ).open()
        session.feed([Edge.new(*e) for e in initial] + [Estimate.new(origin, 0)])
        session.settle()
        events = [
            [(Delete if op == "-" else Insert)(Edge.new(*edge)) for op, edge in evs]
            for evs in rounds
        ]
    # the SupportIndex is the kernel's own bookkeeping; its size is read,
    # never written
    support = session.kernel._support
    records_first = 0

    round_ms: list[float] = []
    with rep.leg("default"):
        for i, evs in enumerate(events):
            t0 = time.perf_counter()
            session.feed(evs)
            session.settle()
            round_ms.append((time.perf_counter() - t0) * 1e3)
            if i == 0:
                records_first = len(support)
        records_end = len(support)
        stats = session.stats
        result = session.close()
        text = result.output_text()
    rep.latency_ms["settle"] = round_ms

    survivors = set(initial)
    for evs in rounds:
        for op, edge in evs:
            (survivors.discard if op == "-" else survivors.add)(edge)
    survivors = sorted(survivors)
    rows = oracle.done_rows(result.require_database())
    rep.digest = oracle.digest(text, result.table_sizes, rows)
    scratch = _scratch(survivors, origin)
    rep.check_digest(
        oracle.digest(
            scratch.output_text(), scratch.table_sizes, oracle.done_rows(scratch.require_database())
        ),
        rep.digest,
        "incremental vs scratch recompute",
    )
    rep.check(rows == oracle.dijkstra_distances(survivors, origin), "Done table != heap Dijkstra")
    rep.attempted += len(events)  # every round completed, or the repetition raised

    rep.tuples = sum(result.table_sizes.values())
    rep.counts = {
        "steps": result.steps,
        "tuples": rep.tuples,
        "retractions": stats.retractions,
        "rederivations": stats.rederivations,
    }
    if rep.tracer is None:
        rep.layers.update(
            {
                "core.support.retractions": stats.retractions,
                "core.support.rederivations": stats.rederivations,
                "core.support.rederive_ratio": (
                    stats.rederivations / stats.retractions if stats.retractions else 0.0
                ),
                "core.support.records_end": records_end / records_first,
                "gamma.heap_tuples": result.require_database().heap_tuples(),
                "core.kernel.steps": result.steps,
            }
        )
    rep.hosted_here()
