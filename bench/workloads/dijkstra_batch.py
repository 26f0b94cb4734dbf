"""``dijkstra_batch``: Fig 5 shortest path, one shot, sequential."""

from __future__ import annotations

import time

from repro.apps.shortestpath import (
    GraphSpec,
    build_shortestpath_program,
    make_graph,
    recommended_options,
    run_shortestpath,
)
from repro.core import ExecOptions
from repro.core.kernel import StepKernel

from bench import oracle

#: (vertices, extra edges): ~56k tuples over ~68 wide timestamp classes
SIZES = {"full": (8000, 16000), "quick": (800, 1600)}


def codegen_build_ms(program, options: ExecOptions) -> float:
    """Kernel construction under the codegen tier on an already frozen
    program: what ``freeze()``-time driver generation costs."""
    program.freeze()
    t0 = time.perf_counter()
    StepKernel(program, options.with_(execution="codegen"))
    return (time.perf_counter() - t0) * 1e3


def refused_rules(result) -> int:
    """Rules the codegen tier left on the scalar path (stats notes)."""
    return sum(1 for note in result.stats.notes if "kept scalar" in note)


def run(rep) -> None:
    n, extra = SIZES[rep.size]
    spec = GraphSpec(n, extra, seed=rep.seed)
    options = recommended_options(ExecOptions(metering="off"))

    if rep.tracer is not None:
        # before the wrappers exist: codegen reads the rule bodies' source
        rep.layers["plan.codegen_build_ms"] = codegen_build_ms(
            build_shortestpath_program(spec).program, options
        )
        rep.tracer.install("engine")

    with rep.leg("default"):
        result = run_shortestpath(spec, options)
        text = result.output_text()
    rows = oracle.done_rows(result.require_database())
    rep.digest = oracle.digest(text, result.table_sizes, rows)
    rep.check(rows == oracle.dijkstra_distances(make_graph(spec)), "Done table != heap Dijkstra")
    rep.tuples = sum(result.table_sizes.values())
    rep.counts = {"steps": result.steps, "tuples": rep.tuples}
    if rep.tracer is not None:
        return rep.hosted_here()

    rep.layers["gamma.heap_tuples"] = result.require_database().heap_tuples()
    rep.layers["core.kernel.steps"] = result.steps
    # the codegen leg starts from the heap the scalar leg started from
    del result, rows, text
    with rep.leg("codegen"):
        fast = run_shortestpath(spec, options.with_(execution="codegen"))
        fast_text = fast.output_text()
    rep.check_digest(
        oracle.digest(fast_text, fast.table_sizes, oracle.done_rows(fast.require_database())),
        rep.digest,
        "codegen leg vs scalar leg",
    )
    rep.layers["plan.codegen_refused_rules"] = refused_rules(fast)
    rep.hosted_here()

