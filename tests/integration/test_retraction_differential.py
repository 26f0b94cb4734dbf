"""The delete-aware differential oracle.

For every app × strategy, feeding a script of ``Insert``/``Delete``
events through a retraction session and settling must be
**byte-identical** — output text and Gamma table sizes — to recomputing
from scratch (retraction off) on the script's *surviving* base facts.
And the incremental runs themselves must be strategy-independent: the
semantic trace of a forkjoin/threads/chaos retraction session matches
the sequential one event for event (``trace_diff`` is ``None``).

The four apps cover every repair path:

* **sensors** — streaming aggregates; deleting past readings re-runs
  the per-sensor spike detection (counting + over-delete), and a late
  brand-new reading exercises below-mark admission under repair;
* **dijkstra** (in-test, the Fig 5 rule) — recursive derivation;
  deleting an edge on the shortest-path tree forces DRed over-delete /
  rederive, and inserting a *cheaper* edge after settling forces
  grown-result invalidation (already-fired frontiers re-run against the
  grown Edge table);
* **median** — native two-iteration array writes; deleting the request
  exercises the native-taint cascade (bulk writes are untracked below
  table level, so the whole dependent cone falls);
* **ship** — a pure derivation chain; deleting frame 0 collapses the
  whole trajectory, re-asserting it rebuilds byte-identically.

When ``RETRACTION_TRACE_DIR`` is set, the first diverging pair of
traces is dumped there as JSONL (CI uploads it as an artifact).
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.core import Delete, EngineError, ExecOptions, Insert, Program, RetractionError
from repro.trace import format_divergence, trace_diff

STRATEGIES = ["sequential", "forkjoin", "threads", "chaos"]


# -- script helpers ------------------------------------------------------------


def surviving(batches):
    """The base facts still asserted after the whole script ran."""
    base: dict = {}
    for batch in batches:
        for ev in batch:
            if isinstance(ev, Delete):
                base.pop(ev.tuple, None)
            else:
                t = ev.tuple if isinstance(ev, Insert) else ev
                base[t] = None
    return list(base)


def run_incremental(program, batches, strategy, opts_kw):
    opts = ExecOptions(
        strategy=strategy,
        threads=4,
        retraction=True,
        trace=True,
        chaos_seed=11 if strategy == "chaos" else None,
        **opts_kw,
    )
    with program.session(opts) as s:
        for batch in batches:
            s.feed(batch)
            s.settle()
        return s.close()


def run_scratch(program, batches, opts_kw):
    opts = ExecOptions(strategy="sequential", trace=True, **opts_kw)
    with program.session(opts) as s:
        s.feed(surviving(batches))
        return s.close()


def _dump_traces(inc, base, label: str) -> None:
    trace_dir = os.environ.get("RETRACTION_TRACE_DIR")
    if not trace_dir:
        return
    out = pathlib.Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    slug = label.replace(" ", "-").replace("(", "").replace(")", "")
    base.trace.to_jsonl(out / f"{slug}-baseline.jsonl")
    inc.trace.to_jsonl(out / f"{slug}-incremental.jsonl")


# -- app scripts ---------------------------------------------------------------


def _build_dijkstra():
    """The Fig 5 rule on a small diamond, as a session-fed program."""
    p = Program("dijkstra-retraction")
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
            ctx.println(f"shortest path to {dist.vertex} is {dist.distance}")
            ctx.put(Done.new(dist.vertex, dist.distance))
            for edge in ctx.get(Edge, dist.vertex):
                if ctx.get_uniq(Done, vertex=edge.dst) is None:
                    ctx.put(Estimate.new(edge.dst, dist.distance + edge.value))

    return p, Edge, Estimate


def _app_sensors():
    from repro.apps.sensors import build_sensor_stream

    handles, events = build_sensor_stream(n_ticks=10, n_sensors=4)
    late = handles.Reading.new(5, 7, 999)  # brand-new sensor, below the mark
    batches = [
        events,
        [Delete(events[3]), Delete(events[17])],
        [late],
    ]
    return handles.program, batches, {}


def _app_dijkstra():
    p, Edge, Estimate = _build_dijkstra()
    edges = [
        Edge.new(0, 1, 1),
        Edge.new(0, 2, 4),
        Edge.new(1, 2, 1),
        Edge.new(1, 3, 5),
        Edge.new(2, 3, 1),
    ]
    doomed = Edge.new(7, 8, 1)  # inserted and deleted in the same batch
    batches = [
        # mixed events pre-settle: the doomed edge is retracted while
        # still pending in Delta
        [Insert(e) for e in edges] + [doomed, Delete(doomed), Estimate.new(0, 0)],
        # DRed: 0->1 carries the shortest paths to 1, 2 and 3
        [Delete(edges[0])],
        # grown-result invalidation: a cheaper late edge re-runs the
        # already-settled frontier
        [Edge.new(0, 3, 1)],
    ]
    return p, batches, {}


def _app_median():
    from repro.apps.median import TwoIterationArrayStore, build_median_program

    values = np.asarray([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0])
    handles = build_median_program(values, n_regions=3)
    req = handles.program.initial_puts[0]
    batches = [[req], [Delete(req)], [req]]
    opts_kw = {
        "store_overrides": {
            "Data": lambda schema: TwoIterationArrayStore(schema, len(values))
        }
    }
    return handles.program, batches, opts_kw


def _app_ship():
    from repro.apps.ship import build_ship_program

    p, Ship = build_ship_program()
    init = p.initial_puts[0]
    batches = [[init], [Delete(init)], [init]]
    return p, batches, {}


APPS = {
    "sensors": _app_sensors,
    "dijkstra": _app_dijkstra,
    "median": _app_median,
    "ship": _app_ship,
}

#: app -> (program, batches, opts_kw), built once (program identity must
#: be shared between the incremental and scratch runs of one app)
_apps_cache: dict = {}
#: app -> incremental sequential RunResult (the trace baseline)
_seq_cache: dict = {}


def _app(name):
    if name not in _apps_cache:
        _apps_cache[name] = APPS[name]()
    return _apps_cache[name]


def _seq_baseline(name):
    if name not in _seq_cache:
        program, batches, opts_kw = _app(name)
        _seq_cache[name] = run_incremental(program, batches, "sequential", opts_kw)
    return _seq_cache[name]


# -- the oracle ----------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("app", list(APPS))
def test_incremental_settle_matches_scratch_recompute(app, strategy):
    program, batches, opts_kw = _app(app)
    inc = run_incremental(program, batches, strategy, opts_kw)
    scr = run_scratch(program, batches, opts_kw)
    try:
        assert inc.output_text() == scr.output_text(), (
            f"{app}/{strategy}: incremental output diverged from scratch recompute"
        )
        assert inc.table_sizes == scr.table_sizes, (
            f"{app}/{strategy}: Gamma table sizes diverged from scratch recompute"
        )
    except AssertionError:
        _dump_traces(inc, scr, f"{app}-{strategy}-vs-scratch")
        raise
    assert inc.stats.retractions > 0, (
        f"{app}/{strategy}: the script deleted facts but nothing was retracted"
    )


@pytest.mark.parametrize("strategy", ["forkjoin", "threads", "chaos"])
@pytest.mark.parametrize("app", list(APPS))
def test_incremental_trace_is_strategy_independent(app, strategy):
    base = _seq_baseline(app)
    program, batches, opts_kw = _app(app)
    other = run_incremental(program, batches, strategy, opts_kw)
    d = trace_diff(base.trace, other.trace)
    if d is not None:
        _dump_traces(other, base, f"{app}-{strategy}-trace")
    assert d is None, f"{app}/{strategy}: {format_divergence(d)}"


def test_dijkstra_exercises_dred_rederivation():
    """The recursive app must actually travel the over-delete/rederive
    path, not just counting — otherwise the matrix proves less than it
    claims."""
    base = _seq_baseline("dijkstra")
    assert base.stats.rederivations > 0
    assert base.stats.retractions > base.stats.rederivations


def test_retract_events_appear_in_trace():
    base = _seq_baseline("dijkstra")
    kinds = {e.kind for e in base.trace.events}
    assert "retract" in kinds


# -- error paths ---------------------------------------------------------------


def test_delete_never_inserted_raises_precise_error():
    """Satellite fix: deleting a never-inserted base fact raises
    :class:`RetractionError` (an :class:`EngineError`), names the tuple,
    and leaves the session usable."""
    p, Edge, Estimate = _build_dijkstra()
    edges = [Edge.new(0, 1, 1), Edge.new(1, 2, 1)]
    with p.session(ExecOptions(strategy="sequential", retraction=True)) as s:
        s.feed(edges + [Estimate.new(0, 0)])
        s.settle()
        ghost = Edge.new(9, 9, 9)
        with pytest.raises(RetractionError, match="never inserted as a base fact"):
            s.feed([Delete(ghost)])
        assert isinstance(RetractionError("x"), EngineError)
        # the session survived: a real delete still works
        s.feed([Delete(edges[0])])
        r = s.settle()
        assert s.stats.retractions > 0
        assert "shortest path to 0 is 0" in r.output


def test_delete_derived_tuple_raises():
    p, Edge, Estimate = _build_dijkstra()
    Done = p.schemas()["Done"]
    with p.session(ExecOptions(strategy="sequential", retraction=True)) as s:
        s.feed([Edge.new(0, 1, 1), Estimate.new(0, 0)])
        s.settle()
        from repro.core import JTuple

        derived = JTuple(Done, (1, 1))
        with pytest.raises(RetractionError, match="derived tuple"):
            s.feed([Delete(derived)])
        # still usable
        s.feed([Delete(Edge.new(0, 1, 1))])
        s.settle()


def test_delete_without_retraction_is_refused():
    p, Edge, Estimate = _build_dijkstra()
    with p.session(ExecOptions(strategy="sequential")) as s:
        with pytest.raises(EngineError, match="retraction is not enabled"):
            s.feed([Delete(Edge.new(0, 1, 1))])


def test_insert_events_are_sugar_without_retraction():
    """Plain tuples and ``Insert`` wrappers are interchangeable on a
    non-retraction session."""
    p, Edge, Estimate = _build_dijkstra()
    with p.session(ExecOptions(strategy="sequential")) as s:
        s.feed([Insert(Edge.new(0, 1, 1)), Edge.new(1, 2, 1), Insert(Estimate.new(0, 0))])
        r = s.settle()
    assert "shortest path to 2 is 2" in r.output


def test_processes_strategy_is_refused_with_retraction():
    with pytest.raises(EngineError, match="multiprocess"):
        ExecOptions(strategy="processes", retraction=True)


def test_duplicate_delete_is_idempotent():
    p, Edge, Estimate = _build_dijkstra()
    edges = [Edge.new(0, 1, 1), Edge.new(1, 2, 1)]
    with p.session(ExecOptions(strategy="sequential", retraction=True)) as s:
        s.feed(edges + [Estimate.new(0, 0)])
        s.settle()
        s.feed([Delete(edges[0]), Delete(edges[0])])
        s.settle()
        before = s.stats.retractions
        s.feed([Delete(edges[0])])  # a third time, across settles
        r = s.close()
    assert s.stats.retractions == before
    assert "shortest path to 0 is 0" in r.output


# -- the codegen tier ----------------------------------------------------------
#
# Generated drivers build the same firing records as the scalar rule
# context.  A traced run downgrades to scalar, so these legs run
# untraced and hold the codegen run to the scalar one directly: output,
# Gamma, repair counters and the support index itself, fid for fid.


def _run_tier(program, batches, execution, opts_kw):
    opts = ExecOptions(strategy="sequential", retraction=True, execution=execution, **opts_kw)
    with program.session(opts) as s:
        for batch in batches:
            s.feed(batch)
            s.settle()
        support, tier = s.kernel._support, s.kernel.executor.name
        return s.close(), support, tier


def _assert_tiers_agree(program, batches, opts_kw=None):
    """The codegen run equals the scalar run and the scratch recompute;
    returns the codegen result."""
    opts_kw = opts_kw or {}
    scalar, sup_s, _ = _run_tier(program, batches, "scalar", opts_kw)
    codegen, sup_c, tier = _run_tier(program, batches, "codegen", opts_kw)
    scr = run_scratch(program, batches, opts_kw)
    assert tier == "codegen"
    assert codegen.output_text() == scalar.output_text() == scr.output_text()
    assert codegen.table_sizes == scalar.table_sizes == scr.table_sizes
    assert len(sup_c) == len(sup_s) and sorted(sup_c.firings) == sorted(sup_s.firings)
    assert sup_c.next_fid == sup_s.next_fid
    for fid, rec in sup_s.firings.items():
        other = sup_c.firings[fid]
        assert (other.rule_name, other.trigger, other.puts, other.lines) == (
            rec.rule_name, rec.trigger, rec.puts, rec.lines,
        )
        assert list(other.reads) == list(rec.reads)
        assert [(q.eq, q.ranges, q.kind) for q in other.queries] == [
            (q.eq, q.ranges, q.kind) for q in rec.queries
        ]
    for counter in ("retractions", "rederivations", "grown_doomed"):
        assert getattr(codegen.stats, counter) == getattr(scalar.stats, counter), counter
    return codegen


def _fired(result) -> dict[str, str]:
    return {n.subject: n.text for n in result.stats.note_records if n.code == "codegen.fired"}


@pytest.mark.parametrize("app", list(APPS))
def test_codegen_incremental_matches_scalar_and_scratch(app):
    program, batches, opts_kw = _app(app)
    codegen = _assert_tiers_agree(program, batches, opts_kw)
    assert codegen.stats.retractions > 0
    assert any(text.endswith(" 0 scalar") for text in _fired(codegen).values())


def _churn_program():
    """``bench/programs.py::churn_program``, copied: Fig 5's rule over
    externally fed edges, no output lines."""
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

    return p, Edge, Estimate


def test_codegen_churn_is_byte_identical_to_scalar():
    """Rounds of two edge deletes and two edge inserts over a connected
    random graph: the ``dijkstra_churn`` workload's shape at a test's
    size."""
    import random

    p, Edge, Estimate = _churn_program()
    rng = random.Random(5)
    n = 60
    live: dict[tuple[int, int], int] = {}
    for v in range(1, n):  # spanning tree, both directions, then chords
        u = rng.randrange(v)
        live[(u, v)] = live[(v, u)] = rng.randint(1, 10)
    while len(live) < 3 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in live:
            live[(a, b)] = rng.randint(1, 10)
    batches = [[Edge.new(a, b, w) for (a, b), w in live.items()] + [Estimate.new(0, 0)]]
    for _ in range(12):
        evs = [Delete(Edge.new(*key, live.pop(key))) for key in rng.sample(sorted(live), 2)]
        while len(evs) < 4:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (a, b) not in live:
                live[(a, b)] = rng.randint(1, 10)
                evs.append(Edge.new(a, b, live[(a, b)]))
        batches.append(evs)
    codegen = _assert_tiers_agree(p, batches)
    assert codegen.stats.rederivations > 0 and codegen.stats.grown_doomed > 0


def test_a_rule_that_refuses_codegen_fires_scalar_beside_generated_drivers():
    """One rule reads through a ``where=`` lambda, which generated code
    does not reproduce: it records through the scalar rule context, the
    other rule through its recording driver, and the mixed run matches
    scalar and the scratch recompute."""
    p, Edge, Estimate = _build_dijkstra()

    @p.foreach(p.tables["Done"])
    def heavy(ctx, done):
        for edge in ctx.get(Edge, done.vertex, where=lambda e: e.value >= 4):
            ctx.println(f"heavy edge {edge.src}->{edge.dst} from a vertex at {done.distance}")

    edges = [Edge.new(0, 1, 1), Edge.new(0, 2, 4), Edge.new(1, 2, 1), Edge.new(1, 3, 5)]
    batches = [
        edges + [Edge.new(2, 3, 1), Estimate.new(0, 0)],
        [Delete(edges[0])],
        [Edge.new(0, 3, 1)],
        [Delete(edges[1]), Edge.new(0, 1, 2)],
    ]
    codegen = _assert_tiers_agree(p, batches)
    fired = _fired(codegen)
    assert fired["dijkstra"].endswith(" 0 scalar") and " 0 generated" in fired["heavy"]
    kept = [n.text for n in codegen.stats.note_records if n.code == "codegen.kept-scalar"]
    assert len(kept) == 1 and "'heavy'" in kept[0]
    assert "heavy edge" in codegen.output_text()
