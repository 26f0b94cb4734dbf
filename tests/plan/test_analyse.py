"""Tests for the one reading of a rule body (:mod:`repro.plan.analyse`).

Three contracts:

* **static ⊇ dynamic** — for the six apps, the two benchmark programs and
  the textual examples, the metadata derived from the rule bodies
  predicts every query shape (rule, table, eq fields, range fields),
  every query kind and every put edge a real run observes;
* **an explicit ``meta=`` covers its body**, or ``freeze()`` refuses it
  (PR 5's ``static_local`` bug class: a meta that says less than the
  body does);
* **only a typed refusal falls back** — a defect in the analyser is an
  exception, never a silently switched-off check.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.apps.matmul import build_matmul_program, random_matrix
from repro.apps.median import build_median_program
from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import ExecOptions, Program, ProgramError
from repro.core.query import QueryKind
from repro.csvio.synth import generate_csv_bytes
from repro.gamma import NativeArrayStore, TwoIterationArrayStore
from repro.lang import compile_source
from repro.plan import analyse
from repro.solver import RuleMeta, check_program

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "examples")]

from bench.programs import churn_program, telemetry_factory  # noqa: E402
from textual_jstar import FIG4, FIG5  # noqa: E402

_EDGES = [(0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 1), (2, 3, 6), (3, 4, 2)]


def _pvwatts():
    csv = b"\n".join(generate_csv_bytes(n_years=1).split(b"\n")[:600]) + b"\n"
    return build_pvwatts_program({"f.csv": csv}, "f.csv", n_readers=2).program, {}


def _matmul():
    h = build_matmul_program(random_matrix(4, 1), random_matrix(4, 2))
    return h.program, {"Matrix": lambda schema: NativeArrayStore(schema, (3, 4, 4))}


def _median():
    values = np.random.default_rng(9).random(60)
    h = build_median_program(values, 4)
    return h.program, {"Data": lambda schema: TwoIterationArrayStore(schema, 60)}


def _telemetry():
    p = telemetry_factory()
    for i in range(40):
        p.put(p.tables["Reading"].new(i // 8, i % 8, (i * 137) % 1000))
    return p, {}


def _churn():
    p, Edge, Estimate, _done = churn_program()
    for edge in _EDGES:
        p.put(Edge.new(*edge))
    p.put(Estimate.new(0, 0))
    return p, {}


def _fig4():
    data = generate_csv_bytes(n_years=1, seed=42)[:20000]
    return compile_source(FIG4, "fig4", files={"large1000.csv": data}), {}


def _fig5():
    p = compile_source(FIG5, "fig5")
    for edge in _EDGES:
        p.put(p.tables["Edge"].new(*edge))
    return p, {}


PROGRAMS = {
    "pvwatts": _pvwatts,
    "sensors": lambda: (build_sensor_program(10, 4).program, {}),
    "shortestpath": lambda: (
        build_shortestpath_program(GraphSpec(40, 60, seed=3), 4).program, {}),
    "ship": lambda: (build_ship_program()[0], {}),
    "matmul": _matmul,
    "median": _median,
    "telemetry": _telemetry,
    "churn": _churn,
    "fig4": _fig4,
    "fig5": _fig5,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_derived_meta_predicts_the_run(name):
    program, stores = PROGRAMS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Fig 5's unbounded guard warns
        result = program.run(ExecOptions(trace=True, store_overrides=stores))

    shapes, kinds, puts = set(), set(), set()
    for rule in program.rules:
        meta = rule.meta
        assert isinstance(meta, RuleMeta), (rule.name, rule.analysis().refusal)
        for site in rule.analysis().query_sites:
            ranged = tuple(sorted(field for field, _form in site.ranges))
            shapes.add((rule.name, site.handle.schema.name, site.eq_fields(), ranged))
        for branch in meta.branches:
            for q in branch.queries:
                kinds.add((rule.name, q.schema.name, q.kind.value))
            puts.update((rule.name, p.schema.name) for p in branch.puts)

    observed = set(result.stats.rule_query_shapes)
    assert observed <= shapes, observed - shapes
    queried = {
        (e.data["rule"], e.data["table"], e.data["kind"])
        for e in result.trace.events
        if e.kind == "query"
    }
    assert queried <= kinds, queried - kinds
    assert {q[:2] for q in queried} == {o[:2] for o in observed}
    put_edges = {e for e in result.stats.put_edges if e[0] != "<init>"}
    assert put_edges <= puts, put_edges - puts


def test_every_app_rule_is_analysed():
    """The 14 rules that carried no metadata (median, the benchmark
    programs, the unsafe readers and generators) are read like the rest;
    ``ctx.native`` is a positive read and a nested function is walked."""
    for name in ("pvwatts", "sensors", "shortestpath", "ship", "matmul",
                 "median", "telemetry", "churn"):
        program, _ = PROGRAMS[name]()
        for rule in program.rules:
            assert rule.analysis().refusal is None, (name, rule.name)
    median, _ = _median()
    native = {
        r.name: [q.schema.name for b in r.meta.branches for q in b.queries
                 if q.kind is QueryKind.POSITIVE and not q.bound]
        for r in median.rules
    }
    assert native["init"] == ["Data"] and native["partition_region"] == ["Data"]
    pvwatts, _ = _pvwatts()
    read_loop = next(r for r in pvwatts.rules if r.name == "read_loop")
    assert [p.schema.name for b in read_loop.meta.branches for p in b.puts] == ["PvWatts"]


# -- an explicit meta= covers its body, or freeze() refuses it ----------------


def _dijkstra(meta_for):
    """Fig 5's rule as the shortestpath app writes it, under a caller-
    supplied ``meta=``."""
    p = Program("sp")
    Edge = p.table("Edge", "int src, int dst, int value", orderby=("Edge",))
    Estimate = p.table(
        "Estimate", "int vertex, int distance", orderby=("Int", "seq distance", "Estimate")
    )
    Done = p.table("Done", "int vertex -> int distance", orderby=("Int", "seq distance", "Done"))
    p.order("Edge", "Int")
    p.order("Estimate", "Done")

    @p.foreach(Estimate, meta=meta_for(Edge, Estimate, Done), assume_stratified=True)
    def dijkstra(ctx, dist):
        if (
            ctx.get_uniq(Done, vertex=dist.vertex, ranges={"distance": {"lt": dist.distance}})
            is None
        ):
            ctx.put(Done.new(dist.vertex, dist.distance))
            for edge in ctx.get(Edge, dist.vertex):
                if ctx.get_uniq(Done, vertex=edge.dst) is None:
                    ctx.put(Estimate.new(edge.dst, dist.distance + edge.value))

    return p


def _pr20_meta(Edge, Estimate, Done):
    """The meta the shortestpath app carried until PR 21: no Estimate
    put, and the second Done guard declared with nothing bound (which
    the first guard's declaration happens to cover: same table, kind and
    eq field).  Returns the meta and its branch builder."""
    meta = RuleMeta(Estimate)
    t = meta.trigger
    b = meta.branch()
    b.query(Done, kind=QueryKind.NEGATIVE, vertex=t["vertex"],
            constraints=lambda f: [f["distance"] < t["distance"]])
    b.put(Done, vertex=t["vertex"], distance=t["distance"])
    b.query(Edge, src=t["vertex"])
    b.query(Done, kind=QueryKind.NEGATIVE)
    return meta, b


def test_meta_that_omits_a_site_is_refused_at_freeze():
    p = _dijkstra(lambda *tables: _pr20_meta(*tables)[0])
    with pytest.raises(ProgramError) as err:
        p.freeze()
    message = str(err.value)
    assert "rule dijkstra" in message and "does not cover its body" in message
    # the site and where it is: file and line of the offending call
    assert "put into Estimate" in message
    line = int(message.split(f"{__file__}:")[1].split()[0])
    assert "ctx.put(Estimate.new(" in Path(__file__).read_text().splitlines()[line - 1]


def test_meta_with_the_wrong_kind_or_binding_is_refused():
    def meta_for(Edge, Estimate, Done):
        meta, b = _pr20_meta(Edge, Estimate, Done)
        b.put(Estimate, vertex=meta.trigger["vertex"])
        b._branch.queries[1].bound.clear()  # get Edge(dist.vertex), declared unbound
        return meta

    with pytest.raises(ProgramError, match=r"ctx.get\(Edge\) binding \['src'\]"):
        _dijkstra(meta_for).freeze()


def test_meta_may_declare_more_than_the_body():
    def meta_for(Edge, Estimate, Done):
        meta, b = _pr20_meta(Edge, Estimate, Done)
        b.put(Estimate, vertex=meta.trigger["vertex"])
        b.query(Edge)  # a query the body never makes
        return meta

    p = _dijkstra(meta_for)
    p.freeze()
    assert p.rules[0].meta is not p.rules[0].analysis().meta  # the override wins


def test_override_stands_where_analysis_refuses():
    p = Program()
    T = p.table("T", "int t", orderby=("Int", "seq t"))
    meta = RuleMeta(T)
    meta.branch().put(T, t=meta.trigger["t"] + 1)

    def helper(ctx, t):
        ctx.put(T.new(t.t + 1))

    @p.foreach(T, meta=meta)
    def forward(ctx, t):
        helper(ctx, t)

    p.freeze()
    assert p.rules[0].analysis().refusal is not None
    assert check_program(p).findings[0].status == "proved"


# -- only a typed refusal falls back ------------------------------------------

_GUARDED = """
table T(int t -> int v) orderby (Int, seq t)
put new T(0, 1)
foreach (T x) { if (x.t < 3) { put new T(x.t + 1, x.v) } }
"""


def test_analyser_defect_propagates(monkeypatch):
    """``extract_meta`` used to end in ``except Exception: return None``
    and the compiler turned None into ``assume_stratified=True``: a bug
    in the visitor switched the rule's dynamic check off."""

    def broken(self, node):
        raise RuntimeError("visitor defect")

    monkeypatch.setattr(analyse._Analyser, "visit_If", broken)
    with pytest.raises(RuntimeError, match="visitor defect"):
        compile_source(_GUARDED)


def test_typed_refusal_is_the_only_fallback():
    ok = compile_source(_GUARDED).rules[0]
    assert isinstance(ok.meta, RuleMeta) and not ok.assume_stratified
    # the put's table cannot be read off a variable: a typed refusal
    refused = compile_source(
        _GUARDED.replace("put new T(x.t + 1, x.v)", "val y = new T(x.t + 1, x.v)  put y")
    ).rules[0]
    assert refused.meta is None and refused.assume_stratified
    assert "constructor call" in refused.analysis().refusal
