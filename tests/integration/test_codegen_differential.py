"""Differential harness for the codegen execution tier.

``execution="codegen"`` is a pure performance feature: the §1.3
determinism contract demands it change *time*, never results.  This
harness runs every example program with the codegen tier armed and
asserts byte-identical ``output_text()`` and equal ``table_sizes``
against the sequential scalar reference.

Generated rule bodies emit no trace events, so ``trace=True``
*downgrades* the whole run to the scalar path (registry row) instead of
running generated code untraced.  The traced legs here therefore assert
the downgrade note *and* full trace parity — the downgraded run is the
scalar run, byte for byte, trace events included.

Extra legs beyond the 5-app matrix:

* a program whose hot rule queries with an opaque ``where`` lambda —
  codegen refuses that body (a lambda can close over anything), keeps
  the rule scalar with a ``kept scalar`` note, and results must still
  be identical; the other rules in the same program fire generated;
* a 20-seed chaos fuzz leg: chaos is not sequential, so the codegen
  knob must downgrade itself with a note and the run must still match
  the reference byte for byte;
* report legs: the per-rule fired-counts notes and the
  ``dump_generated_source`` inspection hook advertised by them;
* a textual leg: Fig 4, Fig 5 and ``examples/textual_jstar.py`` are
  lowered to Python source by :mod:`repro.lang.compile`, so the codegen
  tier compiles them like any hand-written rule — no rule is refused for
  its body's shape.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.median import run_median
from repro.apps.pvwatts import run_pvwatts
from repro.apps.sensors import run_sensors
from repro.apps.ship import run_ship
from repro.apps.shortestpath import GraphSpec, run_shortestpath
from repro.core import ExecOptions, Program
from repro.core.errors import StratificationWarning
from repro.csvio.synth import generate_csv_bytes
from repro.lang import compile_source, lowered_sources
from repro.plan.codegen import dump_generated_source
from repro.stats.report import run_report
from repro.trace import format_divergence, trace_diff

APPS = ["ship", "pvwatts", "shortestpath", "sensors", "median"]


@pytest.fixture(scope="module", autouse=True)
def _dump_generated_sources_for_ci():
    """With CODEGEN_DUMP_DIR set (the CI codegen job), write every
    generated driver module, and every textual rule's lowered Python
    source, to disk after the suite — on failure the directory is
    uploaded as an artifact, so a differential break ships the exact
    code that diverged."""
    yield
    out = os.environ.get("CODEGEN_DUMP_DIR")
    if not out:
        return
    from repro.plan.codegen import all_generated_sources

    os.makedirs(out, exist_ok=True)
    for qualname, src in {**all_generated_sources(), **lowered_sources()}.items():
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in qualname)
        with open(os.path.join(out, f"{safe}.py"), "w") as f:
            f.write(src)


@pytest.fixture(scope="module")
def small_csv() -> bytes:
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    return b"\n".join(lines[:1500]) + b"\n"


@pytest.fixture(scope="module")
def apps(small_csv):
    vals = np.random.default_rng(9).random(500)
    spec = GraphSpec(n_vertices=90, extra_edges=140, seed=3)
    return {
        "ship": lambda o: run_ship(o),
        "pvwatts": lambda o: run_pvwatts(small_csv, o, n_readers=2),
        "shortestpath": lambda o: run_shortestpath(spec, o, n_gen_tasks=4),
        "sensors": lambda o: run_sensors(n_ticks=12, n_sensors=4, options=o),
        "median": lambda o: run_median(vals, o, n_regions=6),
    }


@pytest.fixture(scope="module")
def references(apps):
    """The sequential scalar runs every codegen run must match."""
    return {name: run(ExecOptions()) for name, run in apps.items()}


@pytest.fixture(scope="module")
def traced_references(apps):
    return {name: run(ExecOptions(trace=True)) for name, run in apps.items()}


def _assert_results(got, ref, label: str) -> None:
    assert got.output_text() == ref.output_text(), f"output diverged: {label}"
    assert got.table_sizes == ref.table_sizes, f"table sizes diverged: {label}"


def _assert_same(got, ref, label: str) -> None:
    _assert_results(got, ref, label)
    d = trace_diff(ref.trace, got.trace)
    assert d is None, f"trace diverged: {label}: {format_divergence(d)}"


@pytest.mark.parametrize("app", APPS)
def test_codegen_matches_sequential_reference(app, apps, references):
    got = apps[app](ExecOptions(execution="codegen"))
    _assert_results(got, references[app], f"{app} under codegen")


@pytest.mark.parametrize("app", APPS)
def test_codegen_fast_path_matches_reference(app, apps, references):
    """metering="off" + codegen — the benchmark configuration.  The
    metering knob is moot (codegen forces it off with a note) but the
    leg pins that down too."""
    got = apps[app](ExecOptions(metering="off", execution="codegen"))
    _assert_results(got, references[app], f"{app} under codegen fast path")


@pytest.mark.parametrize("app", APPS)
def test_trace_downgrades_codegen_to_scalar(app, apps, traced_references):
    """trace=True + codegen = the scalar run, trace events included."""
    got = apps[app](ExecOptions(trace=True, execution="codegen"))
    _assert_same(got, traced_references[app], f"{app} traced under codegen")
    assert any(
        n.code == "codegen.ignored" and "trace" in n.text for n in got.stats.note_records
    ), got.stats.notes


# -- opaque-where fallback ---------------------------------------------------


def _build_where_program() -> Program:
    """A program whose hot rule queries with an opaque ``where`` lambda:
    codegen refuses the body (``where`` predicates stay scalar) while
    the sibling rules compile and fire generated."""
    p = Program("wherefall")
    Src = p.table("Src", "int k", orderby=("Src",))
    Item = p.table("Item", "int k, int v", orderby=("Item",))
    Probe = p.table("Probe", "int k", orderby=("Probe",))
    p.order("Src", "Item")
    p.order("Item", "Probe")

    @p.foreach(Src, unsafe=True)
    def seed(ctx, s):
        for i in range(12):
            ctx.put(Item.new(s.k * 100 + i, i * i))
        ctx.put(Probe.new(s.k))

    @p.foreach(Probe, assume_stratified=True)
    def check(ctx, probe):
        evens = ctx.get(Item, where=lambda it: it.v % 2 == 0)
        ctx.println(f"probe {probe.k}: {len(evens)} even items")

    @p.foreach(Item)
    def loud(ctx, item):
        if item.v > 81:
            ctx.println(f"large item {item.k}")

    for k in range(4):
        p.put(Src.new(k))
    return p


def test_opaque_where_keeps_rule_scalar():
    ref = _build_where_program().run(ExecOptions())
    got = _build_where_program().run(ExecOptions(execution="codegen"))
    _assert_results(got, ref, "where-lambda program under codegen")
    notes = {(n.code, n.subject): n.text for n in got.stats.note_records}
    assert ("codegen.kept-scalar", "check") in notes, notes
    # the refused rule fired scalar inside the codegen tier...
    assert "fired 0 generated / 4 scalar" in notes["codegen.fired", "check"], notes
    # ...while its siblings fired through generated drivers
    assert "fired 4 generated / 0 scalar" in notes["codegen.fired", "seed"], notes


def test_run_report_renders_codegen_notes(apps):
    got = apps["shortestpath"](ExecOptions(execution="codegen"))
    report = run_report(got)
    assert "codegen: rule 'dijkstra' fired" in report
    assert "rule(s) compiled" in report
    assert "dump_generated_source" in report


def test_dump_generated_source_hook():
    p = _build_where_program()
    seed, check = p.rules[0], p.rules[1]
    # nothing compiled yet for a fresh body that never ran under codegen
    p.run(ExecOptions(execution="codegen"))
    src = dump_generated_source(seed)
    assert src is not None and "_cg_make" in src and "_cg_driver" in src
    # refused rules have no generated source
    assert dump_generated_source(check) is None
    # the hook also accepts the raw body function
    assert dump_generated_source(seed.body) == src


def test_loop_variable_shadowing_the_trigger():
    """A loop variable named like the trigger parameter (what a textual
    ``for (x : get T(...))`` inside ``foreach (T x)`` lowers to) used to
    read the *trigger's* fields inside the loop under codegen."""

    def build():
        p = Program("shadow")
        T = p.table("T", "int t -> int v", orderby=("Int", "seq t"))

        @p.foreach(T, assume_stratified=True)
        def earlier(ctx, x):
            for x in ctx.get(T, ranges={"t": {"lt": x.t}}):
                ctx.println(f"saw {x.t} {x.v}")

        for t, v in enumerate([1, 1, 5]):
            p.put(T.new(t, v))
        return p

    ref = build().run(ExecOptions())
    got = build().run(ExecOptions(execution="codegen"))
    assert ref.output == ["saw 0 1", "saw 0 1", "saw 1 1"]
    _assert_results(got, ref, "shadowed trigger under codegen")
    assert _kept_scalar(got) == []


# -- textual programs: lowered to Python, compiled like the rest -------------

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))

_EDGES = [(0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 1), (2, 3, 6), (3, 4, 2)]


def _fig4():
    from tests.lang.test_compile import TestFig4PvWatts

    return TestFig4PvWatts()._program()


def _fig5(src=None):
    from tests.lang.test_compile import TestFig5Dijkstra

    p = compile_source(src or TestFig5Dijkstra.SRC, "fig5")
    for edge in _EDGES:
        p.put(p.tables["Edge"].new(*edge))
    return p


def _example_fig4():
    from textual_jstar import FIG4

    data = generate_csv_bytes(n_years=1, seed=42)
    return compile_source(FIG4, "fig4", files={"large1000.csv": data})


def _example_fig5():
    from textual_jstar import FIG5

    return _fig5(FIG5)


TEXTUAL = {
    "fig4": _fig4,
    "fig5": _fig5,
    "example-fig4": _example_fig4,
    "example-fig5": _example_fig5,
}


def _kept_scalar(result) -> list[str]:
    return [n.text for n in result.stats.note_records if n.code == "codegen.kept-scalar"]


@pytest.mark.parametrize("name", sorted(TEXTUAL))
def test_textual_programs_compile_under_codegen(name):
    """Byte-identical to scalar, and with the dynamic check off every
    rule fires generated: nothing about a lowered body's shape refuses."""
    build = TEXTUAL[name]
    off = ExecOptions(causality_check="off")
    ref = build().run(off)
    got = build().run(off.with_(execution="codegen"))
    _assert_results(got, ref, f"textual {name} under codegen")
    assert sum(ref.table_sizes.values()) > 5  # the programs ran
    assert _kept_scalar(got) == []
    assert sum(
        n.code == "codegen.fired" and "generated / 0 scalar" in n.text
        for n in got.stats.note_records
    ) == len(
        [r for r in build().rules if got.stats.rules.get(r.name)]
    )


@pytest.mark.parametrize("name", sorted(TEXTUAL))
def test_textual_programs_under_the_default_check(name):
    """Under causality_check="warn" the one rule still kept scalar is
    Fig 5's: its negative queries need dynamic adjudication (the gate
    every hand-written rule with a negative query sits behind too)."""
    build = TEXTUAL[name]
    if name.endswith("fig5"):
        with pytest.warns(StratificationWarning, match="no statically bounded"):
            ref = build().run(ExecOptions())
        with pytest.warns(StratificationWarning, match="no statically bounded"):
            got = build().run(ExecOptions(execution="codegen"))
        (note,) = _kept_scalar(got)
        assert "require dynamic adjudication" in note
    else:
        ref = build().run(ExecOptions())
        got = build().run(ExecOptions(execution="codegen"))
        assert _kept_scalar(got) == []
    _assert_results(got, ref, f"textual {name} under codegen, check on")


# -- chaos fuzz: the knob downgrades, results stay identical -----------------


@pytest.mark.parametrize("seed", range(20))
def test_chaos_fuzz_codegen_downgrades(seed, apps, traced_references):
    got = apps["shortestpath"](
        ExecOptions(
            strategy="chaos",
            chaos_seed=seed,
            metering="off",
            trace=True,
            execution="codegen",
        )
    )
    _assert_same(
        got, traced_references["shortestpath"], f"chaos seed {seed} codegen"
    )
    assert any(n.code == "codegen.ignored" for n in got.stats.note_records), got.stats.notes
