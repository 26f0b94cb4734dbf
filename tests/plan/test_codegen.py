"""Unit tests for the freeze()-time rule-body compiler
(:mod:`repro.plan.codegen`).

The compiler's contract is *refuse-or-match*: a rule either compiles to
a driver whose observable behaviour is byte-identical to the scalar
path — including error messages — or it refuses with a
human-readable reason and the rule keeps the scalar path.  These tests
pin both halves: the refusal reasons (each one a construct the
generated code cannot prove equivalent) and the identical-error cases
(``get uniq?`` multiplicity, causality violations).
"""

from __future__ import annotations

import pytest

from repro.core import CausalityError, ExecOptions, Program, RuleError
from repro.gamma import HashKeyStore
from repro.plan.codegen import (
    CodegenRefusal,
    compile_rule,
    compiled_for,
    dump_generated_source,
)


def _module_helper(ctx):  # a target for the ctx-escape refusal
    return ctx


def _make_tables(p: Program):
    Src = p.table("Src", "int k", orderby=("Src",))
    Item = p.table("Item", "int k, int v", orderby=("Item",))
    Probe = p.table("Probe", "int k", orderby=("Probe",))
    p.order("Src", "Item")
    p.order("Item", "Probe")
    return Src, Item, Probe


# -- refusal reasons ---------------------------------------------------------


def _refusal_rules():
    """One (rule, reason fragment) per refused construct; the rules
    never run — only their source is analysed."""
    p = Program("refusals")
    Src, Item, Probe = _make_tables(p)
    cases = []

    @p.foreach(Probe)
    def where_lambda(ctx, pr):
        ctx.get(Item, where=lambda it: it.v > 0)

    cases.append((p, where_lambda, "where= lambdas are opaque"))

    @p.foreach(Probe)
    def ctx_escapes(ctx, pr):
        _module_helper(ctx)

    cases.append((p, ctx_escapes, "rule context escapes the body"))

    @p.foreach(Probe)
    def cg_prefix(ctx, pr):
        _cg_x = pr.k
        ctx.println(_cg_x)

    cases.append((p, cg_prefix, "collide with generated code"))

    @p.foreach(Probe)
    def global_decl(ctx, pr):
        global _G
        _G = pr.k

    cases.append((p, global_decl, "global declarations"))

    @p.foreach(Probe)
    def nested_ctx(ctx, pr):
        def inner():
            ctx.println("hi")

        inner()

    cases.append((p, nested_ctx, "nested function 'inner' uses the rule context"))

    @p.foreach(Probe)
    def lambda_ctx(ctx, pr):
        f = lambda: ctx.println("hi")  # noqa: E731
        f()

    cases.append((p, lambda_ctx, "a lambda uses the rule context"))

    @p.foreach(Probe)
    def io_not_unsafe(ctx, pr):
        ctx.io_allowed()

    cases.append((p, io_not_unsafe, "not declared unsafe"))

    @p.foreach(Probe)
    def native_call(ctx, pr):
        ctx.native(Item)

    cases.append((p, native_call, "unsupported context method ctx.native"))

    @p.foreach(Probe)
    def dyn_ranges(ctx, pr):
        spec = {"v": (0, pr.k)}
        ctx.get(Item, ranges=spec)

    cases.append((p, dyn_ranges, "ranges= must be a literal dict"))

    @p.foreach(Probe)
    def dyn_table(ctx, pr):
        tbl = Item
        ctx.get(tbl, k=pr.k)

    cases.append((p, dyn_table, "not a statically-known table handle"))

    return cases


_REFUSALS = _refusal_rules()


@pytest.mark.parametrize(
    "program, rule, fragment",
    _REFUSALS,
    ids=[rule.name for _, rule, _ in _REFUSALS],
)
def test_refusal_reason(program, rule, fragment):
    with pytest.raises(CodegenRefusal) as err:
        compile_rule(rule, program)
    assert fragment in err.value.reason, err.value.reason


def test_compiled_rule_is_cached_on_the_program():
    p = Program("cache")
    Src, Item, Probe = _make_tables(p)

    @p.foreach(Probe, assume_stratified=True)
    def probe(ctx, pr):
        ctx.println(f"items: {len(ctx.get(Item, k=pr.k))}")

    compiled, reason = compiled_for(p, probe)
    assert reason is None
    assert "_cg_driver" in compiled.source
    assert compiled_for(p, probe)[0] is compiled  # second call: cache hit


# -- identical errors --------------------------------------------------------


def _uniq_program():
    p = Program("uniq")
    Src, Item, Probe = _make_tables(p)

    @p.foreach(Src, unsafe=True)
    def seed(ctx, s):
        ctx.put(Item.new(s.k, 1))
        ctx.put(Item.new(s.k, 2))
        ctx.put(Probe.new(s.k))

    @p.foreach(Probe, assume_stratified=True)
    def probe(ctx, pr):
        ctx.get_uniq(Item, k=pr.k)

    p.put(Src.new(0))
    return p


def test_get_uniq_multiplicity_error_is_byte_identical():
    with pytest.raises(RuleError) as scalar_err:
        _uniq_program().run(ExecOptions())
    with pytest.raises(RuleError) as codegen_err:
        _uniq_program().run(ExecOptions(execution="codegen"))
    assert str(codegen_err.value) == str(scalar_err.value)
    assert "get uniq? Item matched 2 tuples" in str(codegen_err.value)


def _past_put_program():
    p = Program("cheat")
    T = p.table("T", "int t", orderby=("Int", "seq t"))

    @p.foreach(T)
    def back(ctx, t):
        if t.t == 1:
            ctx.put(T.new(0))  # into the past!

    p.put(T.new(1))
    return p


def test_causality_error_is_byte_identical():
    with pytest.raises(CausalityError) as scalar_err:
        _past_put_program().run(ExecOptions())
    with pytest.raises(CausalityError) as codegen_err:
        _past_put_program().run(ExecOptions(execution="codegen"))
    assert str(codegen_err.value) == str(scalar_err.value)


def test_causality_check_off_skips_the_generated_check_too():
    ref = _past_put_program().run(ExecOptions(causality_check="off"))
    got = _past_put_program().run(
        ExecOptions(causality_check="off", execution="codegen")
    )
    assert got.table_sizes == ref.table_sizes == {"T": 2}


# -- the adjudication gate ---------------------------------------------------


def _absent_program(assume: bool):
    p = Program("gate")
    Src, Item, Probe = _make_tables(p)

    @p.foreach(Src, unsafe=True)
    def seed(ctx, s):
        ctx.put(Item.new(s.k, s.k * 10))
        ctx.put(Probe.new(s.k))

    @p.foreach(Probe, assume_stratified=assume)
    def probe(ctx, pr):
        ctx.println(f"missing {pr.k}: {ctx.absent(Item, k=pr.k + 100)}")

    for k in range(3):
        p.put(Src.new(k))
    return p


def test_negative_query_needs_stratification_promise():
    got = _absent_program(assume=False).run(ExecOptions(execution="codegen"))
    assert any(
        (n.code, n.subject) == ("codegen.kept-scalar", "probe")
        and "dynamic adjudication" in n.text
        for n in got.stats.note_records
    ), got.stats.notes


def test_assume_stratified_unlocks_negative_queries():
    ref = _absent_program(assume=True).run(ExecOptions())
    got = _absent_program(assume=True).run(ExecOptions(execution="codegen"))
    assert got.output_text() == ref.output_text()
    assert any(
        (n.code, n.subject) == ("codegen.fired", "probe")
        and "fired 3 generated / 0 scalar" in n.text
        for n in got.stats.note_records
    ), got.stats.notes


def test_causality_check_off_also_unlocks_negative_queries():
    ref = _absent_program(assume=False).run(ExecOptions(causality_check="off"))
    got = _absent_program(assume=False).run(
        ExecOptions(causality_check="off", execution="codegen")
    )
    assert got.output_text() == ref.output_text()
    assert any(
        (n.code, n.subject) == ("codegen.fired", "probe") and "fired 3 generated" in n.text
        for n in got.stats.note_records
    ), got.stats.notes


def test_fired_count_notes_are_run_totals_one_line_per_rule():
    """A long-lived session reports each rule's generated/scalar firing
    counts once, as totals — not one note per distinct per-settle count."""
    p = Program("ticks")
    Tick = p.table("Tick", "int t, int k", orderby=("Tick", "seq t"))
    Out = p.table("Out", "int t, int k", orderby=("Tick", "seq t", "Out"))

    @p.foreach(Tick)
    def emit(ctx, tick):
        ctx.put(Out.new(tick.t, tick.k))

    @p.foreach(Tick)
    def peers(ctx, tick):  # where= lambda: refused, stays scalar
        ctx.get(Tick, tick.t, where=lambda other: other.k < tick.k)

    fed = 0
    with p.session(execution="codegen") as s:
        for t in range(50):
            width = 1 + (t * 5) % 7  # varying feed sizes
            s.feed([Tick.new(t, k) for k in range(width)])
            s.settle()
            fed += width
        notes = [n.text for n in s.kernel.stats.note_records if n.code == "codegen.fired"]
    assert sorted(notes) == [
        f"codegen: rule 'emit' fired {fed} generated / 0 scalar",
        f"codegen: rule 'peers' fired 0 generated / {fed} scalar",
    ]


# -- keyed direct lookups ----------------------------------------------------


def _keyed_program():
    p = Program("keyed")
    Src = p.table("Src", "int k", orderby=("Src",))
    Rec = p.table("Rec", "int k -> int v", orderby=("Rec",))
    Probe = p.table("Probe", "int k", orderby=("Probe",))
    p.order("Src", "Rec")
    p.order("Rec", "Probe")

    @p.foreach(Src, unsafe=True)
    def seed(ctx, s):
        ctx.put(Rec.new(s.k, s.k * 10))
        ctx.put(Probe.new(s.k))

    @p.foreach(Probe, assume_stratified=True)
    def probe(ctx, pr):
        rec = ctx.get_uniq(Rec, k=pr.k)
        ctx.println(f"rec {pr.k}: {rec.v if rec is not None else None}")
        ctx.println(f"gone {pr.k}: {ctx.absent(Rec, k=pr.k + 100)}")

    for k in range(5):
        p.put(Src.new(k))
    return p, probe


def test_keyed_store_takes_the_direct_lookup_branch():
    overrides = {"Rec": lambda s: HashKeyStore(s)}
    _, ref_probe = _keyed_program()
    p_ref, _ = _keyed_program()
    ref = p_ref.run(ExecOptions(store_overrides=overrides))
    p_got, probe = _keyed_program()
    got = p_got.run(ExecOptions(store_overrides=overrides, execution="codegen"))
    assert got.output_text() == ref.output_text()
    src = dump_generated_source(probe)
    # both query sites compile the bind-time keyed branch; whether it is
    # taken depends on the store the kernel actually chose
    assert src is not None and "_s0_lookup" in src and "lookup" in src
