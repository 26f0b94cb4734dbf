"""Property: randomly generated JStar programs are deterministic across
every strategy, granularity and node count — the §1.3 guarantee tested
on program *shapes* no human wrote.

The generator builds layered programs: tables T0..Tk ordered by
literal layer then a seq clock; each rule maps a layer-i trigger to a
layer-j put (i < j, or i == j with a strictly larger clock), with
randomised guards, fan-outs and clock increments — always
causality-respecting by construction, so every run must succeed and
agree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecOptions, Program
from repro.dist import run_sharded


@st.composite
def program_specs(draw):
    n_layers = draw(st.integers(2, 4))
    rules = []
    n_rules = draw(st.integers(1, 5))
    for _ in range(n_rules):
        src = draw(st.integers(0, n_layers - 1))
        same_layer = draw(st.booleans())
        dst = src if same_layer else draw(st.integers(src, n_layers - 1))
        inc = draw(st.integers(1, 3)) if dst == src else draw(st.integers(0, 2))
        guard_mod = draw(st.integers(1, 4))
        fan = draw(st.integers(1, 3))
        clock_cap = draw(st.integers(2, 6))
        rules.append((src, dst, inc, guard_mod, fan, clock_cap))
    seeds = draw(
        st.lists(
            st.tuples(st.integers(0, n_layers - 1), st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return n_layers, rules, seeds


def build(spec) -> Program:
    n_layers, rules, seeds = spec
    p = Program("random")
    tables = [
        p.table(f"T{i}", "int clock, int tag", orderby=(f"L{i}", "seq clock", "par tag"))
        for i in range(n_layers)
    ]
    for i in range(n_layers - 1):
        p.order(f"L{i}", f"L{i + 1}")

    for ridx, (src, dst, inc, guard_mod, fan, clock_cap) in enumerate(rules):
        T_src, T_dst = tables[src], tables[dst]

        @p.foreach(T_src, name=f"rule{ridx}", assume_stratified=True)
        def body(ctx, t, T_dst=T_dst, inc=inc, guard_mod=guard_mod, fan=fan, cap=clock_cap):
            if t.clock >= cap:
                return
            if (t.clock + t.tag) % guard_mod == 0:
                # an aggregate over the strict past is always legal
                ctx.count(T_dst, ranges={"clock": {"lt": t.clock}})
                for k in ctx.par_loop(range(fan)):
                    ctx.put(T_dst.new(t.clock + inc, (t.tag + k) % 7))
            ctx.println(f"{t.clock}:{t.tag}")

    for layer, clock, tag in seeds:
        p.put(tables[layer].new(clock, tag))
    return p


@settings(max_examples=25, deadline=None)
@given(program_specs())
def test_all_strategies_agree(spec):
    ref = build(spec).run(ExecOptions(max_steps=500))
    configs = [
        ExecOptions(strategy="forkjoin", threads=1, max_steps=500),
        ExecOptions(strategy="forkjoin", threads=8, max_steps=500),
        ExecOptions(strategy="threads", threads=3, max_steps=500),
    ]
    for opts in configs:
        r = build(spec).run(opts)
        assert r.output == ref.output
        assert r.table_sizes == ref.table_sizes


@settings(max_examples=12, deadline=None)
@given(program_specs(), st.integers(1, 5))
def test_distributed_agrees(spec, nodes):
    ref = build(spec).run(ExecOptions(max_steps=500))
    r = run_sharded(
        build(spec), ExecOptions(threads=nodes, max_steps=500), transport="model"
    )
    assert r.output == ref.output
    for name, total in ref.table_sizes.items():
        assert sum(nd["tables"][name] for nd in r.nodes) == total
