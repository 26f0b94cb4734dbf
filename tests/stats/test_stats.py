"""Tests for the statistics collector, dependency graphs, and reports."""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx

from repro.core import ExecOptions, Program
from repro.solver import RuleMeta
from repro.stats import (
    StatsCollector,
    execution_graph,
    format_machine,
    format_rule_stats,
    format_table_stats,
    program_graph,
    run_report,
)


def pipeline_program():
    p = Program("pipe")
    A = p.table("A", "int i", orderby=("A", "par i"))
    B = p.table("B", "int i", orderby=("B", "par i"))
    p.order("A", "B")

    meta = RuleMeta(A)
    meta.branch().put(B, i=meta.trigger["i"])

    @p.foreach(A, meta=meta)
    def fan(ctx, a):
        ctx.put(B.new(a.i))

    @p.foreach(B)
    def sink(ctx, b):
        ctx.get(A, b.i)
        ctx.println("saw", b.i)

    for i in range(4):
        p.put(A.new(i))
    return p


class TestCollector:
    def test_counts_accumulate(self):
        c = StatsCollector()
        c.on_step(5)
        c.on_step(2)
        c.trigger_edges[("T", "r")] = 1  # a firing is one cell, bumped in place
        c.on_put("r", "U", 3)
        # query counts arrive one way: folded from the plans that served
        # them, whose cells are zeroed in place (a bound driver holds one)
        cell = [1, 7]
        plan = SimpleNamespace(stat_shape=("T", (), ()), rule_hits={"r": cell})
        c.absorb_planned([plan])
        assert plan.rule_hits["r"] is cell and cell == [0, 0]
        assert c.steps == 2 and c.max_batch == 5
        assert c.tables["T"].triggers == 1
        assert c.rules["r"].firings == 1 and c.rules["r"].puts == 3
        assert c.tables["T"].queries == 1 and c.tables["T"].results == 7
        assert c.trigger_edges[("T", "r")] == 1
        assert c.put_edges[("r", "U")] == 3
        assert c.query_edges[("r", "T")] == 1

    def test_as_dict(self):
        c = StatsCollector()
        c.trigger_edges[("T", "r")] = 1
        d = c.as_dict()
        assert d["tables"]["T"]["triggers"] == 1

    def test_engine_populates(self):
        r = pipeline_program().run()
        st = r.stats
        assert st.tables["A"].triggers == 4
        assert st.tables["B"].puts == 4
        assert st.rules["fan"].firings == 4
        assert st.rules["sink"].output_lines == 4
        assert st.query_edges[("sink", "A")] == 4


class TestGraphs:
    def test_program_graph_static_structure(self):
        g = program_graph(pipeline_program())
        assert g.nodes["table:A"]["kind"] == "table"
        assert g.nodes["rule:fan"]["kind"] == "rule"
        assert g.edges["table:A", "rule:fan"]["kind"] == "trigger"
        # put edge comes from the solver metadata
        assert g.edges["rule:fan", "table:B"]["kind"] == "put"
        # sink has no metadata: only its trigger edge exists
        assert not list(g.successors("rule:sink"))

    def test_execution_graph_annotated(self):
        r = pipeline_program().run()
        g = execution_graph(r.stats)
        assert g.edges["table:A", "rule:fan"]["count"] == 4
        assert g.edges["rule:fan", "table:B"]["count"] == 4
        assert g.edges["table:A", "rule:sink"]["kind"] == "read"
        assert g.nodes["rule:fan"]["firings"] == 4
        assert isinstance(g, nx.DiGraph)


class TestReports:
    def test_run_report_sections(self):
        r = pipeline_program().run(ExecOptions(strategy="forkjoin", threads=2))
        text = run_report(r)
        assert "program 'pipe' under forkjoin" in text
        assert "virtual machine: 2 cores" in text
        assert "table" in text and "fan" in text

    def test_table_stats_formatting(self):
        r = pipeline_program().run()
        text = format_table_stats(r.stats)
        assert text.splitlines()[0].startswith("table")
        assert any(line.startswith("A") for line in text.splitlines())

    def test_rule_stats_formatting(self):
        r = pipeline_program().run()
        assert "sink" in format_rule_stats(r.stats)

    def test_machine_formatting(self):
        r = pipeline_program().run(ExecOptions(strategy="forkjoin", threads=4))
        assert "4 cores" in format_machine(r.report)


class TestViz:
    def test_dot_output(self):
        from repro.viz import to_dot

        r = pipeline_program().run()
        dot = to_dot(execution_graph(r.stats))
        assert dot.startswith("digraph")
        assert "style=bold" in dot  # trigger edges bold, like Fig 7
        assert "table:A" in dot and "rule:fan" in dot
        assert dot.rstrip().endswith("}")

    def test_graph_ascii(self):
        from repro.viz import graph_ascii

        g = program_graph(pipeline_program())
        text = graph_ascii(g)
        assert "A ==> fan" in text
        assert "fan --> B" in text

    def test_graph_ascii_handles_cycles(self):
        from repro.viz import graph_ascii

        p = Program("cyclic")
        T = p.table("T", "int t", orderby=("Int", "seq t"))
        meta = RuleMeta(T)
        meta.branch().put(T, t=meta.trigger["t"] + 1)

        @p.foreach(T, meta=meta)
        def again(ctx, t): ...

        text = graph_ascii(program_graph(p))
        assert "again" in text

    def test_delta_ascii(self):
        from repro.core.delta import DeltaTree
        from repro.core.ordering import OrderDecls, evaluate_orderby
        from repro.core.schema import TableSchema
        from repro.core.tuples import TableHandle
        from repro.viz import delta_ascii

        decls = OrderDecls()
        decls.mention("Int")
        decls.freeze()
        T = TableHandle(TableSchema("T", "int t, int j", orderby=("Int", "seq t", "par j")))
        d = DeltaTree()
        for t, j in [(1, 0), (1, 1), (2, 0)]:
            tup = T.new(t, j)
            d.insert(tup, evaluate_orderby(T.schema.orderby, tup.asdict(), decls))
        text = delta_ascii(d)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "(2 parallel)" in lines[0]
        assert "seq=1" in lines[0] and "seq=2" in lines[1]

    def test_delta_ascii_empty(self):
        from repro.core.delta import DeltaTree
        from repro.viz import delta_ascii

        assert "empty" in delta_ascii(DeltaTree())
