"""Edge-path coverage: error branches and less-travelled combinations
across subsystems."""

from __future__ import annotations

import pytest

from repro.core import ExecOptions, Program, RetentionHint


class TestRetentionCombos:
    def _program(self):
        p = Program("combo")
        T = p.table("T", "int gen, int i", orderby=("Int", "seq gen", "par i"))

        @p.foreach(T)
        def advance(ctx, t):
            if t.gen < 6:
                ctx.put(T.new(t.gen + 1, t.i))

        for i in range(3):
            p.put(T.new(0, i))
        return p

    def test_retention_under_threads_strategy(self):
        r = self._program().run(
            ExecOptions(
                strategy="threads",
                threads=3,
                retention={"T": RetentionHint("gen", 2)},
            )
        )
        assert r.table_sizes["T"] == 6  # last two generations x 3 lanes

    def test_retention_with_nodelta(self):
        """-noDelta cascades insert mid-step; pruning still converges."""
        r = self._program().run(
            ExecOptions(
                no_delta=frozenset({"T"}), retention={"T": RetentionHint("gen", 2)}
            )
        )
        assert {t.gen for t in r.database.store("T").scan()} == {5, 6}


class TestDisruptorEdges:
    def test_halt_when_drained_timeout(self):
        from repro.core.errors import DisruptorError
        from repro.disruptor import Disruptor

        import threading

        gate = threading.Event()

        def slow(v, s, e):
            gate.wait(timeout=2.0)

        d = Disruptor(8)
        d.handle_events_with(slow)
        d.start()
        d.publish("x")
        with pytest.raises(DisruptorError, match="timed out"):
            d.halt_when_drained(timeout=0.05)
        gate.set()
        d.halt()

    def test_publish_without_start_rejected(self):
        from repro.core.errors import DisruptorError
        from repro.disruptor import Disruptor

        d = Disruptor(8)
        d.handle_events_with(lambda v, s, e: None)
        with pytest.raises(DisruptorError, match="gating"):
            d.publish("x")  # no gating sequences before start()


class TestSolverEdges:
    def test_obligation_for_rule_with_no_branches(self):
        from repro.solver import RuleMeta, generate_obligations

        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))
        meta = RuleMeta(T)
        p.freeze()
        assert generate_obligations("empty", meta, p.decls) == []

    def test_prove_with_contradictory_hypotheses(self):
        """Ex falso: an impossible branch proves anything — and that is
        correct (dead code cannot violate causality)."""
        from repro.solver import RuleMeta, check_program

        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))
        meta = RuleMeta(T)
        trig = meta.trigger
        meta.branch(when=[trig["t"] < trig["t"]]).put(T, t=trig["t"] - 5)

        @p.foreach(T, meta=meta)
        def dead(ctx, t): ...

        assert check_program(p).all_proved

    def test_cross_check_prover_on_lang_program(self):
        from repro.lang import compile_source
        from repro.solver import check_program

        p = compile_source(
            "table T(int t) orderby (Int, seq t)\n"
            "put new T(0)\n"
            "foreach (T x) { if (x.t < 4) { put new T(x.t + 1) } }"
        )
        assert check_program(p, prover="cross-check").all_proved


class TestVizEdges:
    def test_isolated_node_rendered(self):
        import networkx as nx

        from repro.viz import graph_ascii

        g = nx.DiGraph()
        g.add_node("table:Lonely", kind="table", label="Lonely")
        assert "isolated" in graph_ascii(g)

    def test_dot_escapes_quotes(self):
        import networkx as nx

        from repro.viz import to_dot

        g = nx.DiGraph()
        g.add_node('n"1', kind="table", label='say "hi"')
        dot = to_dot(g, title='the "title"')
        assert '\\"' in dot


class TestDistEdges:
    def test_single_node_cluster_no_traffic(self):
        from repro.dist import run_sharded

        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def step(ctx, t):
            if t.t < 5:
                ctx.put(T.new(t.t + 1))

        p.put(T.new(0))
        r = run_sharded(p, ExecOptions(threads=1), transport="model")
        assert r.report.messages == 0 and r.report.tuples_moved == 0
        assert r.report.comm == 0.0
        assert [nd["tables"]["T"] for nd in r.nodes] == [6]

    def test_causality_violation_surfaces_in_dist(self):
        from repro.core import CausalityError
        from repro.dist import run_sharded

        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def back(ctx, t):
            if t.t == 1:
                ctx.put(T.new(0))

        p.put(T.new(1))
        with pytest.raises(CausalityError):
            run_sharded(
                p, ExecOptions(threads=2, causality_check="strict"), transport="model"
            )
