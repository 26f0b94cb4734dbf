"""Cross-feature integration: features that must compose — textual
programs on the distributed engine, threads strategy with noDelta
cascades, disruptor multi-producer under real threads, advisor over
textual programs, expression-evaluator fuzz against Python semantics."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecOptions, Program
from repro.dist import Partitioned, run_sharded
from repro.lang import compile_source, parse_expression
from repro.lang.compile import _SUPPORT, _Lowering


class TestTextualDistributed:
    """A program written in the paper's syntax, run on the cluster."""

    SRC = """
        table Edge(int src, int dst, int value) orderby (Edge);
        table Estimate(int vertex, int distance) orderby (Int, seq distance, Estimate);
        put new Estimate(0, 0);
        table Done(int vertex -> int distance) orderby (Int, seq distance, Done)
        order Edge < Int;
        order Estimate < Done;
        foreach (Estimate dist) {
          if (get uniq? Done(dist.vertex, [distance < dist.distance]) == null) {
            put new Done(dist.vertex, dist.distance);
            for (edge : get Edge(dist.vertex)) {
              if (get uniq? Done(edge.dst) == null) {
                put new Estimate(edge.dst, dist.distance + edge.value);
              }
            }
          }
        }
    """

    EDGES = [(0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 1), (2, 3, 6), (3, 4, 2)]

    def _distances(self, result) -> dict[int, int]:
        # the control replica, which the shards are checked against
        return {t.vertex: t.distance for t in result.database.store("Done").scan()}

    def test_fig5_distributed_matches_single_node(self):
        single = compile_source(self.SRC)
        Edge = single.tables["Edge"]
        for e in self.EDGES:
            single.put(Edge.new(*e))
        ref = {
            t.vertex: t.distance
            for t in single.run(ExecOptions(causality_check="off"))
            .database.store("Done")
            .scan()
        }

        for nodes in (2, 4):
            dist_prog = compile_source(self.SRC)
            Edge = dist_prog.tables["Edge"]
            for e in self.EDGES:
                dist_prog.put(Edge.new(*e))
            r = run_sharded(
                dist_prog,
                ExecOptions(
                    threads=nodes,
                    causality_check="off",
                    placements={
                        "Edge": Partitioned("src"),
                        "Estimate": Partitioned("vertex"),
                        "Done": Partitioned("vertex"),
                    },
                ),
                transport="model",
            )
            assert self._distances(r) == ref
            # vertex co-partitioning keeps the Done guard local; the
            # Done(edge.dst) probe and Estimate sends may travel
            assert r.report.messages >= 0


class TestThreadsWithCascades:
    def test_nodelta_cascade_under_real_threads(self):
        """-noDelta fires rules inside producing tasks while other
        threads query — the coarse-lock path must keep this safe."""

        def build():
            p = Program("cascade")
            Src = p.table("Src", "int i", orderby=("A", "par i"))
            Mid = p.table("Mid", "int i", orderby=("B", "par i"))
            Sink = p.table("Sink", "int i, int n", orderby=("C", "par i"))
            p.order("A", "B", "C")

            @p.foreach(Src)
            def fan(ctx, s):
                ctx.put(Mid.new(s.i))

            @p.foreach(Mid)
            def count_peers(ctx, m):
                n = len(ctx.get(Src))
                ctx.put(Sink.new(m.i, n))

            for i in range(24):
                p.put(Src.new(i))
            return p

        ref = build().run(ExecOptions(no_delta=frozenset({"Mid"})))
        thr = build().run(
            ExecOptions(strategy="threads", threads=4, no_delta=frozenset({"Mid"}))
        )
        assert thr.table_sizes == ref.table_sizes
        assert {t.values for t in thr.database.store("Sink").scan()} == {
            t.values for t in ref.database.store("Sink").scan()
        }


class TestDisruptorMultiProducerThreaded:
    def test_two_real_producers(self):
        from repro.disruptor import Disruptor, MultiThreadedClaimStrategy

        d = Disruptor(
            128, claim_strategy=MultiThreadedClaimStrategy(128)
        )
        seen: list[int] = []
        d.handle_events_with(lambda v, s, e: seen.append(v))
        d.start()

        def producer(base: int) -> None:
            for i in range(200):
                d.publish(base + i)

        threads = [
            threading.Thread(target=producer, args=(0,)),
            threading.Thread(target=producer, args=(10_000,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        d.halt_when_drained()
        assert sorted(seen) == sorted(list(range(200)) + list(range(10_000, 10_200)))
        # per-producer FIFO preserved
        a = [v for v in seen if v < 10_000]
        b = [v for v in seen if v >= 10_000]
        assert a == sorted(a) and b == sorted(b)


class TestAdvisorOnTextualPrograms:
    def test_textual_queries_feed_the_advisor(self):
        from repro.stats import advise

        src = """
        table Data(int k, int v) orderby (A)
        table Probe(int i) orderby (B, par i)
        order A < B
        foreach (Probe p) {
          for (d : get Data(p.i)) { println(d.v) }
        }
        """
        p = compile_source(src)
        Data, Probe = p.tables["Data"], p.tables["Probe"]
        for i in range(20):
            p.put(Data.new(i % 4, i))
        for i in range(4):
            p.put(Probe.new(i))
        r = p.run()
        rec = next(x for x in advise(r) if x.table == "Data")
        assert rec.kind == "array-of-hashsets"  # k spans the dense 0..3


# -- expression-lowering fuzz ----------------------------------------------------


def _evaluate(ast):
    """Lower one expression the way a rule body's are and run it."""
    return eval(_Lowering({}, {}).expr(ast)[0], dict(_SUPPORT))


_INT = st.integers(-50, 50)


@st.composite
def arith_exprs(draw, depth=0):
    """Random arithmetic/comparison source + its Python value."""
    if depth > 2 or draw(st.booleans()):
        n = draw(_INT)
        return (str(n) if n >= 0 else f"(0 - {abs(n)})"), n
    op = draw(st.sampled_from(["+", "-", "*"]))
    ls, lv = draw(arith_exprs(depth + 1))
    rs, rv = draw(arith_exprs(depth + 1))
    return f"({ls} {op} {rs})", {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]


@settings(max_examples=100, deadline=None)
@given(arith_exprs())
def test_evaluator_matches_python_arithmetic(expr_value):
    src, expected = expr_value
    ast = parse_expression(src)
    value = _evaluate(ast)
    assert value == expected


@settings(max_examples=60, deadline=None)
@given(arith_exprs(), arith_exprs(), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
def test_evaluator_matches_python_comparison(a, b, op):
    (sa, va), (sb, vb) = a, b
    ast = parse_expression(f"{sa} {op} {sb}")
    value = _evaluate(ast)
    expected = {
        "<": va < vb, "<=": va <= vb, ">": va > vb,
        ">=": va >= vb, "==": va == vb, "!=": va != vb,
    }[op]
    assert value == expected
