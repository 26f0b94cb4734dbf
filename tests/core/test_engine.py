"""Engine lifecycle tests: Fig 3's tuple lifecycle, optimisations,
set semantics, determinism, and failure modes."""

from __future__ import annotations

import pytest

from repro.core import (
    CausalityError,
    EngineError,
    ExecOptions,
    KeyInvariantError,
    Program,
)


def counter_program(limit: int = 5):
    p = Program("counter")
    T = p.table("T", "int t -> int v", orderby=("Int", "seq t"))
    Log = p.table("Log", "int t, int v", orderby=("Out", "seq t"))
    p.order("Int", "Out")

    @p.foreach(T)
    def step(ctx, t):
        ctx.println(f"t={t.t} v={t.v}")
        ctx.put(Log.new(t.t, t.v))
        if t.t < limit:
            ctx.put(T.new(t.t + 1, t.v * 2))

    p.put(T.new(0, 1))
    return p, T, Log


class TestLifecycle:
    def test_runs_to_completion(self):
        p, _, _ = counter_program()
        r = p.run()
        assert r.steps == 12  # 6 T classes + 6 Log classes
        assert r.output[0] == "t=0 v=1"
        assert r.table_sizes["T"] == 6 and r.table_sizes["Log"] == 6

    def test_gamma_holds_all_tuples(self):
        p, T, _ = counter_program()
        r = p.run()
        vals = sorted(t.v for t in r.database.store("T").scan())
        assert vals == [1, 2, 4, 8, 16, 32]

    def test_engine_single_use(self):
        p, _, _ = counter_program()
        s = p.session(ExecOptions())
        s.run()
        with pytest.raises(EngineError, match="closed"):
            s.run()

    def test_max_steps_guard(self):
        p = Program("forever")
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def diverge(ctx, t):
            ctx.put(T.new(t.t + 1))  # the paper's infinite Ship loop

        p.put(T.new(0))
        with pytest.raises(EngineError, match="max_steps"):
            p.run(ExecOptions(max_steps=10))

    def test_virtual_time_positive(self):
        p, _, _ = counter_program()
        assert p.run().virtual_time > 0


class TestSetSemantics:
    def test_duplicate_puts_discarded(self):
        p = Program("dups")
        Src = p.table("Src", "int i", orderby=("A", "par i"))
        Out = p.table("Out", "int v", orderby=("B",))
        p.order("A", "B")
        fired = []

        @p.foreach(Src)
        def emit(ctx, s):
            ctx.put(Out.new(s.i % 2))  # many duplicates

        @p.foreach(Out)
        def count(ctx, o):
            fired.append(o.v)

        for i in range(10):
            p.put(Src.new(i))
        r = p.run()
        assert sorted(fired) == [0, 1]  # Out fired once per unique tuple
        assert r.stats.tables["Out"].duplicates == 8

    def test_rederived_tuple_after_pop_not_refired(self):
        p = Program("rederive")
        A = p.table("A", "int i", orderby=("A", "seq i"))
        B = p.table("B", "int v", orderby=("B",))
        p.order("A", "B")
        fires = []

        @p.foreach(A)
        def emit(ctx, a):
            ctx.put(B.new(7))  # same B from every A

        @p.foreach(B)
        def record(ctx, b):
            fires.append(b.v)

        for i in range(3):
            p.put(A.new(i))
        p.run()
        # B(7) derived three times, but Gamma dedup fires it exactly once
        assert fires == [7]

    def test_key_invariant_violation(self):
        p = Program("keys")
        K = p.table("K", "int k -> int v", orderby=("A", "par k"))

        @p.foreach(K)
        def clash(ctx, t):
            if t.k == 0:
                ctx.put(K.new(0, 99))  # same key, different value

        p.put(K.new(0, 1))
        with pytest.raises(KeyInvariantError):
            p.run()

    def test_exact_duplicate_with_key_is_fine(self):
        p = Program("keys2")
        K = p.table("K", "int k -> int v", orderby=("A", "par k"))

        @p.foreach(K)
        def rederive(ctx, t):
            if t.k == 0 and t.v == 1:
                ctx.put(K.new(0, 1))  # exact duplicate: discarded silently

        p.put(K.new(0, 1))
        r = p.run()
        assert r.table_sizes["K"] == 1


class TestOptimisations:
    def _program(self):
        p = Program("opt")
        Src = p.table("Src", "int i", orderby=("A", "par i"))
        Mid = p.table("Mid", "int i", orderby=("B", "par i"))
        Sink = p.table("Sink", "int total", orderby=("C",))
        p.order("A", "B", "C")

        @p.foreach(Src)
        def fan(ctx, s):
            ctx.put(Mid.new(s.i))

        @p.foreach(Mid)
        def mid(ctx, m):
            ctx.put(Sink.new(m.i))

        for i in range(6):
            p.put(Src.new(i))
        return p

    def test_no_delta_bypasses_tree(self):
        r = self._program().run(ExecOptions(no_delta=frozenset({"Mid"})))
        assert r.stats.tables["Mid"].delta_bypass == 6
        assert r.stats.tables["Mid"].delta_inserts == 0
        assert r.table_sizes["Sink"] == 6

    def test_no_delta_output_equivalent(self):
        plain = self._program().run()
        opt = self._program().run(ExecOptions(no_delta=frozenset({"Mid"})))
        assert plain.table_sizes == opt.table_sizes

    def test_no_gamma_skips_storage(self):
        r = self._program().run(ExecOptions(no_gamma=frozenset({"Mid"})))
        assert r.table_sizes["Mid"] == 0
        assert r.stats.tables["Mid"].gamma_skipped == 6
        assert r.table_sizes["Sink"] == 6  # rules still fired

    def test_no_delta_reduces_virtual_time(self):
        plain = self._program().run()
        opt = self._program().run(ExecOptions(no_delta=frozenset({"Mid", "Sink"})))
        assert opt.virtual_time < plain.virtual_time

    def test_no_delta_cascade_at_init(self):
        p = Program("init-cascade")
        A = p.table("A", "int i", orderby=("A",))
        B = p.table("B", "int i", orderby=("B",))
        p.order("A", "B")

        @p.foreach(A)
        def fan(ctx, a):
            ctx.put(B.new(a.i))

        p.put(A.new(1))
        r = p.run(ExecOptions(no_delta=frozenset({"A"})))
        assert r.table_sizes == {"A": 1, "B": 1}
        assert r.steps == 1  # only B went through Delta


class TestCausalityEnforcement:
    def _past_put_program(self):
        p = Program("cheat")
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def back(ctx, t):
            if t.t == 1:
                ctx.put(T.new(0))  # into the past!

        p.put(T.new(1))
        return p

    def test_put_into_past_raises_by_default(self):
        with pytest.raises(CausalityError, match="past"):
            self._past_put_program().run()

    def test_check_off_lets_it_through(self):
        r = self._past_put_program().run(ExecOptions(causality_check="off"))
        assert r.table_sizes["T"] == 2

    def test_put_into_present_allowed(self):
        p = Program("present")
        T = p.table("T", "int t, int j", orderby=("Int", "seq t", "par j"))
        fired = []

        @p.foreach(T)
        def same_time(ctx, t):
            fired.append(t.j)
            if t.j == 0:
                ctx.put(T.new(t.t, 1))  # same timestamp: present, legal

        p.put(T.new(0, 0))
        p.run()
        assert sorted(fired) == [0, 1]


class TestStrategies:
    @pytest.mark.parametrize("strategy,threads", [
        ("sequential", 1), ("forkjoin", 1), ("forkjoin", 4),
        ("forkjoin", 32), ("threads", 2), ("threads", 4),
    ])
    def test_output_identical_across_strategies(self, strategy, threads):
        ref = counter_program()[0].run()
        r = counter_program()[0].run(ExecOptions(strategy=strategy, threads=threads))
        assert r.output == ref.output
        assert r.table_sizes == ref.table_sizes

    def test_forkjoin_reports_machine(self):
        r = counter_program()[0].run(ExecOptions(strategy="forkjoin", threads=4))
        assert r.report is not None and r.report.n_cores == 4

    def test_threads_strategy_has_no_machine(self):
        r = counter_program()[0].run(ExecOptions(strategy="threads", threads=2))
        assert r.report is None

    def test_invalid_strategy_rejected(self):
        with pytest.raises(EngineError):
            ExecOptions(strategy="gpu")

    def test_invalid_threads_rejected(self):
        with pytest.raises(EngineError):
            ExecOptions(threads=0)

    def test_invalid_check_mode_rejected(self):
        with pytest.raises(EngineError):
            ExecOptions(causality_check="maybe")

    def test_parallel_batch_runs_in_one_step(self):
        p = Program("wide")
        W = p.table("W", "int i", orderby=("A", "par i"))

        @p.foreach(W)
        def noop(ctx, w):
            pass

        for i in range(20):
            p.put(W.new(i))
        r = p.run(ExecOptions(strategy="forkjoin", threads=8))
        assert r.steps == 1
        assert r.stats.max_batch == 20

    def test_more_threads_not_slower_for_wide_batches(self):
        def run(threads):
            p = Program("wide2")
            W = p.table("W", "int i", orderby=("A", "par i"))

            @p.foreach(W)
            def work(ctx, w):
                ctx.charge(100.0)

            for i in range(64):
                p.put(W.new(i))
            return p.run(ExecOptions(strategy="forkjoin", threads=threads)).virtual_time

        t1, t8 = run(1), run(8)
        assert t8 < t1 / 4  # wide independent work parallelises
