"""Tests for the §5.2 'additional parallelism' extension and the §5
step-4 lifetime hints — the paper's listed-but-unexploited headroom,
implemented here as opt-in features.

* in-rule parallel reducer loops (``ctx.par_reduce``: tree-combined,
  metered as divisible work);
* :class:`RetentionHint` Gamma pruning ("use manual lifetime hints from
  the user to determine when tuples can be discarded").
"""

from __future__ import annotations

import pytest

from repro.core import (
    EngineError,
    ExecOptions,
    Program,
    RetentionHint,
    Statistics,
    SumReducer,
)


class TestParReduce:
    def _program(self, chunks):
        p = Program("parred")
        Data = p.table("Data", "int g, int v", orderby=("A",))
        Go = p.table("Go", "int g", orderby=("B",))
        p.order("A", "B")
        got = {}

        @p.foreach(Go)
        def agg(ctx, go):
            rows = ctx.get(Data, go.g)
            got["sum"] = ctx.par_reduce((t.v for t in rows), SumReducer(), chunks=chunks)
            got["stats"] = ctx.par_reduce(
                (float(t.v) for t in rows), Statistics(), chunks=chunks
            )

        for v in range(40):
            p.put(Data.new(0, v))
        p.put(Go.new(0))
        return p, got

    @pytest.mark.parametrize("chunks", [1, 3, 8, 64])
    def test_results_match_sequential(self, chunks):
        p, got = self._program(chunks)
        p.run()
        assert got["sum"] == sum(range(40))
        assert got["stats"].count == 40
        assert got["stats"].mean == pytest.approx(19.5)

    def test_empty_input(self):
        p = Program("empty")
        Go = p.table("Go", "int g", orderby=("B",))
        got = {}

        @p.foreach(Go)
        def agg(ctx, go):
            got["sum"] = ctx.par_reduce([], SumReducer())

        p.put(Go.new(0))
        p.run()
        assert got["sum"] == 0

    def test_divisible_work_speeds_up_forkjoin(self):
        def run(threads):
            p = Program("divide")
            Go = p.table("Go", "int g", orderby=("B",))

            @p.foreach(Go)
            def agg(ctx, go):
                ctx.par_reduce(range(1000), SumReducer(), chunks=16, cost_per_item=1.0)

            p.put(Go.new(0))
            return p.run(
                ExecOptions(strategy="forkjoin", threads=threads)
            ).virtual_time

        t1, t8 = run(1), run(8)
        assert t8 < t1 / 3  # a single rule's loop now parallelises

    def test_meter_records_splittable(self):
        p, _ = self._program(chunks=8)
        r = p.run()
        assert r.meter.splittable  # recorded through the merge chain
        assert r.meter.count("par_loop") == 2


class TestRetentionHints:
    def _program(self, retention):
        from repro.simcore.gc import GcModel

        p = Program("gen")
        T = p.table("T", "int gen, int i", orderby=("Int", "seq gen", "par i"))

        @p.foreach(T)
        def advance(ctx, t):
            if t.gen < 9:
                ctx.put(T.new(t.gen + 1, t.i))

        for i in range(4):
            p.put(T.new(0, i))
        # GC model scaled to this tiny heap so pressure differences are
        # visible (the default half-full point is ~200k tuples)
        return p.run(ExecOptions(retention=retention, gc_model=GcModel(half_full=20.0)))

    def test_without_hint_everything_retained(self):
        r = self._program({})
        assert r.table_sizes["T"] == 40

    def test_hint_keeps_last_generations(self):
        r = self._program({"T": RetentionHint("gen", keep_last=2)})
        assert r.table_sizes["T"] == 8  # generations 8 and 9 only
        remaining = {t.gen for t in r.database.store("T").scan()}
        assert remaining == {8, 9}
        assert r.stats.tables["T"].gamma_discarded == 32

    def test_hint_does_not_change_outputs(self):
        plain = self._program({})
        pruned = self._program({"T": RetentionHint("gen", keep_last=2)})
        assert plain.stats.rules["advance"].firings == pruned.stats.rules["advance"].firings

    def test_hint_reduces_gc_pressure(self):
        plain = self._program({})
        pruned = self._program({"T": RetentionHint("gen", keep_last=1)})
        assert pruned.report.gc_time < plain.report.gc_time

    def test_unknown_table_rejected(self):
        with pytest.raises(EngineError, match="unknown table"):
            self._program({"Ghost": RetentionHint("gen")})

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception):
            self._program({"T": RetentionHint("nope")})

    def test_keep_last_validated(self):
        with pytest.raises(EngineError):
            RetentionHint("gen", keep_last=0)
