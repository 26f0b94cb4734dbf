"""Tests for the automated lifetime analysis (§5 step 4 automated)."""

from __future__ import annotations

import pytest

from repro.core import ExecOptions, Program, RetentionHint
from repro.lang import compile_source
from repro.solver.lifetime import clock_field, suggest_retention


class TestClockField:
    def test_standard_shape(self):
        p = Program()
        T = p.table("T", "int t, int i", orderby=("Int", "seq t", "par i"))
        assert clock_field(T.schema) == "t"

    def test_multiple_leading_literals(self):
        p = Program()
        T = p.table("T", "int t", orderby=("A", "B", "seq t"))
        assert clock_field(T.schema) == "t"

    def test_par_before_seq_disqualifies(self):
        p = Program()
        T = p.table("T", "int t, int i", orderby=("Int", "par i", "seq t"))
        assert clock_field(T.schema) is None

    def test_no_seq_level(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int",))
        assert clock_field(T.schema) is None


def _elsewhere(ctx, value):
    """A helper the rule hands its context to: body analysis refuses
    such a rule (the helper could query anything)."""
    ctx.println(value)


GEN_SRC = """
table T(int t, int i -> int v) orderby (Int, seq t, T, par i)
put new T(0, 0, 1)  put new T(0, 1, 2)
foreach (T x) {
  val prev = get uniq? T(x.t - 1, x.i)
  if (x.t < 8) { put new T(x.t + 1, x.i, x.v + 1) }
}
"""


class TestSuggestRetention:
    def test_lookback_one_gives_keep_two(self):
        p = compile_source(GEN_SRC)
        hints = suggest_retention(p)
        assert hints == {"T": RetentionHint("t", keep_last=2)}

    def test_suggested_hints_preserve_results(self):
        plain = compile_source(GEN_SRC).run()
        p = compile_source(GEN_SRC)
        hints = suggest_retention(p)
        pruned = p.run(ExecOptions(retention=hints))
        assert pruned.stats.rules == plain.stats.rules  # same firings
        # only the last two generations survive
        assert {t.t for t in pruned.database.store("T").scan()} == {7, 8}

    def test_deeper_lookback(self):
        src = GEN_SRC.replace("get uniq? T(x.t - 1, x.i)", "get uniq? T(x.t - 3, x.i)")
        hints = suggest_retention(compile_source(src))
        assert hints["T"].keep_last == 4

    def test_multiple_queries_take_max_lookback(self):
        src = GEN_SRC.replace(
            "val prev = get uniq? T(x.t - 1, x.i)",
            "val a = get uniq? T(x.t - 1, x.i)\n  val b = get uniq? T(x.t - 2, x.i)",
        )
        hints = suggest_retention(compile_source(src))
        assert hints["T"].keep_last == 3

    def test_unbounded_clock_disqualifies(self):
        src = GEN_SRC.replace("get uniq? T(x.t - 1, x.i)", "get uniq? T([i == 0])")
        assert suggest_retention(compile_source(src)) == {}

    def test_non_constant_offset_disqualifies(self):
        src = GEN_SRC.replace("get uniq? T(x.t - 1, x.i)", "get uniq? T(x.t - x.i, x.i)")
        assert suggest_retention(compile_source(src)) == {}

    def test_rule_without_meta_blocks_analysis(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)  # the context escapes: the helper could query anything
        def opaque(ctx, t):
            _elsewhere(ctx, t.t)

        assert suggest_retention(p) == {}

    def test_trusted_rule_without_meta_allowed(self):
        p = compile_source(GEN_SRC)
        T = p.tables["T"]

        @p.foreach(T, name="logger")
        def logger(ctx, t):  # analysis refuses it; it queries nothing; we vouch for it
            _elsewhere(ctx, t.t)

        assert suggest_retention(p) == {}
        hints = suggest_retention(p, trusted_no_query_rules={"logger"})
        assert hints["T"].keep_last == 2

    def test_unclocked_queried_table_gets_no_hint(self):
        src = """
        table Config(int key -> int value) orderby (Conf)
        table T(int t) orderby (Int, seq t)
        order Conf < Int
        put new Config(0, 5)  put new T(0)
        foreach (T x) {
          val c = get uniq? Config(0)
          if (x.t < 3) { put new T(x.t + 1) }
        }
        """
        hints = suggest_retention(compile_source(src))
        assert "Config" not in hints  # queried forever: must be retained
        assert "T" not in hints       # never queried: analysis has no lookback

    def test_pvwatts_style_aggregate_not_pruned(self):
        """PvWatts queries bind year/month, not the table's clock —
        no (unsound) hint may be suggested."""
        from repro.apps.pvwatts import build_pvwatts_program

        handles = build_pvwatts_program({"f.csv": b""}, "f.csv")
        hints = suggest_retention(
            handles.program,
            trusted_no_query_rules={"split_input", "read_loop"},
        )
        assert "PvWatts" not in hints
