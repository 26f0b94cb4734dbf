"""EngineSession lifecycle: open/feed/settle/close, admission modes,
knob-override notes, and guaranteed strategy release."""

from __future__ import annotations

import warnings

import pytest

from repro.core import (
    AdmissionWarning,
    CausalityError,
    EngineError,
    EngineSession,
    EngineWarning,
    ExecOptions,
    Program,
    UnknownTableError,
    causal_chunks,
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

    return p, T, Log


def stream_program():
    """A single-stratum stream: the high-water mark stays in the Int
    ordering, so later ticks remain admissible after a settle."""
    p = Program("stream")
    T = p.table("T", "int t, int v", orderby=("Int", "seq t"))

    @p.foreach(T)
    def log(ctx, t):
        ctx.println(f"t={t.t} v={t.v}")

    return p, T


class TestLifecycle:
    def test_feed_settle_close_matches_run(self):
        p1, T1, _ = counter_program()
        p1.put(T1.new(0, 1))
        ref = p1.run()

        p2, T2, _ = counter_program()
        with p2.session() as s:
            s.feed([T2.new(0, 1)])
            inc = s.settle()
        assert inc.steps == ref.steps
        assert s.result.output_text() == ref.output_text()
        assert s.result.table_sizes == ref.table_sizes

    def test_incremental_results_are_deltas(self):
        p, T, _ = counter_program(limit=2)
        s = p.session().open()
        s.feed([T.new(0, 1)])
        r1 = s.settle()
        assert r1.steps > 0 and r1.output
        r2 = s.settle()  # nothing pending: an empty increment
        assert r2.steps == 0 and r2.output == []
        total = s.close()
        assert total.steps == r1.steps
        assert total.output[: len(r1.output)] == r1.output

    def test_feed_before_open_rejected(self):
        p, T, _ = counter_program()
        s = p.session()
        with pytest.raises(EngineError, match="open"):
            s.feed([T.new(0, 1)])

    def test_closed_session_rejects_everything(self):
        p, T, _ = counter_program()
        s = p.session().open()
        s.close()
        with pytest.raises(EngineError, match="closed"):
            s.feed([T.new(0, 1)])
        with pytest.raises(EngineError, match="closed"):
            s.settle()
        with pytest.raises(EngineError, match="closed"):
            s.open()

    def test_close_is_idempotent(self):
        p, T, _ = counter_program()
        s = p.session().open()
        s.feed([T.new(0, 1)])
        r1 = s.close()
        assert s.close() is r1

    def test_close_settles_pending_work(self):
        p, T, _ = counter_program()
        s = p.session().open()
        s.feed([T.new(0, 1)])
        r = s.close()  # no explicit settle
        assert r.steps == 12 and len(r.output) == 6

    def test_result_before_close_rejected(self):
        p, T, _ = counter_program()
        s = p.session().open()
        with pytest.raises(EngineError, match="close"):
            s.result

    def test_per_settle_stats_recorded(self):
        p, T, _ = counter_program(limit=2)
        with p.session() as s:
            s.feed([T.new(0, 1)])
            s.settle()
            s.settle()
        settles = s.result.stats.settles
        assert [rec["settle"] for rec in settles] == [1, 2]
        assert settles[0]["fed"] == 1 and settles[0]["steps"] > 0
        assert settles[1]["fed"] == 0 and settles[1]["steps"] == 0

    def test_settle_table_in_run_report(self):
        from repro.stats import run_report

        p, T, _ = counter_program(limit=2)
        with p.session() as s:
            s.feed([T.new(0, 1)])
            s.settle()
            s.settle()
        text = run_report(s.result)
        assert "settle" in text and "fed" in text

    def test_program_session_kwargs(self):
        p, T, _ = counter_program()
        s = p.session(strategy="forkjoin", threads=2)
        assert s.options.strategy == "forkjoin" and s.options.threads == 2
        s.open()
        s.close()


class TestAdmission:
    def test_high_water_advances(self):
        p, T, _ = counter_program()
        s = p.session().open()
        assert s.high_water is None
        s.feed([T.new(0, 1)])
        s.settle()
        assert s.high_water is not None
        s.close()

    def test_strict_rejects_below_mark_and_session_survives(self):
        p, T, _ = counter_program()
        s = p.session().open()
        s.feed([T.new(0, 1)])
        s.settle()
        with pytest.raises(CausalityError, match="high-water"):
            s.feed([T.new(2, 99)])
        # the rejection left no partial state: the session still settles
        r = s.close()
        assert not s.quarantined
        assert all("99" not in line for line in r.output)

    def test_strict_rejection_is_all_or_nothing(self):
        """A batch with one late tuple admits none of the batch."""
        p, T, _ = counter_program()
        s = p.session().open()
        s.feed([T.new(0, 1)])
        s.settle()
        before = len(s.output)
        with pytest.raises(CausalityError):
            s.feed([T.new(6, 64), T.new(2, 99)])
        s.settle()
        assert len(s.output) == before
        s.close()

    def test_warn_quarantines_below_mark(self):
        p, T = stream_program()
        s = p.session(admission="warn").open()
        s.feed([T.new(3, 1)])
        s.settle()
        with pytest.warns(AdmissionWarning, match="quarantined"):
            rep = s.feed([T.new(2, 99), T.new(6, 64)])
        assert rep.admitted == 1
        assert [t.values for t in rep.quarantined] == [(2, 99)]
        r = s.close()
        assert [t.values for t in s.quarantined] == [(2, 99)]
        assert any("t=6" in line for line in r.output)
        assert all("99" not in line for line in r.output)

    def test_at_mark_is_admissible(self):
        """Equality with the high-water mark is sound (>= rule)."""
        p, T = stream_program()
        s = p.session().open()
        s.feed([T.new(3, 1)])
        s.settle()
        rep = s.feed([T.new(3, 2)])  # same equivalence class as the mark
        assert rep.admitted == 1
        s.close()

    def test_unknown_table_rejected(self):
        p, T, _ = counter_program()
        q = Program("other")
        X = q.table("X", "int a", orderby=("Int", "seq a"))
        s = p.session().open()
        with pytest.raises(UnknownTableError):
            s.feed([X.new(1)])
        s.close()

    def test_bad_admission_mode_rejected(self):
        with pytest.raises(EngineError, match="admission"):
            ExecOptions(admission="loose")


class TestKnobOverrideNotes:
    """Satellite: silent knob overrides become visible."""

    def test_metering_forced_on_is_noted(self):
        p, T, _ = counter_program()
        p.put(T.new(0, 1))
        r = p.run(ExecOptions(strategy="forkjoin", metering="off"))
        assert [n.code for n in r.stats.note_records] == ["metering.forced-on"]

    def test_metering_note_warns_under_strict(self):
        p, T, _ = counter_program()
        p.put(T.new(0, 1))
        with pytest.warns(EngineWarning, match="metering"):
            p.run(
                ExecOptions(
                    strategy="forkjoin", metering="off", causality_check="strict"
                )
            )

    def test_metering_off_honoured_without_note(self):
        p, T, _ = counter_program()
        p.put(T.new(0, 1))
        r = p.run(ExecOptions(strategy="threads", threads=2, metering="off"))
        assert r.stats.note_records == []

    def test_notes_shown_in_run_report(self):
        from repro.stats import run_report

        p, T, _ = counter_program()
        p.put(T.new(0, 1))
        r = p.run(ExecOptions(strategy="forkjoin", metering="off"))
        assert "notes:" in run_report(r)


class TestStrategyRelease:
    """strategy.close() runs even when a step raises."""

    def test_pool_released_when_rule_raises(self):
        p = Program("boom")
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def explode(ctx, t):
            raise RuntimeError("kaboom")

        p.put(T.new(0))
        s = p.session(ExecOptions(strategy="threads", threads=2))
        with pytest.raises(Exception, match="kaboom"):
            s.run()
        assert s.strategy._pool is None  # ThreadPoolExecutor released

    def test_pool_released_on_max_steps(self):
        p = Program("forever")
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def diverge(ctx, t):
            ctx.put(T.new(t.t + 1))

        p.put(T.new(0))
        s = p.session(ExecOptions(strategy="threads", threads=2, max_steps=5))
        with pytest.raises(EngineError, match="max_steps"):
            s.run()
        assert s.strategy._pool is None

    def test_session_context_manager_releases_on_error(self):
        p = Program("boom")
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def explode(ctx, t):
            raise RuntimeError("kaboom")

        with pytest.raises(Exception, match="kaboom"):
            with p.session(strategy="threads", threads=2) as s:
                s.feed([T.new(0)])
                s.settle()
        assert s.closed
        assert s.strategy._pool is None
        with pytest.raises(EngineError, match="error"):
            s.close()

    def test_strategy_close_idempotent_after_clean_close(self):
        p, T, _ = counter_program()
        with p.session(strategy="threads", threads=2) as s:
            s.feed([T.new(0, 1)])
        assert s.strategy._pool is None
        s.strategy.close()  # second close is a no-op


class TestChunkHelpers:
    def test_causal_chunks_align_to_classes(self):
        p = Program("ticks")
        T = p.table("T", "int t, int i", orderby=("Int", "seq t", "par i"))

        @p.foreach(T)
        def noop(ctx, t):
            pass

        s = p.session().open()
        tuples = [T.new(t, i) for t in (2, 0, 1, 0, 2) for i in range(2)]
        chunks = causal_chunks(s.database, tuples, 2)
        assert sum(len(c) for c in chunks) == len(tuples)
        # no equivalence class straddles a chunk boundary
        seen_t = [sorted({x.t for x in c}) for c in chunks]
        assert seen_t == [[0, 1], [2]]
        # chunked feeding is admissible end to end under strict mode
        for c in chunks:
            s.feed(c)
            s.settle()
        s.close()

    def test_causal_chunks_empty(self):
        p, _, _ = counter_program()
        s = p.session().open()
        assert causal_chunks(s.database, [], 3) == []
        s.close()
