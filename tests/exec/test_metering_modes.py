"""``metering="off"`` semantics: the no-op meter, the strategies that
force metering back on, and the engine's strategy-name validation."""

from __future__ import annotations

import pytest

from repro.core import EngineError, ExecOptions, Program
from repro.exec.metering import NULL_METER, CostMeter, NullMeter


def tiny_program():
    p = Program("tiny")
    T = p.table("T", "int t", orderby=("T", "seq t"))
    Out = p.table("Out", "int t", orderby=("Z", "seq t"))
    p.order("T", "Z")

    @p.foreach(T)
    def step(ctx, t):
        ctx.println(f"t={t.t}")
        ctx.put(Out.new(t.t))
        if t.t < 4:
            ctx.put(T.new(t.t + 1))

    p.put(T.new(0))
    return p


class TestNullMeter:
    def test_all_charges_are_noops(self):
        m = NullMeter()
        m.charge("x")
        m.charge_shared("delta", 3.0)
        m.charge_parallel(8.0, 4)
        m.charge("user_work", n=7, cost=2.5)
        other = CostMeter()
        other.charge("y", cost=9.0)
        m.merge(other)
        assert m.counters == {}
        assert m.costs == {}
        assert m.shared == {}
        assert m.splittable == []
        assert m.total_cost == 0.0
        assert m.count("x") == 0

    def test_shared_singleton_is_a_nullmeter(self):
        assert isinstance(NULL_METER, NullMeter)
        assert isinstance(NULL_METER, CostMeter)  # drop-in for TaskResult


class TestMeteringModes:
    def test_bad_mode_rejected(self):
        with pytest.raises(EngineError, match="metering"):
            ExecOptions(metering="sometimes")

    def test_off_zeroes_cost_bookkeeping(self):
        r = tiny_program().run(ExecOptions(metering="off"))
        assert r.meter.total_cost == 0.0
        assert r.meter.counters == {}
        assert r.virtual_time == 0.0  # sequential machine never advanced

    def test_off_identical_output(self):
        ref = tiny_program().run(ExecOptions())
        fast = tiny_program().run(ExecOptions(metering="off"))
        assert fast.output_text() == ref.output_text()
        assert fast.table_sizes == ref.table_sizes
        assert fast.steps == ref.steps

    def test_forkjoin_forces_metering_on(self):
        """The virtual-time machine consumes per-task meters, so the
        fork/join strategy overrides ``metering="off"`` — virtual time
        must match the metered run exactly."""
        ref = tiny_program().run(ExecOptions(strategy="forkjoin", threads=2))
        fast = tiny_program().run(
            ExecOptions(strategy="forkjoin", threads=2, metering="off")
        )
        assert fast.virtual_time > 0.0
        assert fast.virtual_time == pytest.approx(ref.virtual_time)
        assert fast.meter.counters == ref.meter.counters


class TestStrategyValidation:
    def test_options_reject_unknown_strategy(self):
        with pytest.raises(EngineError, match="unknown strategy"):
            ExecOptions(strategy="warp")

    def test_engine_rejects_unknown_strategy_naming_the_valid_ones(self):
        """Defence in depth: even an options object that dodged
        ``__post_init__`` (e.g. mutated after construction) must not
        silently fall through to the threads strategy."""
        from repro.core.engine import Engine

        opts = ExecOptions()
        object.__setattr__(opts, "strategy", "warp")
        with pytest.raises(EngineError, match="sequential, forkjoin, threads, chaos"):
            Engine(tiny_program(), opts)
