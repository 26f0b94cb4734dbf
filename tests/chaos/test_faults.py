"""Fault injection unit tests: each fault kind alone, knob validation,
and the scheduling modes."""

from __future__ import annotations

import pytest

from repro.apps.sensors import build_sensor_program
from repro.apps.ship import run_ship
from repro.core import ExecOptions
from repro.core.session import EngineSession
from repro.core.errors import EngineError
from repro.exec.chaos import DEFAULT_INTERLEAVE_CAP, ChaosStrategy, FaultPlan


@pytest.fixture(scope="module")
def ship_base():
    return run_ship(ExecOptions())


def _chaos(seed=0, **fault_kw):
    plan = FaultPlan(**fault_kw) if fault_kw else None
    return ExecOptions(strategy="chaos", chaos_seed=seed, fault_plan=plan)


class TestFaultKinds:
    def test_raise_faults_are_redelivered(self, ship_base):
        r = run_ship(_chaos(seed=2, raise_prob=1.0))
        assert r.output_text() == ship_base.output_text()
        assert r.table_sizes == ship_base.table_sizes
        assert r.stats.faults.get("raise", 0) > 0

    def test_duplicate_deliveries_are_absorbed(self, ship_base):
        r = run_ship(_chaos(seed=2, duplicate_prob=1.0))
        assert r.output_text() == ship_base.output_text()
        assert r.table_sizes == ship_base.table_sizes
        # every non-empty batch duplicates every task
        assert r.stats.faults["duplicate"] >= r.steps

    def test_delays_carry_no_meaning(self, ship_base):
        r = run_ship(_chaos(seed=2, delay_prob=1.0))
        assert r.output_text() == ship_base.output_text()
        assert r.table_sizes == ship_base.table_sizes
        assert r.stats.faults["delay"] >= r.steps

    def test_fault_counters_reach_trace_and_stats(self):
        opts = _chaos(seed=4, duplicate_prob=1.0).with_(trace=True)
        r = run_ship(opts)
        traced = [e for e in r.trace.events if e.kind == "fault"]
        assert all(e.meta for e in traced)
        assert len(traced) == sum(r.stats.faults.values()) > 0

    def test_same_seed_same_fault_schedule(self):
        a = run_ship(_chaos(seed=9, raise_prob=0.5, delay_prob=0.3))
        b = run_ship(_chaos(seed=9, raise_prob=0.5, delay_prob=0.3))
        assert a.stats.faults == b.stats.faults
        assert a.output_text() == b.output_text()


class TestKnobValidation:
    def test_probabilities_must_be_unit_interval(self):
        with pytest.raises(EngineError, match="must be in"):
            FaultPlan(raise_prob=-0.1)
        with pytest.raises(EngineError, match="must be in"):
            FaultPlan(delay_prob=1.5)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(EngineError, match="sum"):
            FaultPlan(raise_prob=0.5, duplicate_prob=0.4, delay_prob=0.2)

    def test_chaos_knobs_require_chaos_strategy(self):
        with pytest.raises(EngineError, match="chaos"):
            ExecOptions(strategy="sequential", chaos_seed=1)
        with pytest.raises(EngineError, match="chaos"):
            ExecOptions(strategy="forkjoin", fault_plan=FaultPlan(delay_prob=0.1))

    def test_fault_plan_must_be_a_fault_plan(self):
        with pytest.raises(EngineError, match="FaultPlan"):
            ExecOptions(strategy="chaos", fault_plan={"raise_prob": 0.5})

    def test_raise_faults_incompatible_with_no_delta(self):
        with pytest.raises(EngineError, match="noDelta"):
            ExecOptions(
                strategy="chaos",
                fault_plan=FaultPlan(raise_prob=0.1),
                no_delta=frozenset({"Edge"}),
            )
        # the other fault kinds stay legal with -noDelta
        ExecOptions(
            strategy="chaos",
            fault_plan=FaultPlan(duplicate_prob=0.1, delay_prob=0.1),
            no_delta=frozenset({"Edge"}),
        )

    def test_round_trip(self):
        plan = FaultPlan(raise_prob=0.2, duplicate_prob=0.1, delay_prob=0.3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert not FaultPlan().enabled
        assert plan.enabled


class TestSchedulingModes:
    def _modes(self, interleave_cap: int) -> set[str]:
        strategy = ChaosStrategy(seed=3, interleave_cap=interleave_cap)
        r = EngineSession(
            build_sensor_program(8, 4).program,
            ExecOptions(strategy="chaos", chaos_seed=3, trace=True),
            strategy,
        ).run()
        return {e.data["mode"] for e in r.trace.events if e.kind == "sched"}

    def test_wide_batches_interleave_below_cap(self):
        assert "interleave" in self._modes(DEFAULT_INTERLEAVE_CAP)

    def test_cap_one_forces_permuted_sequential(self):
        assert self._modes(1) == {"seq"}
