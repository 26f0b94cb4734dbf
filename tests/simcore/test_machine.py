"""Tests for the contention model, GC model and the Machine facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    CLUSTER,
    NO_GC,
    CalibratedCosts,
    Machine,
    NetModel,
    SimTask,
    StepTraffic,
    step_makespan,
)


class TestStepMakespan:
    def test_empty_batch(self):
        t = step_makespan([], 4, CalibratedCosts())
        assert t.makespan == 0 and t.n_tasks == 0

    def test_one_core_is_exact_sum_no_overhead(self):
        tasks = [SimTask(3.0, {"delta": 1.0}), SimTask(2.0)]
        t = step_makespan(tasks, 1, CalibratedCosts())
        assert t.makespan == pytest.approx(5.0)
        assert t.overhead == 0 and t.contention == 0

    def test_parallel_adds_spawn_and_barrier(self):
        calib = CalibratedCosts(spawn_cost=1.0, barrier_cost=2.0)
        t = step_makespan([SimTask(10.0)] * 4, 4, calib)
        assert t.overhead == pytest.approx(1.0 * 4 / 4 + 2.0 * 2)  # log2(4)=2
        assert t.makespan == pytest.approx(10.0 + t.overhead)

    def test_serialised_resource_bounds_makespan(self):
        calib = CalibratedCosts(spawn_cost=0, barrier_cost=0)
        # 8 tasks, each 1 unit of work, all of it serialised on "delta"
        tasks = [SimTask(1.0, {"delta": 1.0}) for _ in range(8)]
        t = step_makespan(tasks, 8, calib)
        growth = calib.growth("delta")
        expected = 8 * (1 + growth * 7)
        assert t.makespan == pytest.approx(expected)
        assert t.contention > 0

    def test_uncontended_batch_scales(self):
        calib = CalibratedCosts(spawn_cost=0, barrier_cost=0)
        tasks = [SimTask(1.0) for _ in range(64)]
        t8 = step_makespan(tasks, 8, calib)
        assert t8.makespan == pytest.approx(8.0)
        # StepTiming.efficiency is busy/makespan = achieved parallelism
        assert t8.efficiency == pytest.approx(8.0)

    def test_unknown_resource_uses_default_growth(self):
        calib = CalibratedCosts()
        assert calib.growth("weird-lock") == calib.default_growth
        assert calib.growth("delta") == calib.resource_growth["delta"]


class TestGcModel:
    def test_zero_allocations_no_tax(self):
        assert CalibratedCosts().gc_tax(0, 1e9) == 0.0

    def test_tax_grows_with_retained(self):
        gc = CalibratedCosts()
        small = gc.gc_tax(1000, 0)
        big = gc.gc_tax(1000, 10_000_000)
        assert big > small

    def test_tax_linear_in_allocations(self):
        gc = CalibratedCosts()
        assert gc.gc_tax(2000, 5000) == pytest.approx(2 * gc.gc_tax(1000, 5000))

    def test_no_gc_model(self):
        assert NO_GC.gc_tax(1e6, 1e9) == 0.0


class TestMachine:
    def test_requires_cores(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_accumulates_report(self):
        m = Machine(4)
        m.run_step([SimTask(4.0)] * 8, allocations=10, retained=100)
        m.run_step([SimTask(2.0)] * 4)
        m.run_serial(5.0)
        r = m.report
        assert r.steps == 2 and r.tasks == 12 and r.max_batch == 8
        assert r.elapsed > 0 and r.busy == pytest.approx(45.0)
        assert m.now == r.elapsed

    def test_gc_tax_counted(self):
        m = Machine(2, CalibratedCosts(gc_alloc_cost=1.0, gc_amplify=0.0, gc_serial_share=1.0))
        m.run_step([SimTask(1.0)], allocations=100, retained=0)
        assert m.report.gc_time == pytest.approx(100.0)

    def test_utilisation_bounds(self):
        m = Machine(4)
        m.run_step([SimTask(10.0)] * 4)
        assert 0 < m.report.utilisation <= 1.0

    def test_as_dict_keys(self):
        m = Machine(2)
        d = m.report.as_dict()
        assert {"n_cores", "elapsed", "busy", "gc_time", "utilisation"} <= set(d)


# -- the headline property: results never depend on the machine -----------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.1, 50.0), min_size=1, max_size=30),
    st.integers(1, 32),
    st.integers(1, 32),
)
def test_speedup_bounded_by_cores(costs, n1, n2):
    calib = CalibratedCosts(spawn_cost=0, barrier_cost=0)
    tasks = [SimTask(c) for c in costs]
    t1 = step_makespan(tasks, n1, calib).makespan
    t2 = step_makespan(tasks, n2, calib).makespan
    if n1 <= n2:
        assert t2 <= t1 + 1e-9  # more cores never slower (no overheads)
        assert t1 / t2 <= n2 / min(n1, 1) + 1e-6


class TestSuperstep:
    """The sharded cost model's shape on the same machine: pinned
    tasks, an exchange, a coordination barrier."""

    def test_pinned_tasks_price_their_lanes(self):
        m = Machine(2, CLUSTER)
        traffic = StepTraffic(NetModel(latency=10, per_tuple=2))
        traffic.send(0, 1, 1)
        tasks = [SimTask(3.0, lane=0), SimTask(1.0, lane=1), SimTask(2.0, lane=1)]
        m.run_step(tasks, traffic=traffic)
        r = m.report
        assert r.compute == 3.0 and r.comm == 12.0 and r.overhead == 6.0
        assert r.elapsed == 21.0 and r.lanes == [3.0, 3.0]
        assert r.messages == 1 and r.tuples_moved == 1 and r.busy == 6.0

    def test_superstep_pays_its_barrier_on_one_node(self):
        m = Machine(1, CLUSTER)
        m.run_step([], traffic=StepTraffic(NetModel()))
        assert m.report.elapsed == m.report.overhead == 6.0

    def test_account_round_trips(self):
        m = Machine(2, CLUSTER)
        m.run_step([SimTask(5.0, lane=1)], traffic=StepTraffic(NetModel()))
        restored = Machine(2, CLUSTER)
        restored.load_state(m.state_dict())
        assert vars(restored.report) == vars(m.report)
