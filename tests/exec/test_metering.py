"""Tests for the cost meter."""

from __future__ import annotations

import pytest

from repro.core.schema import TableSchema
from repro.exec.metering import DEFAULT_WEIGHTS, CostMeter
from repro.gamma import ConcurrentSkipListStore, TreeSetStore


class TestCharging:
    def test_default_weights(self):
        m = CostMeter()
        m.charge("delta_insert")
        assert m.total_cost == DEFAULT_WEIGHTS["delta_insert"]
        assert m.count("delta_insert") == 1

    def test_explicit_cost(self):
        m = CostMeter()
        m.charge("user_work", n=1, cost=42.0)
        assert m.total_cost == 42.0

    def test_n_multiplies(self):
        m = CostMeter()
        m.charge("reduce_op", n=10)
        assert m.total_cost == pytest.approx(10 * DEFAULT_WEIGHTS["reduce_op"])
        assert m.count("reduce_op") == 10

    def test_unknown_counter_weight_one(self):
        m = CostMeter()
        m.charge("bespoke", n=3)
        assert m.total_cost == 3.0

    def test_shared_resource(self):
        m = CostMeter()
        m.charge_shared("delta", 5.0)
        m.charge_shared("delta", 2.0)
        m.charge_shared("membw", 1.0)
        assert m.shared == {"delta": 7.0, "membw": 1.0}

    def test_zero_shared_dropped(self):
        m = CostMeter()
        m.charge_shared("delta", 0.0)
        assert m.shared == {}

    def test_store_op_routed_to_resource(self):
        schema = TableSchema("T", "int x")
        m = CostMeter()
        conc = ConcurrentSkipListStore(schema)
        m.charge_store_op("insert", conc, n=4)
        assert m.count("gamma_insert:T") == 4
        assert m.shared["gamma:T"] == pytest.approx(
            4 * conc.cost.insert_cost * conc.cost.serial_fraction
        )

    def test_sequential_store_no_shared(self):
        schema = TableSchema("T", "int x")
        m = CostMeter()
        m.charge_store_op("insert", TreeSetStore(schema))
        assert m.shared == {}
        assert m.count("gamma_insert:T") == 1


class TestAggregation:
    def test_merge(self):
        a, b = CostMeter(), CostMeter()
        a.charge("x", cost=1.0)
        b.charge("x", cost=2.0)
        b.charge("y", cost=3.0)
        b.charge_shared("delta", 4.0)
        a.merge(b)
        assert a.costs == {"x": 3.0, "y": 3.0}
        assert a.total_cost == 6.0
        assert a.shared == {"delta": 4.0}

    def test_reset(self):
        m = CostMeter()
        m.charge("x")
        m.charge_shared("r", 1.0)
        m.reset()
        assert m.total_cost == 0 and not m.counters and not m.shared

    def test_cost_by_prefix(self):
        schema = TableSchema("T", "int x")
        m = CostMeter()
        m.charge_store_op("insert", TreeSetStore(schema), n=2)
        m.charge("delta_insert")
        assert m.cost_by_prefix("gamma_insert:") > 0
        assert m.cost_by_prefix("nothing:") == 0

    def test_repr(self):
        m = CostMeter()
        m.charge("x")
        assert "total=" in repr(m)
