"""Tests for the execution strategies in isolation."""

from __future__ import annotations

import threading

import pytest

from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.exec.base import EngineTask, MachineStrategy, TaskResult
from repro.exec.threads import ThreadStrategy

T = TableHandle(TableSchema("T", "int x"))


def make_tasks(n, record=None):
    tasks = []
    for i in range(n):
        def run(i=i):
            if record is not None:
                record.append((i, threading.current_thread().name))
            r = TaskResult(trigger=T.new(i))
            r.meter.charge("user_work", cost=float(i + 1))
            return r
        tasks.append(EngineTask(trigger=T.new(i), run=run))
    return tasks


class TestSequential:
    def test_runs_in_order(self):
        order = []
        s = MachineStrategy()
        results = s.run_batch(make_tasks(5, order))
        assert [i for i, _ in order] == [0, 1, 2, 3, 4]
        assert [r.trigger.x for r in results] == [0, 1, 2, 3, 4]

    def test_accounts_on_one_core(self):
        s = MachineStrategy()
        results = s.run_batch(make_tasks(3))
        s.account_step(results, allocations=0, retained=0)
        assert s.report().n_cores == 1
        assert s.report().elapsed == pytest.approx(1 + 2 + 3)

    def test_account_serial(self):
        s = MachineStrategy()
        s.account_serial(7.0)
        assert s.report().elapsed == 7.0


class TestForkJoin:
    def test_deterministic_execution_order(self):
        order = []
        s = MachineStrategy("forkjoin", 8)
        s.run_batch(make_tasks(6, order))
        assert [i for i, _ in order] == list(range(6))  # sequential replay

    def test_virtual_parallelism(self):
        s1 = MachineStrategy("forkjoin", 1)
        s4 = MachineStrategy("forkjoin", 4)
        r1 = s1.run_batch(make_tasks(16))
        r4 = s4.run_batch(make_tasks(16))
        s1.account_step(r1, 0, 0)
        s4.account_step(r4, 0, 0)
        assert s4.report().elapsed < s1.report().elapsed

    def test_pool_size_validated(self):
        with pytest.raises(ValueError):
            MachineStrategy("forkjoin", 0)

    def test_concurrent_store_flag(self):
        assert MachineStrategy("forkjoin", 2).concurrent_stores
        assert not MachineStrategy().concurrent_stores


class TestThreads:
    def test_results_in_submission_order(self):
        s = ThreadStrategy(pool_size=4)
        try:
            results = s.run_batch(make_tasks(20))
            assert [r.trigger.x for r in results] == list(range(20))
        finally:
            s.close()

    def test_actually_uses_pool_threads(self):
        order = []
        s = ThreadStrategy(pool_size=4)
        try:
            s.run_batch(make_tasks(30, order))
        finally:
            s.close()
        names = {name for _, name in order}
        assert any(n.startswith("jstar") for n in names)

    def test_single_task_runs_inline(self):
        order = []
        s = ThreadStrategy(pool_size=4)
        try:
            s.run_batch(make_tasks(1, order))
        finally:
            s.close()
        assert order[0][1] == threading.main_thread().name

    def test_closed_pool_rejects_batches(self):
        s = ThreadStrategy(pool_size=2)
        s.close()
        with pytest.raises(RuntimeError):
            s.run_batch(make_tasks(2))

    def test_close_idempotent(self):
        s = ThreadStrategy(pool_size=2)
        s.close()
        s.close()

    def test_no_machine_report(self):
        s = ThreadStrategy(pool_size=2)
        try:
            assert s.report() is None
            s.account_step([], 0, 0)  # no-op
        finally:
            s.close()

    def test_pool_size_validated(self):
        with pytest.raises(ValueError):
            ThreadStrategy(0)
