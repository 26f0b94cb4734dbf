"""A mesh run is a session: ``Program.session(strategy="processes")``
forks its workers when the session goes live, settles any number of
times on them, and reaps them when it closes — and fails cleanly: a
rule that raises on a worker, or a ``max_steps`` overrun, shuts the
session down with no worker left behind.  The backend is the
``DIST_TRANSPORT`` wire switch's, so the dist job runs this file on
both wires."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.delta import Delete
from repro.core.errors import EngineError
from repro.core.program import ExecOptions, Program
from repro.dist.procrun import ProcessShardRuntime
from tests.dist.test_procrun import counter_program


def raising_program() -> Program:
    p = Program("raises")
    T = p.table("T", "int n", orderby=("Int", "seq n"))

    @p.foreach(T)
    def step(ctx, t):
        if t.n == 3:
            raise RuntimeError("kaboom")
        ctx.put(T.new(t.n + 1))

    p.put(T.new(0))
    return p


def test_workers_live_exactly_as_long_as_the_session():
    ref = counter_program().run(ExecOptions())
    p = counter_program()
    Log = p.tables["Log"]
    session = p.session(strategy="processes", threads=2)
    assert multiprocessing.active_children() == []
    with session:
        assert len(multiprocessing.active_children()) == 2
        session.feed(p.initial_puts)
        first = session.settle()
        session.feed([Log.new(11)])  # above the high-water mark: admitted
        second = session.settle()
        assert session.settle().steps == 0  # nothing pending: no step
    assert multiprocessing.active_children() == []
    result = session.result
    assert first.output + second.output == result.output == ref.output + ["log 11"]
    assert len(result.nodes) == 2 and sum(nd["fires"] for nd in result.nodes) > 0


def test_a_rule_raising_mid_settle_names_its_worker_and_reaps_every_worker():
    p = raising_program()
    session = p.session(strategy="processes", threads=2).open()
    session.feed(p.initial_puts)
    with pytest.raises(EngineError, match=r"worker [01] failed: RuntimeError\('kaboom'\)"):
        session.settle()
    assert session.closed
    assert multiprocessing.active_children() == []
    with pytest.raises(EngineError, match="shut down by an error"):
        session.close()


def test_a_max_steps_overrun_shuts_the_session_down():
    p = counter_program(limit=50)
    session = p.session(strategy="processes", threads=2, max_steps=5).open()
    session.feed(p.initial_puts)
    with pytest.raises(EngineError, match="exceeded max_steps=5"):
        session.settle()
    assert session.closed
    assert multiprocessing.active_children() == []


def test_closing_twice_returns_the_same_result_and_forks_nothing(monkeypatch):
    forks = []
    fork = ProcessShardRuntime._fork

    def counted(self, node, incarnation):
        forks.append(node)
        return fork(self, node, incarnation)

    monkeypatch.setattr(ProcessShardRuntime, "_fork", counted)
    p = counter_program()
    session = p.session(strategy="processes", threads=2).open()
    session.feed(p.initial_puts)
    first = session.close()
    assert session.close() is first
    assert forks == [0, 1]
    assert multiprocessing.active_children() == []


def test_feeding_a_delete_refuses():
    with pytest.raises(EngineError, match="strategy='processes', retraction=True"):
        ExecOptions(strategy="processes", retraction=True)
    p = counter_program()
    with p.session(strategy="processes", threads=2) as session:
        with pytest.raises(EngineError, match="retraction is not enabled"):
            session.feed([Delete(p.initial_puts[0])])
    assert multiprocessing.active_children() == []
