"""Phase A under retraction hands phase B finished flags.

``SupportIndex.prepare`` inserts a popped class with its repair
interleaved, so a later tuple of the class can kill an earlier one: a
grown-result invalidation dooms a firing that wrote a native table, the
native taint kills every firing that read that table, and one of those
was the only support of a tuple already prepared in this class.  That
tuple must reach phase B flagged dead — phase B no longer looks at the
repair state, so a flag computed too early would fire a dead trigger.
"""

from __future__ import annotations

import pytest

from repro.core import EngineSession, ExecOptions, Program
from repro.core.database import InsertOutcome
from repro.core.query import Query, QueryKind
from repro.core.support import FiringRecord


def _program():
    p = Program("prepare-flags")
    T, U, N = (p.table(name, "int id, int t", orderby=("seq t",)) for name in "TUN")
    Trig = p.table("Trig", "int id, int t", orderby=("seq t",))
    return p, T, U, N, Trig


def test_a_trigger_killed_later_in_its_own_class_is_flagged_dead():
    p, T, U, N, Trig = _program()
    session = EngineSession(p, ExecOptions(strategy="sequential", retraction=True)).open()
    k = session.kernel
    sup, db = k._support, k.db

    def firing(trigger, queried, **fields):
        rec = FiringRecord("rule", 0, trigger, db.timestamp(trigger))
        rec.note_query(Query(queried.schema, {}, {}, None, QueryKind.NEGATIVE), [])
        for name, value in fields.items():
            setattr(rec, name, value)
        sup.register(rec)

    x, y = U.new(0, 1), T.new(0, 1)  # one class: both at t=1
    # fired at t=0: read the native table N and derived x, still pending
    firing(Trig.new(0, 0), N, puts=(x,))
    # fired at t=2: found no T tuple, wrote N in bulk
    firing(Trig.new(1, 2), T, native={"N"})

    prepared = sup.prepare([x, y])
    # y's arrival invalidates the t=2 firing; its native taint kills the
    # t=0 firing, and with it x, which this class had already inserted
    assert prepared == [
        (x, InsertOutcome.NEW, False, True),
        (y, InsertOutcome.NEW, False, False),
    ]
    assert x not in db and y in db
    assert len(sup) == 0 and k.stats.retractions == 1
    results = k.executor.fire_class(prepared)
    assert [r.duplicate for r in results] == [True, False]
    session.close()


@pytest.mark.parametrize("execution", ["scalar", "codegen"])
def test_a_trigger_flagged_dead_fires_no_rule_on_either_tier(execution):
    """The same class, with a printing rule on each table: phase B fires
    only the live trigger, whichever tier fires it."""
    p, T, U, N, Trig = _program()
    for table in (T, U):

        @p.foreach(table)
        def seen(ctx, row):
            ctx.println(row.id)

    opts = ExecOptions(strategy="sequential", retraction=True, execution=execution)
    session = EngineSession(p, opts).open()
    k = session.kernel
    sup, db = k._support, k.db
    assert k.executor.name == execution

    def firing(trigger, queried, **fields):
        rec = FiringRecord("rule", 0, trigger, db.timestamp(trigger))
        rec.note_query(Query(queried.schema, {}, {}, None, QueryKind.NEGATIVE), [])
        for name, value in fields.items():
            setattr(rec, name, value)
        sup.register(rec)

    x, y = U.new(0, 1), T.new(0, 1)
    firing(Trig.new(0, 0), N, puts=(x,))
    firing(Trig.new(1, 2), T, native={"N"})
    prepared = sup.prepare([x, y])
    assert [entry[3] for entry in prepared] == [True, False]
    results = k.executor.fire_class(prepared)
    assert [rec.trigger for r in results for rec in r.firings] == [y]
    assert [line for r in results for line in r.output] == ["0"]
    session.close()
