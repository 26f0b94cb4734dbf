"""A retraction feed is checked whole before any of its events applies.

``feed`` under ``ExecOptions(retraction=True)`` takes ``Insert`` and
``Delete`` events in order.  A ``Delete`` of no base fact
(:class:`RetractionError`) or a tuple of no table of the program
(:class:`UnknownTableError`) must leave the engine as it was — Delta,
base facts, Gamma and output — exactly like an insert-only feed that
fails admission.  The service depends on it: a tenant logs only feeds
that returned, so an applied prefix of a failed feed would be live
state that no restore can rebuild.
"""

from __future__ import annotations

import pytest

from repro.core import Delete, EngineSession, ExecOptions, Program
from repro.core.errors import RetractionError, UnknownTableError
from repro.serve import TenantSession
from tests.serve._progs import make_registry

OPTS = ExecOptions(strategy="sequential", retraction=True)


def _program():
    p = Program("checked-feed")
    A = p.table("A", "int n", orderby=("Int", "seq n", "A"))
    B = p.table("B", "int n", orderby=("Int", "seq n", "B"))
    p.order("A", "B")

    @p.foreach(A)
    def derive(ctx, a):
        ctx.put(B.new(a.n))

    @p.foreach(B, unsafe=True)
    def show(ctx, b):
        ctx.println(f"B {b.n}")

    return p, A, B


def _state(session) -> tuple:
    k = session.kernel
    sup = k._support
    return (
        k.delta.dump(),
        sorted(sup.base, key=repr),
        sorted(sup.retracted_base, key=repr),
        k.db.dump_tables(),
        list(k.output),
        len(sup),
    )


def _settled(session) -> tuple:
    result = session.close()
    return result.output_text(), result.table_sizes


BAD_EVENTS = {
    "never-inserted": (lambda A, B, foreign: Delete(A.new(99)), RetractionError),
    "derived": (lambda A, B, foreign: Delete(B.new(1)), RetractionError),
    "unknown-table": (lambda A, B, foreign: foreign.new(4), UnknownTableError),
}


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
def test_a_feed_that_fails_partway_applies_none_of_its_events(case):
    bad, error = BAD_EVENTS[case]
    p, A, B = _program()
    _other, foreign, _ = _program()  # a same-named table of another program
    s = EngineSession(p, OPTS).open()
    s.feed([A.new(1), A.new(3)])
    s.settle()
    s.feed([A.new(5)])  # still pending in Delta
    before = _state(s)
    with pytest.raises(error):
        # an insert, a delete of a settled fact and of a pending one,
        # then the event that cannot apply
        s.feed([A.new(2), Delete(A.new(3)), Delete(A.new(5)), bad(A, B, foreign)])
    assert _state(s) == before
    s.settle()

    ref = EngineSession(p, OPTS).open()
    ref.feed([A.new(1), A.new(3)])
    ref.settle()
    ref.feed([A.new(5)])
    ref.settle()
    assert _settled(s) == _settled(ref)


def test_the_check_sees_the_feeds_own_earlier_events():
    """A delete of a fact an earlier event of the same feed inserted is
    valid, a repeated delete is a no-op, and a later insert re-asserts."""
    p, A, B = _program()
    s = EngineSession(p, OPTS).open()
    s.feed([A.new(7), Delete(A.new(7)), Delete(A.new(7))])
    s.settle()
    assert s.database.table_sizes() == {"A": 0, "B": 0}
    s.feed([Delete(A.new(7)), A.new(7)])
    s.settle()
    assert s.output == ["B 7"]
    s.close()


def test_a_failed_tenant_feed_leaves_the_live_tenant_equal_to_its_restore(tmp_path):
    entry = make_registry().get("telemetry")
    tenant = TenantSession.create("acme", entry, {"retraction": True}, tmp_path)
    tenant.feed([["+", "Reading", [1, 1, 950]]], 1)
    tenant.settle()
    with pytest.raises(RetractionError):
        tenant.feed([["+", "Reading", [2, 1, 960]], ["-", "Reading", [9, 9, 9]]], 2)
    assert tenant.last_seq == 1
    tenant.settle()
    tenant.checkpoint()
    restored = TenantSession.restore_from_disk("acme", entry, tmp_path)
    live, back = tenant.session, restored.session
    assert live.output == back.output
    assert live.database.table_sizes() == back.database.table_sizes()
    assert live.database.table_sizes() == {"Reading": 1, "Alert": 1, "Println": 1}
    tenant.close()
    restored.close()
