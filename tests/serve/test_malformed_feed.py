"""A malformed feed event is refused at decode and leaves its tenant live.

Every feed event becomes a tuple through its table's checked
constructor, after an arity check, before anything is admitted.  A row
with too few values, a string in an int field and a string key used to
be acknowledged (or to fail inside ``feed``) and then break the next
settle with a bare builtin error that closed the tenant.  Now each is a
``protocol`` error that names the event and the field, the feed admits
nothing, and the tenant goes on — equal to its own restore from disk.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ProtocolError
from repro.serve import ServiceCallError, ServiceClient, TenantSession
from repro.serve.protocol import error_code
from tests.serve._progs import make_registry, running_service

#: case -> (bad event, what the error must name)
BAD_EVENTS = {
    "short-row": (["+", "Reading", [1, 2]], "Reading('tick', 'sensor', 'value')"),
    "str-value": (["+", "Reading", [2, 2, "hot"]], "Reading.value"),
    "str-key": (["+", "Reading", ["1", 2, 950]], "Reading.tick"),
}

GOOD = ["+", "Reading", [2, 1, 960]]


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
def test_a_malformed_event_admits_nothing_and_the_tenant_equals_its_restore(case, tmp_path):
    bad, field = BAD_EVENTS[case]
    entry = make_registry().get("telemetry")
    tenant = TenantSession.create("acme", entry, None, tmp_path)
    tenant.feed([["+", "Reading", [1, 1, 950]]], 1)
    tenant.settle()
    sizes = tenant.session.database.table_sizes()
    with pytest.raises(ProtocolError) as err:
        tenant.feed([GOOD, bad], 2)
    assert error_code(err.value) == ("protocol", False)
    assert "event #1" in str(err.value) and field in str(err.value)
    # nothing admitted: not the good event before it either
    assert (tenant.last_seq, tenant.fed_tuples) == (1, 1)
    assert tenant.session.settle().output == []
    assert tenant.session.database.table_sizes() == sizes
    # the tenant is live: the same seq, well formed, goes in
    tenant.feed([GOOD], 2)
    tenant.settle()
    tenant.checkpoint()
    restored = TenantSession.restore_from_disk("acme", entry, tmp_path)
    live, back = tenant.session, restored.session
    assert live.output == back.output == [
        "tick 1: sensor 1 hot at 950",
        "tick 2: sensor 1 hot at 960",
    ]
    assert live.database.table_sizes() == back.database.table_sizes()
    tenant.close()
    restored.close()


def test_the_wire_names_the_refusal_and_keeps_the_tenant_open(tmp_path):
    async def go():
        async with running_service(data_dir=tmp_path) as svc:
            c = await ServiceClient.connect("127.0.0.1", svc.port)
            async with c:
                await c.open("acme", "telemetry")
                for bad, field in BAD_EVENTS.values():
                    with pytest.raises(ServiceCallError) as err:
                        await c.feed("acme", [GOOD, bad], 1)
                    assert err.value.code == "protocol" and not err.value.retryable
                    assert field in err.value.message
                stats = await c.stats("acme")
                assert (stats["last_seq"], stats["fed_tuples"]) == (0, 0)
                assert (await c.feed("acme", [GOOD], 1))["admitted"] == 1
                assert (await c.settle("acme"))["output"] == ["tick 2: sensor 1 hot at 960"]

    asyncio.run(go())
