"""Property-based testing of the wire path, extending the retraction
property battery (tests/session/test_retraction_props.py) through the
service: random interleavings of several tenants' insert/delete/settle
scripts, each tenant checked against a from-scratch recompute on its
surviving facts.

Scripts are valid by construction — inserts pick keys not currently
live (re-asserting a retracted key with a fresh generation value is
allowed and exercised), deletes pick live facts.  The scripts travel as
wire triples and the tenants' batches are interleaved round-robin, so
every example exercises multi-tenant dispatch, per-tenant sequencing,
and retraction repair through the socket.

Each example also draws *restarts*: the service is stopped without a
checkpoint (a crash) and a fresh one started on the same data
directory — between a tenant's feed and its settle (the fed batch was
applied but never logged, is lost, and is replayed by sequence number),
after the settle (recovery replays log lines), or after a ``snapshot``
verb that follows it (recovery starts from a compacted log).  The
oracle is unchanged."""

from __future__ import annotations

import asyncio
import contextlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecOptions
from repro.serve import ServiceClient
from tests.serve._progs import oracle_output, running_service, telemetry_factory

N_TICKS = 4
N_SENSORS = 3
ALL_KEYS = [(t, s) for t in range(N_TICKS) for s in range(N_SENSORS)]
N_TENANTS = 3


def _value(key: tuple[int, int], gen: int) -> int:
    # straddles the HOT threshold so retraction repairs real output
    return 850 + ((key[0] * 7 + key[1] * 13 + gen * 29) % 12) * 20


@st.composite
def tenant_scripts(draw):
    """One tenant's script: causally batched inserts/deletes plus the
    surviving facts for the scratch recompute."""
    n_batches = draw(st.integers(min_value=2, max_value=4))
    live: dict[tuple[int, int], int] = {}
    gen: dict[tuple[int, int], int] = {}
    batches: list[list[list]] = []
    for _ in range(n_batches):
        batch: list[list] = []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            if live and draw(st.booleans()):
                key = draw(st.sampled_from(sorted(live)))
                batch.append(["-", "Reading", [key[0], key[1], live.pop(key)]])
            else:
                free = [k for k in ALL_KEYS if k not in live]
                if not free:
                    continue
                key = draw(st.sampled_from(free))
                value = _value(key, gen.get(key, 0))
                gen[key] = gen.get(key, 0) + 1
                live[key] = value
                batch.append(["+", "Reading", [key[0], key[1], value]])
        if batch:
            batches.append(batch)
    survivors = [
        ["+", "Reading", [k[0], k[1], v]] for k, v in sorted(live.items())
    ]
    return batches, survivors


#: crash points: (round, tenant index, where in that tenant's step)
restart_points = st.sets(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, N_TENANTS - 1),
        st.sampled_from(["fed", "settled", "compacted"]),
    ),
    max_size=3,
)


async def _run_interleaved(scripts: list[tuple[list, list]], restarts: set, data_dir: str) -> None:
    tenants = [f"t{i}" for i in range(len(scripts))]
    # round-robin interleave: batch j of every tenant before batch j+1
    # of any
    ops: list[tuple[str, int, int]] = []
    for j in range(max(len(batches) for batches, _ in scripts)):
        for i, (batches, _) in enumerate(scripts):
            if j < len(batches):
                ops.append(("feed", i, j))
                if (j, i, "fed") in restarts:
                    ops.append(("restart", i, j))
                ops.append(("settle", i, j))
                if (j, i, "compacted") in restarts:
                    ops.append(("snapshot", i, j))
                if {(j, i, "settled"), (j, i, "compacted")} & restarts:
                    ops.append(("restart", i, j))
    sent = dict.fromkeys(tenants, 0)     # batches the client has fed
    durable = dict.fromkeys(tenants, 0)  # ... of which a settle made durable
    stack = contextlib.AsyncExitStack()

    async def connect() -> ServiceClient:
        """A fresh service on the data directory, every tenant
        (re)opened, and what a crash lost replayed by sequence number."""
        svc = await stack.enter_async_context(running_service(data_dir=data_dir))
        c = await stack.enter_async_context(
            await ServiceClient.connect("127.0.0.1", svc.port)
        )
        for tenant, (batches, _) in zip(tenants, scripts):
            opened = await c.open(tenant, "telemetry", options={"retraction": True})
            assert opened["last_seq"] == opened["durable_seq"] == durable[tenant]
            for seq in range(durable[tenant] + 1, sent[tenant] + 1):
                fed = await c.feed(tenant, batches[seq - 1], seq=seq)
                assert not fed["duplicate"], "an uncommitted feed survived"
        return c

    async with stack:
        c = await connect()
        for op, i, j in ops:
            tenant = tenants[i]
            if op == "feed":
                sent[tenant] += 1
                await c.feed(tenant, scripts[i][0][j], seq=sent[tenant])
            elif op == "settle":
                await c.settle(tenant)
                durable[tenant] = sent[tenant]
            elif op == "snapshot":
                await c.snapshot(tenant)
            else:
                await stack.aclose()  # stop(checkpoint=False): the crash
                c = await connect()
        for tenant, (_, survivors) in zip(tenants, scripts):
            closed = await c.close(tenant)
            scratch = oracle_output(
                telemetry_factory,
                [survivors] if survivors else [],
                options=ExecOptions(retraction=True),
            )
            assert closed["output"] == scratch, tenant


@settings(max_examples=15, deadline=None)
@given(
    st.lists(tenant_scripts(), min_size=N_TENANTS, max_size=N_TENANTS),
    restart_points,
)
def test_interleaved_tenant_scripts_equal_scratch_recompute(scripts, restarts):
    with tempfile.TemporaryDirectory() as data_dir:
        asyncio.run(_run_interleaved(scripts, restarts, data_dir))
