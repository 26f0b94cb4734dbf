"""A tenant keeps no virtual-time account that nobody reads.

No verb, reply field or ``stats`` payload exposes a tenant's ``report``
or ``meter``, so an entry registered without options runs its tenants
with ``metering="off"``.  What a tenant computes is unchanged: its
output and table sizes equal the metered single-shot run, and a
snapshot written by a metered session restores into it.
"""

from __future__ import annotations

import json

from repro.core import ExecOptions
from repro.serve import ProgramRegistry, TenantSession
from repro.serve.protocol import decode_events
from tests.serve._progs import make_registry, telemetry_factory, telemetry_script

BATCHES = telemetry_script(seed=21, n_tuples=192)  # 6 batches of 32


def _metered_oracle():
    program = telemetry_factory()
    with program.session(ExecOptions()) as s:
        s.feed([ev for b in BATCHES for ev in decode_events(program.schemas(), b)])
        return s.close()


ORACLE = _metered_oracle()


def _finish(tenant: TenantSession, start: int = 0):
    """Feed and settle the rest of the script, then close the engine
    session for its :class:`RunResult`."""
    for i in range(start, len(BATCHES)):
        tenant.feed(BATCHES[i], i + 1)
        tenant.settle()
    return tenant.session.close()


def test_default_entry_is_unmetered_explicit_options_are_kept():
    registry = make_registry()
    assert registry.get("telemetry").options.metering == "off"
    explicit = ProgramRegistry().register("t", telemetry_factory, ExecOptions())
    assert explicit.options == ExecOptions() and explicit.options.metering == "on"
    tenant = TenantSession.create("acme", registry.get("telemetry"), None, None)
    assert tenant.session.options.metering == "off"
    result = _finish(tenant)
    assert result.meter.total_cost == 0.0 and result.virtual_time == 0.0
    assert ORACLE.meter.total_cost > 0.0


def test_unmetered_tenant_matches_the_metered_oracle():
    tenant = TenantSession.create("acme", make_registry().get("telemetry"), None, None)
    result = _finish(tenant)
    assert result.output == ORACLE.output
    assert result.table_sizes == ORACLE.table_sizes


def test_metered_snapshot_restores_into_an_unmetered_tenant(tmp_path):
    """A tenant checkpointed under metered options (an operator's
    explicit entry, or a data directory written before the default
    changed) resumes under the default entry and finishes exactly."""
    metered = ProgramRegistry().register("telemetry", telemetry_factory, ExecOptions())
    before = TenantSession.create("acme", metered, None, tmp_path)
    for i in range(3):
        before.feed(BATCHES[i], i + 1)
        before.settle()
    before.checkpoint(compact=True)
    snap = json.loads((tmp_path / "acme" / "snapshot.json").read_text())
    assert snap["meter"]["total_cost"] > 0.0
    before.session.__exit__(None, None, None)  # abandoned, as after a crash

    entry = make_registry().get("telemetry")
    after = TenantSession.restore_from_disk("acme", entry, tmp_path)
    assert after.last_seq == 3
    assert after.session.options.metering == "off"
    result = _finish(after, start=after.last_seq)
    assert result.output == ORACLE.output
    assert result.table_sizes == ORACLE.table_sizes
