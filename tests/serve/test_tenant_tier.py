"""Tenants fire generated code, on one program per entry.

An entry registered without options runs its tenants on the codegen
tier (``ExecOptions(metering="off", execution="codegen")``); tiers
change cost, never output, so a tenant computes what the scalar
single-shot run computes — with retraction on too, since generated
drivers record their firings for the support index.  Registration
builds and freezes the entry's program once and its drivers compile
once; each tenant's kernel keeps its own Delta, Gamma, plan cache and
statistics.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.core import ExecOptions, Program
from repro.core.session import EngineSession
from repro.serve import ProgramRegistry, TenantSession
from repro.serve.protocol import decode_events
from tests.serve._progs import (
    HOT,
    make_registry,
    oracle_output,
    telemetry_factory,
    telemetry_script,
)

BATCHES = telemetry_script(seed=21, n_tuples=192)  # 6 batches of 32
ORACLE = oracle_output(telemetry_factory, BATCHES)


def _finish(tenant: TenantSession, batches=BATCHES, start: int = 0):
    for i in range(start, len(batches)):
        tenant.feed(batches[i], i + 1)
        tenant.settle()
    return tenant.session.close()


def test_a_default_tenant_fires_generated_drivers():
    entry = make_registry().get("telemetry")
    assert entry.options == ExecOptions(metering="off", execution="codegen")
    tenant = TenantSession.create("acme", entry, None, None)
    assert tenant.session.kernel.executor.name == "codegen"
    result = _finish(tenant)
    assert result.output == ORACLE
    fired = [n.text for n in result.stats.note_records if n.code == "codegen.fired"]
    assert fired and all(text.endswith(" 0 scalar") for text in fired)


def test_explicit_entry_options_are_kept():
    entry = ProgramRegistry().register("t", telemetry_factory, ExecOptions())
    assert entry.options == ExecOptions()
    tenant = TenantSession.create("acme", entry, None, None)
    assert tenant.session.kernel.executor.name == "scalar"
    assert _finish(tenant).output == ORACLE


def test_a_retraction_tenant_matches_the_scratch_recompute():
    """Deletes of hot readings retract their alert lines; the tenant
    ends where a fresh run over the surviving readings ends."""
    entry = make_registry().get("telemetry")
    tenant = TenantSession.create("acme", entry, {"retraction": True}, None)
    assert tenant.session.kernel.executor.name == "codegen"
    hot = [ev for batch in BATCHES for ev in batch if ev[2][2] >= HOT]
    assert len(hot) >= 4
    doomed = hot[::2]
    script = BATCHES + [[["-", table, values] for _op, table, values in doomed]]
    result = _finish(tenant, script)
    survivors = [[ev for batch in BATCHES for ev in batch if ev not in doomed]]
    assert result.output == oracle_output(telemetry_factory, survivors)
    assert result.output != ORACLE
    assert result.stats.retractions > 0


def test_a_scalar_snapshot_restores_into_a_codegen_entry(tmp_path):
    scalar = ProgramRegistry().register("telemetry", telemetry_factory, ExecOptions(metering="off"))
    before = TenantSession.create("acme", scalar, None, tmp_path)
    for i in range(3):
        before.feed(BATCHES[i], i + 1)
        before.settle()
    before.checkpoint(compact=True)
    before.session.__exit__(None, None, None)  # abandoned, as after a crash

    after = TenantSession.restore_from_disk("acme", make_registry().get("telemetry"), tmp_path)
    assert after.last_seq == 3
    assert after.session.kernel.executor.name == "codegen"
    assert _finish(after, start=after.last_seq).output == ORACLE


def _rising_factory() -> Program:
    """A program whose one rule queries Gamma: a reading above the same
    sensor's previous one prints a line."""
    p = Program("rising")
    Reading = p.table(
        "Reading", "int tick, int sensor -> int value", orderby=("Int", "seq tick", "Reading")
    )
    p.order("Int", "Reading")

    @p.foreach(Reading, assume_stratified=True)
    def rise(ctx, r):
        prev = ctx.get_uniq(Reading, tick=r.tick - 1, sensor=r.sensor)
        if prev is not None and r.value > prev.values[2]:
            ctx.println(f"sensor {r.sensor} rose at tick {r.tick}")

    return p


def _alone(tenant: str, batches) -> EngineSession:
    """One tenant's script on a program of its own, its feeds labelled
    as the tenant labels them."""
    program = _rising_factory()
    session = EngineSession(program, ExecOptions(metering="off", execution="codegen")).open()
    for seq, batch in enumerate(batches, 1):
        session.feed(decode_events(program.schemas(), batch), source=f"<{tenant}:{seq}>")
        session.settle()
    return session


def test_tenants_of_one_entry_share_the_program_and_nothing_else(monkeypatch):
    """Registration builds the program once; eight tenants open at once,
    on more threads than cores and with a short switch interval, and
    every rule compiles once.  Each tenant then computes what a session
    on a program of its own computes — tuples, plan hits and notes
    included."""
    from repro.plan import codegen

    builds, compiles = [], []
    compile_rule = codegen.compile_rule

    def counted(*args):
        compiles.append(args[0].name)
        return compile_rule(*args)

    def factory():
        builds.append(1)
        return _rising_factory()

    monkeypatch.setattr(codegen, "compile_rule", counted)
    entry = ProgramRegistry().register("rising", factory)
    scripts = {f"t{seed}": telemetry_script(seed, 96) for seed in range(8)}
    tenants: dict[str, TenantSession] = {}

    def open_tenant(name):
        tenants[name] = TenantSession.create(name, entry, None, None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=open_tenant, args=(name,)) for name in scripts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(tenants) == len(scripts)
    assert len(builds) == 1 and compiles == ["rise"]
    programs = {id(tenant.session.program) for tenant in tenants.values()}
    plans = {id(tenant.session.kernel._plans) for tenant in tenants.values()}
    assert len(programs) == 1 and len(plans) == len(tenants)
    for name, tenant in tenants.items():
        for i, batch in enumerate(scripts[name]):
            tenant.feed(batch, i + 1)
            tenant.settle()
    outputs = set()
    for name, tenant in tenants.items():
        alone = _alone(name, scripts[name])
        assert tenant.session.kernel.executor.name == "codegen"
        got, want = tenant.session.close(), alone.close()
        assert got.output == want.output and got.table_sizes == want.table_sizes
        assert json.dumps(got.stats.to_state()) == json.dumps(want.stats.to_state())
        assert got.stats.note_records == want.stats.note_records
        assert any(hits[0] for hits in got.stats.query_hits.values())
        outputs.add(tuple(got.output))
    assert len(outputs) > 1
