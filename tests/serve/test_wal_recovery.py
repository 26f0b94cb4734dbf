"""Recovery from the per-tenant write-ahead log: a crash at every
durable point and at every byte of a torn log line restores exactly the
last committed transaction; a compaction that crashed before its
truncate applies nothing twice; a damaged log refuses ``open`` with a
typed error and touches nothing; memory, file descriptors and the
durable counters are bounded and repeat.

A "crash" is ``stop(checkpoint=False)`` (or an abandoned
``TenantSession``): nothing is flushed that a durable point had not
already fsynced, which is what SIGKILL leaves
(``test_crash_recovery.py`` does it with a real SIGKILL).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
from pathlib import Path

import pytest

import repro.serve.tenant as tenant_mod
from repro.core.errors import ProtocolError
from repro.serve import ServiceCallError, ServiceClient, TenantSession
from tests.serve._progs import (
    make_registry,
    oracle_output,
    running_service,
    telemetry_factory,
    telemetry_script,
)

FLOOR = 2048
BATCHES = telemetry_script(seed=33, n_tuples=320)  # 10 batches of 32
ORACLE = oracle_output(telemetry_factory, BATCHES)


@pytest.fixture(autouse=True)
def small_floor(monkeypatch):
    """Compaction every few batches, so a short script crosses it."""
    monkeypatch.setattr(tenant_mod, "COMPACT_FLOOR_BYTES", FLOOR)


def _entry():
    return make_registry().get("telemetry")


def _committed(tdir: Path) -> tuple[int, int]:
    """(seq, settles) of the last committed transaction on disk: the
    last complete log line's, else the snapshot's."""
    lines = (tdir / "feed.log").read_bytes().split(b"\n")[:-1]
    if lines:
        last = json.loads(lines[-1])
        return last["seq"], last["settles"]
    extra = json.loads((tdir / "snapshot.json").read_text())["extra"]
    return extra["last_seq"], extra["settles"]


def _finish(tenant: TenantSession, batches=BATCHES) -> dict:
    """Replay the lost tail the way a client does, then close."""
    for i in range(tenant.durable_seq, len(batches)):
        fed = tenant.feed(batches[i], i + 1)
        assert not fed["duplicate"] and fed["admitted"] == len(batches[i])
        tenant.settle()
    return tenant.close()


#: the run that never crashed
REFERENCE = _finish(TenantSession.create("acme", _entry(), None, None))


def _assert_exact(closed: dict, reference: dict = REFERENCE) -> None:
    assert closed["output"] == reference["output"]
    assert closed["table_sizes"] == reference["table_sizes"]
    assert closed["fed_tuples"] == reference["fed_tuples"]


# -- (a) a crash at every durable point, over the wire --------------------------


@pytest.mark.parametrize("k", range(1, len(BATCHES) + 1))
def test_crash_after_kth_durable_point_restores_it_exactly(tmp_path, k):
    data_dir = tmp_path / "state"
    increments: list[str] = []

    async def until_crash():
        async with running_service(data_dir=data_dir) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                await c.open("acme", "telemetry")
                for batch in BATCHES[:k]:
                    await c.feed("acme", batch)
                    settled = await c.settle("acme")
                    increments.extend(settled["output"])
                    assert settled["durable_seq"] == settled["settle"]
                    # (f) the base exists from the first settle reply on
                    assert (data_dir / "acme" / "snapshot.json").exists()
                if k < len(BATCHES):  # applied, never committed: lost
                    fed = await c.feed("acme", BATCHES[k])
                    assert fed["last_seq"] == k + 1 and fed["durable_seq"] == k
                return await c.stats("acme")

    async def after_restart():
        async with running_service(data_dir=data_dir) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                opened = await c.open("acme", "telemetry")
                assert opened["resumed"] and not opened["created"]
                assert (opened["last_seq"], opened["durable_seq"]) == (k, k)
                stats = await c.stats("acme")
                for i in range(k, len(BATCHES)):
                    await c.feed("acme", BATCHES[i], seq=i + 1)
                    increments.extend((await c.settle("acme"))["output"])
                return stats, await c.close("acme")

    before = asyncio.run(until_crash())
    assert _committed(data_dir / "acme") == (k, k)
    log_bytes = (data_dir / "acme" / "feed.log").stat().st_size
    assert before["log_bytes"] == log_bytes
    # the bound: a line that would take the log past the threshold is a
    # compaction instead
    assert log_bytes <= max(FLOOR, before["snapshot_bytes"])
    restored, closed = asyncio.run(after_restart())
    assert restored["fed_tuples"] == sum(len(b) for b in BATCHES[:k])
    assert restored["settles"] == k
    assert restored["log_bytes"] == log_bytes
    # every feed the log holds beyond the snapshot was replayed
    assert (restored["replayed_feeds"] > 0) == (log_bytes > 0)
    _assert_exact(closed)
    assert closed["output"] == ORACLE
    assert increments == ORACLE, "a settle increment was lost or delivered twice"


def test_the_script_crosses_both_durable_paths(tmp_path):
    """The parametrised test above means something only if its durable
    points are a mix of log appends and compactions."""
    tenant = TenantSession.create("acme", _entry(), None, tmp_path)
    appended = 0
    for batch in BATCHES:
        tenant.feed(batch, None)
        before = tenant.log_bytes
        tenant.settle(1)
        appended += tenant.log_bytes > before
    assert tenant.checkpoints == len(BATCHES)
    assert 1 < tenant.compactions < len(BATCHES)
    assert appended == len(BATCHES) - tenant.compactions
    assert tenant.close()["output"] == ORACLE


# -- (a') the log torn at every byte of its last line ---------------------------


def test_log_torn_at_every_byte_of_its_last_line(tmp_path):
    batches = telemetry_script(seed=5, n_tuples=96, n_sensors=4, ticks_per_batch=2)
    reference = _finish(TenantSession.create("acme", _entry(), None, None), batches)
    state = tmp_path / "state"
    tenant = TenantSession.create("acme", _entry(), None, state)
    log = state / "acme" / "feed.log"
    k = 0
    while not (log.exists() and log.read_bytes().count(b"\n") >= 2):
        tenant.feed(batches[k], None)
        tenant.settle(1)
        k += 1
    data = log.read_bytes()
    start = data.rfind(b"\n", 0, len(data) - 1) + 1  # the last line's first byte
    assert json.loads(data[start:])["seq"] == k

    for cut in range(start, len(data) + 1):
        work = tmp_path / f"cut-{cut}"
        shutil.copytree(state, work)
        os.truncate(work / "acme" / "feed.log", cut)
        restored = TenantSession.restore_from_disk("acme", _entry(), work)
        # only the whole line, newline included, is a commit
        want = k if cut == len(data) else k - 1
        assert (restored.last_seq, restored.durable_seq, restored.settles) == (
            want, want, want,
        ), cut
        assert restored.fed_tuples == sum(len(b) for b in batches[:want])
        # the torn tail is cut, silently
        assert (work / "acme" / "feed.log").stat().st_size == (
            len(data) if cut == len(data) else start
        )
        _assert_exact(_finish(restored, batches), reference)
        shutil.rmtree(work)


# -- (b) the compaction window --------------------------------------------------


def test_new_snapshot_beside_the_old_log_applies_nothing_twice(tmp_path):
    """A crash after ``os.replace`` and before the truncate."""
    tenant = TenantSession.create("acme", _entry(), None, tmp_path)
    log = tmp_path / "acme" / "feed.log"
    k = 0
    while not (log.exists() and log.stat().st_size):
        tenant.feed(BATCHES[k], None)
        tenant.settle(1)
        k += 1
    old_log = log.read_bytes()
    tenant.checkpoint(compact=True)
    assert log.stat().st_size == 0
    log.write_bytes(old_log)

    restored = TenantSession.restore_from_disk("acme", _entry(), tmp_path)
    assert (restored.last_seq, restored.settles) == (k, k)
    assert restored.replayed_feeds == 0
    assert restored.fed_tuples == sum(len(b) for b in BATCHES[:k])
    _assert_exact(_finish(restored))


# -- (d) no durable point at all: memory stays bounded --------------------------


def test_open_transaction_is_bounded_without_durable_points(tmp_path):
    batches = telemetry_script(seed=4, n_tuples=10_000)
    limit = FLOOR // tenant_mod.MIN_EVENT_BYTES

    async def go():
        async with running_service(
            data_dir=tmp_path, checkpoint_every_settles=0
        ) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                await c.open("t", "telemetry")
                tenant = svc.tenants["t"]
                for j, batch in enumerate(batches):
                    await c.feed("t", batch)
                    if j % 2:
                        await c.settle("t")
                    assert tenant._txn is None or tenant._txn_events <= limit
                assert tenant._txn is None, "10 000 events were held in memory"
                assert svc.stats.checkpoints == 0 and not any(tmp_path.iterdir())
                # the next durable point cannot log what was dropped: it
                # compacts, and recording resumes
                snap = await c.snapshot("t")
                assert snap["durable_seq"] == len(batches)
                assert tenant._txn == [] and tenant.compactions == 1

    asyncio.run(go())


# -- (e) the durable counters are a function of the request sequence ------------


def test_durable_counters_repeat_exactly(tmp_path):
    scripts = {f"t{i}": telemetry_script(seed=40 + i, n_tuples=256) for i in range(3)}

    async def one_run(data_dir: Path) -> dict:
        async with running_service(data_dir=data_dir) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                for tenant in scripts:
                    await c.open(tenant, "telemetry")
                for j in range(8):
                    for tenant, batches in scripts.items():
                        await c.feed(tenant, batches[j])
                        await c.settle(tenant)
                await c.snapshot("t0")
                for tenant in scripts:
                    await c.close(tenant)
                return (await c.stats())["service"]

    first = asyncio.run(one_run(tmp_path / "a"))
    second = asyncio.run(one_run(tmp_path / "b"))
    for key in ("checkpoints", "compactions", "durable_bytes"):
        assert first[key] == second[key], key
    assert first["checkpoints"] == 3 * 8 + 1
    assert 3 < first["compactions"] < first["checkpoints"]
    assert first["durable_bytes"] > 0


# -- robustness: typed refusals that touch nothing ------------------------------


def _durable_tenant(data_dir: Path, settles: int = 3) -> Path:
    """A crashed tenant with a base snapshot and a non-empty log."""
    tenant = TenantSession.create("acme", _entry(), None, data_dir)
    log = data_dir / "acme" / "feed.log"
    for batch in BATCHES[:settles]:
        tenant.feed(batch, None)
        tenant.settle(1)
    assert log.read_bytes().count(b"\n") >= 2
    return log


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _damage_garbage_line(log: Path) -> int:
    lines = log.read_bytes().split(b"\n")
    log.write_bytes(b"\n".join([lines[0][: len(lines[0]) // 2]] + lines[1:]))
    return 0


def _edit_second_line(log: Path, edit) -> int:
    lines = log.read_bytes().split(b"\n")
    doc = json.loads(lines[1])
    edit(doc)
    lines[1] = json.dumps(doc, separators=(",", ":")).encode()
    log.write_bytes(b"\n".join(lines))
    return len(lines[0]) + 1


def _damage_seq_gap(log: Path) -> int:
    def a_feed_the_log_never_saw(doc):
        doc["ops"][0][1] += 1

    return _edit_second_line(log, a_feed_the_log_never_saw)


def _damage_settle_gap(log: Path) -> int:
    def a_settle_the_log_never_saw(doc):
        doc["ops"][-1][1] += 1

    return _edit_second_line(log, a_settle_the_log_never_saw)


def _damage_unknown_op(log: Path) -> int:
    return _edit_second_line(log, lambda doc: doc["ops"].insert(0, ["vacuum", 99]))


def _damage_wrong_shape(log: Path) -> int:
    return _edit_second_line(log, lambda doc: doc.pop("ops"))


def _damage_no_snapshot(log: Path) -> int:
    (log.parent / "snapshot.json").unlink()
    return 0


@pytest.mark.parametrize(
    "damage",
    [
        _damage_garbage_line,
        _damage_seq_gap,
        _damage_settle_gap,
        _damage_unknown_op,
        _damage_wrong_shape,
        _damage_no_snapshot,
    ],
)
def test_damaged_log_refuses_open_and_touches_nothing(tmp_path, damage):
    log = _durable_tenant(tmp_path)
    offset = damage(log)
    before = _tree(tmp_path)

    with pytest.raises(ProtocolError) as direct:
        TenantSession.restore_from_disk("acme", _entry(), tmp_path)
    assert str(log) in str(direct.value) and f"byte {offset}" in str(direct.value)

    async def go():
        async with running_service(data_dir=tmp_path, max_tenants=1) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                with pytest.raises(ServiceCallError) as err:
                    await c.open("acme", "telemetry")
                assert err.value.code == "protocol" and not err.value.retryable
                assert str(log) in err.value.message
                assert f"byte {offset}" in err.value.message
                assert svc.tenants == {} and svc.stats.restores == 0
                # the one slot is still free
                assert (await c.open("other", "telemetry"))["created"]

    asyncio.run(go())
    assert _tree(tmp_path) == before


# -- robustness: no descriptor outlives its tenant ------------------------------


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_no_descriptor_outlives_its_tenant(tmp_path):
    def n_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    async def cycle(i: int, last: bool) -> None:
        async with running_service(data_dir=tmp_path) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                opened = await c.open("acme", "telemetry")
                assert opened["last_seq"] == opened["durable_seq"] == i
                await c.feed("acme", BATCHES[i])
                await c.settle("acme")
                await c.feed("acme", BATCHES[i + 1])  # lost with the crash
                if last:
                    await c.close("acme")
        # leaving the block is stop(checkpoint=False): the crash

    asyncio.run(cycle(0, False))  # first use pays the one-off imports
    baseline = n_fds()
    for i in (1, 2, 3):
        asyncio.run(cycle(i, False))
        assert n_fds() == baseline, f"cycle {i} leaked a descriptor"
    asyncio.run(cycle(4, True))
    assert n_fds() == baseline
    assert not (tmp_path / "acme").exists(), "close reaps the snapshot and the log"
