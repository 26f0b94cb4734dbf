"""``telemetry_service``: the tenant service with durability on, driven
closed-loop over TCP by 2 connections x 6 tenants each.

Closed loop: each connection sends its next request only after the
previous reply, so a slow service receives less load; 2 connections is
what the 2-core reference box can generate without measuring its own
scheduler.  The service runs in a child process (``service_host.py``);
a traced repetition runs it in this process instead, because the
tracer's wrappers must live where the service does.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.core import ExecOptions
from repro.core.session import EngineSession
from repro.serve import ServiceCallError, ServiceClient, SessionService, decode_events

from bench import oracle
from bench.measure import children_rss_mb, proc_cpu, self_rss_mb
from bench.programs import SETTLE_EVERY, telemetry_factory, telemetry_script
from bench.service_host import service_config, telemetry_registry

#: (tenants, tuples per tenant): 32-tuple feeds, settle every 2 feeds.
#: 12 x 1000 rather than 6 x 2000: a checkpoint rewrites the tenant's whole
#: state, so long scripts end in a few very long checkpoints and the feeds
#: that collide with those alone set p99 (spread 0.26 from run to run)
SIZES = {"full": (12, 1000), "quick": (12, 320)}
N_CONNECTIONS = 2
MAX_RETRIES = 8
_HOST = Path(__file__).resolve().parent.parent / "service_host.py"
_TMP = Path(__file__).resolve().parent.parent / ".tmp"


class _Load:
    """What the clients observed."""

    def __init__(self, data_dir: Path):
        self.data_dir = data_dir
        self.feed_ms: list[float] = []
        self.settle_ms: list[float] = []
        self.requests = 0
        #: summed latency of every request, opens and closes included
        self.request_ms = 0.0
        self.retries = 0
        self.admitted = 0
        self.checkpoint_bytes = 0
        self.closed: dict[str, dict] = {}
        self.service_stats: dict = {}


async def _feed(client: ServiceClient, tenant: str, batch: list, load: _Load) -> None:
    """One feed frame; a retryable refusal (backpressure) is retried
    with backoff and counted, and the latency includes the retries."""
    t0 = time.perf_counter()
    for attempt in range(MAX_RETRIES + 1):
        load.requests += 1
        try:
            fed = await client.feed(tenant, batch)
            break
        except ServiceCallError as exc:
            if not exc.retryable or attempt == MAX_RETRIES:
                raise
            load.retries += 1
            await asyncio.sleep(0.05 * 2**attempt)
    load.feed_ms.append((time.perf_counter() - t0) * 1e3)
    load.request_ms += load.feed_ms[-1]
    load.admitted += fed["admitted"]


async def _settle(client: ServiceClient, tenant: str, load: _Load) -> None:
    t0 = time.perf_counter()
    await client.settle(tenant)
    load.settle_ms.append((time.perf_counter() - t0) * 1e3)
    load.request_ms += load.settle_ms[-1]
    load.requests += 1
    # the reply follows the checkpoint, so the file is this settle's
    load.checkpoint_bytes += os.path.getsize(load.data_dir / tenant / "snapshot.json")


async def _drive(port: int, scripts: dict[str, list], load: _Load, gate: asyncio.Barrier) -> None:
    """One connection serving its tenants round-robin."""
    async with await ServiceClient.connect("127.0.0.1", port) as client:
        for tenant in scripts:
            t0 = time.perf_counter()
            await client.open(tenant, "telemetry")
            load.request_ms += (time.perf_counter() - t0) * 1e3
            load.requests += 1
        await gate.wait()  # every tenant open before any feed
        n_batches = max(len(b) for b in scripts.values())
        for j in range(n_batches):
            for tenant, batches in scripts.items():
                if j < len(batches):
                    await _feed(client, tenant, batches[j], load)
                    if (j + 1) % SETTLE_EVERY == 0:
                        await _settle(client, tenant, load)
        for tenant in scripts:
            await _settle(client, tenant, load)
            t0 = time.perf_counter()
            load.closed[tenant] = await client.close(tenant)
            load.request_ms += (time.perf_counter() - t0) * 1e3
            load.requests += 1


async def _session(port: int | None, scripts: dict[str, list], load: _Load) -> None:
    service = None
    if port is None:  # traced: the service shares this process
        service = SessionService(telemetry_registry(), service_config(str(load.data_dir)))
        await service.start()
        port = service.port
    try:
        tenants = list(scripts)
        gate = asyncio.Barrier(N_CONNECTIONS)
        await asyncio.gather(
            *(
                _drive(port, {t: scripts[t] for t in tenants[i::N_CONNECTIONS]}, load, gate)
                for i in range(N_CONNECTIONS)
            )
        )
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            load.service_stats = (await client.stats())["service"]
    finally:
        if service is not None:
            await service.stop(checkpoint=False)


def _start_service(data_dir: Path) -> tuple[subprocess.Popen, int]:
    ready = data_dir / "ready.json"
    proc = subprocess.Popen(
        [sys.executable, str(_HOST), "--data-dir", str(data_dir), "--ready-file", str(ready)],
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while not ready.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            _stop_service(proc)
            raise RuntimeError("the service child did not become ready")
        time.sleep(0.005)
    return proc, json.loads(ready.read_text())["port"]


def _stop_service(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _replay(batches: list) -> tuple[list[str], dict[str, int]]:
    """The oracle: an in-process session fed the same script."""
    program = telemetry_factory()
    schemas = program.schemas()
    with EngineSession(program, ExecOptions()) as session:
        for j, batch in enumerate(batches):
            session.feed(decode_events(schemas, batch))
            if (j + 1) % SETTLE_EVERY == 0:
                session.settle()
    return list(session.result.output), dict(sorted(session.result.table_sizes.items()))


def run(rep) -> None:
    n_tenants, n_tuples = SIZES[rep.size]
    data_dir = _TMP / f"telemetry-{os.getpid()}"
    proc = None
    with rep.setup():
        scripts = {
            f"tenant-{i}": telemetry_script(rep.seed * n_tenants + i, n_tuples)
            for i in range(n_tenants)
        }
        data_dir.mkdir(parents=True)
        if rep.tracer is None:
            proc, port = _start_service(data_dir)
        else:
            port = None
            rep.tracer.install("engine", "serve")
    load = _Load(data_dir)
    try:
        extra_cpu = (lambda: proc_cpu(proc.pid)) if proc is not None else None
        with rep.leg("default", extra_cpu=extra_cpu):
            asyncio.run(_session(port, scripts, load))
    finally:
        if proc is not None:
            _stop_service(proc)
        shutil.rmtree(data_dir, ignore_errors=True)

    rep.latency_ms = {"feed": load.feed_ms, "settle": load.settle_ms}
    rep.attempted += load.requests
    outputs, sizes = [], {}
    for tenant, batches in scripts.items():
        want_output, want_sizes = _replay(batches)
        closed = load.closed[tenant]
        rep.check_digest(
            oracle.digest("\n".join(closed["output"]), closed["table_sizes"]),
            oracle.digest("\n".join(want_output), want_sizes),
            f"{tenant} vs in-process session",
        )
        outputs.extend(closed["output"])
        for name, size in closed["table_sizes"].items():
            sizes[name] = sizes.get(name, 0) + size
    rep.digest = oracle.digest("\n".join(outputs), sizes)
    rep.check(load.admitted == n_tenants * n_tuples, "lost or duplicated tuples")

    rep.tuples = load.admitted
    rep.bytes = load.checkpoint_bytes
    rep.counts = {
        "feeds": len(load.feed_ms),
        "settles": len(load.settle_ms),
        "tuples": load.admitted,
        "checkpoints": load.service_stats["checkpoints"],
    }
    rejections = sum(load.service_stats["rejections"].values())
    if rep.tracer is None:
        rep.peak_rss_mb = children_rss_mb()  # the service child
        rep.layers.update(
            {
                "serve.tenant.checkpoint_bytes": load.checkpoint_bytes,
                "serve.service.rejections": rejections,
                "serve.client.retries": load.retries,
            }
        )
    else:
        rep.peak_rss_mb = self_rss_mb()
        # what the clients waited for that no service-side span covers:
        # loop scheduling, executor hand-off, tenant lock, TCP
        span_ms = sum(
            rec[0]
            for name, rec in rep.tracer.totals().items()
            if name not in ("bench.region", "net.recv_wait")
        ) / 1e6
        rep.layers["serve.service.wait_ms"] = load.request_ms - span_ms
