"""The multi-tenant session service: an asyncio TCP frontend
multiplexing many concurrent tenant :class:`~repro.core.EngineSession`s.

Architecture
------------

* One asyncio event loop owns all connections, the tenant table and
  all engine work.  Requests on one connection are processed in order;
  concurrency comes from many connections.  A per-tenant
  ``asyncio.Lock`` serialises verbs for the same tenant.
* Under the GIL a thread pool buys engine work no parallelism, only a
  hand-off per verb, so every verb runs inline.  A settle drains in
  slices of ``sys.getswitchinterval()`` (the fairness the GIL gave pool
  threads), yielding to the loop and the pool's writes between them.  A
  rule body holds the loop for its step, so it must not block (a
  ``threads`` or ``processes`` entry waits inside a step).  Only disk
  I/O — a durable point's write and ``fsync``, ``close``'s reaping —
  runs on a small pool, where the GIL is released.
* **Admission control** happens on the loop, before any engine work:
  ``open`` beyond ``max_tenants`` and feeds that would push the
  in-flight feed bytes over ``max_inflight_bytes`` are refused with
  *retryable* structured errors (:class:`TenantLimitError` /
  :class:`OverloadedError`) and touch nothing — the backpressure
  contract is "a refusal mutates no state; the identical request is
  valid later".
* **Durability** is per-tenant (:mod:`repro.serve.tenant`): a durable
  point fsyncs the ops applied since the last one as one line of the
  tenant's write-ahead log before its settle is answered; an atomic
  snapshot of the engine state plus the feed sequence number it covers
  is written only to compact that log.  ``open`` of a tenant with
  durable state restores it and reports ``last_seq`` so the client can
  replay exactly the feeds the crash lost — duplicates are acknowledged
  without re-admission, gaps are refused, which together give
  exactly-once admission across restarts.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from repro.core.errors import (
    OverloadedError,
    ProtocolError,
    ServiceError,
    TenantLimitError,
    UnknownTenantError,
    UnknownVerbError,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    error_payload,
    read_frame_with_size,
    write_frame,
)
from repro.serve.registry import ProgramRegistry
from repro.serve.tenant import TenantSession, valid_tenant_id

__all__ = ["ServiceConfig", "ServiceStats", "SessionService", "run_service"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-side service configuration."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; SessionService.port has the bound one
    #: durable checkpoint root (one subdirectory per tenant); None
    #: disables durability (snapshot verb refused, restore impossible)
    data_dir: str | Path | None = None
    #: admission control: refuse ``open`` beyond this many live tenants
    max_tenants: int = 256
    #: admission control: refuse feeds while this many request bytes are
    #: already queued or being admitted across all tenants
    max_inflight_bytes: int = 8 * 1024 * 1024
    #: refuse single frames larger than this (never above the protocol
    #: hard cap)
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: reach a durable point every N settles (0 = only on explicit
    #: ``snapshot`` verbs and graceful shutdown)
    checkpoint_every_settles: int = 1
    #: width of the thread pool that runs durable points' disk writes
    #: and close's reaping; engine work runs on the event loop
    executor_workers: int = 8

    def __post_init__(self) -> None:
        if self.max_frame_bytes > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"max_frame_bytes {self.max_frame_bytes} exceeds the "
                f"protocol hard cap {MAX_FRAME_BYTES}"
            )


@dataclass
class ServiceStats:
    """Service-level counters (the tenant-level ones live on each
    :class:`TenantSession` and surface through the ``stats`` verb)."""

    connections: int = 0
    requests: int = 0
    feeds: int = 0
    fed_tuples: int = 0
    settles: int = 0
    checkpoints: int = 0  # durable points
    compactions: int = 0
    durable_bytes: int = 0  # log lines + snapshots written
    restores: int = 0
    closes: int = 0
    #: structured-error responses by wire code
    rejections: dict[str, int] = field(default_factory=dict)
    peak_tenants: int = 0
    peak_inflight_bytes: int = 0

    def reject(self, code: str) -> None:
        self.rejections[code] = self.rejections.get(code, 0) + 1

    def as_dict(self) -> dict:
        return {**asdict(self), "rejections": dict(sorted(self.rejections.items()))}


class SessionService:
    """One running service over one :class:`ProgramRegistry`."""

    def __init__(self, registry: ProgramRegistry, config: ServiceConfig | None = None):
        self.registry = registry
        self.config = config if config is not None else ServiceConfig()
        self.tenants: dict[str, TenantSession] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._inflight_bytes = 0
        self.stats = ServiceStats()
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._io: set[asyncio.Future] = set()  # writes in flight on the pool
        self._stopping = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "SessionService":
        if self._server is not None:
            raise ServiceError("service already started")
        if self.config.data_dir is not None:
            Path(self.config.data_dir).mkdir(parents=True, exist_ok=True)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="serve-io",
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def stop(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: stop accepting, compact every live
        tenant (when durability is on), release the executor."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if checkpoint and self.config.data_dir is not None:
            for tenant in list(self.tenants.values()):
                if not tenant.session.closed:
                    async with self._turn(tenant):
                        await self._checkpoint(tenant, True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._server = None

    async def __aenter__(self) -> "SessionService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(checkpoint=exc_type is None)

    # -- helpers ---------------------------------------------------------------

    async def _run_io(self, fn):
        """Run blocking disk I/O on the pool."""
        if self._pool is None:
            raise ServiceError("service is stopped")
        io = asyncio.get_running_loop().run_in_executor(self._pool, fn)
        self._io.add(io)
        io.add_done_callback(self._io.discard)
        return await io

    async def _checkpoint(self, tenant: TenantSession, compact: bool = False) -> dict:
        """A durable point: encoded on the loop, written on the pool."""
        data = tenant.encode_checkpoint(compact)
        return await self._run_io(partial(tenant.checkpoint, data=data))

    @contextlib.asynccontextmanager
    async def _turn(self, tenant: TenantSession):
        """One verb on a live tenant, under its lock; the service's
        durable totals advance by what the tenant's did.  A session that
        ends here, closed by its tenant or shut down by an engine error,
        frees its slot; the durable snapshot and log of the latter stay
        restorable."""
        async with self._locks.setdefault(tenant.tenant, asyncio.Lock()):
            before = tenant.checkpoints, tenant.compactions, tenant.durable_bytes
            try:
                yield
            finally:
                self.stats.checkpoints += tenant.checkpoints - before[0]
                self.stats.compactions += tenant.compactions - before[1]
                self.stats.durable_bytes += tenant.durable_bytes - before[2]
                if tenant.session.closed:
                    self.tenants.pop(tenant.tenant, None)
                    self._locks.pop(tenant.tenant, None)

    def _live_tenant(self, msg: dict) -> TenantSession:
        tenant_id = valid_tenant_id(msg.get("tenant"))
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} has no live session"
                + (
                    " (a durable checkpoint exists; send open to restore it)"
                    if TenantSession.has_durable_state(self.config.data_dir, tenant_id)
                    else ""
                )
            )
        return tenant

    # -- connection handling ---------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while not self._stopping:
                try:
                    framed = await read_frame_with_size(
                        reader, self.config.max_frame_bytes
                    )
                except ProtocolError as exc:
                    # the stream may be desynchronised (unread body
                    # bytes): answer, then drop the connection
                    code = error_payload(None, exc)
                    self.stats.reject(code["error"]["code"])
                    with contextlib.suppress(ConnectionError):
                        await write_frame(writer, code)
                    return
                if framed is None:
                    return
                msg, nbytes = framed
                self.stats.requests += 1
                response = await self._dispatch(msg, nbytes)
                if not response.get("ok", False):
                    self.stats.reject(response["error"]["code"])
                try:
                    await write_frame(writer, response)
                except ConnectionError:
                    return
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                with contextlib.suppress(asyncio.CancelledError):
                    await writer.wait_closed()

    async def _dispatch(self, msg: dict, nbytes: int) -> dict:
        request_id = msg.get("id")
        verb = msg.get("verb")
        try:
            if verb not in _HANDLERS:
                raise UnknownVerbError(
                    f"unknown verb {verb!r}; this service speaks: "
                    + ", ".join(sorted(_HANDLERS))
                )
            payload = await _HANDLERS[verb](self, msg, nbytes)
            return {"id": request_id, "ok": True, **payload}
        except Exception as exc:  # noqa: BLE001 — mapped to wire codes
            return error_payload(request_id, exc)

    # -- verbs -----------------------------------------------------------------

    async def _verb_ping(self, msg: dict, nbytes: int) -> dict:
        return {
            "pong": True,
            "programs": self.registry.names(),
            "tenants": len(self.tenants),
        }

    async def _verb_open(self, msg: dict, nbytes: int) -> dict:
        tenant_id = valid_tenant_id(msg.get("tenant"))
        program = msg.get("program")
        if not isinstance(program, str):
            raise ProtocolError(f"open needs a program name, got {program!r}")
        overrides = msg.get("options") or {}
        if not isinstance(overrides, dict):
            raise ProtocolError(f"open options must be an object, got {overrides!r}")
        entry = self.registry.get(program)

        tenant = self.tenants.get(tenant_id)
        resumed = tenant is not None
        if resumed:
            # idempotent re-open (e.g. a client retrying after a lost
            # response): same program required, nothing re-built
            if tenant.entry.name != program:
                raise ProtocolError(
                    f"tenant {tenant_id!r} is open on program "
                    f"{tenant.entry.name!r}, not {program!r}"
                )
        elif len(self.tenants) >= self.config.max_tenants:
            raise TenantLimitError(
                f"session table is full ({self.config.max_tenants} "
                "tenants); close a tenant or retry later"
            )
        elif resumed := TenantSession.has_durable_state(self.config.data_dir, tenant_id):
            tenant = TenantSession.restore_from_disk(tenant_id, entry, self.config.data_dir)
            # a restored tenant keeps its original overrides; a
            # conflicting re-open request is a client bug
            if overrides and overrides != tenant.overrides:
                tenant.session.close()
                raise ProtocolError(
                    f"tenant {tenant_id!r} was opened with options "
                    f"{tenant.overrides!r}; reopen with the same "
                    f"options (got {overrides!r})"
                )
            self.stats.restores += 1
        else:
            tenant = TenantSession.create(tenant_id, entry, overrides, self.config.data_dir)
        self.tenants[tenant_id] = tenant
        self.stats.peak_tenants = max(self.stats.peak_tenants, len(self.tenants))
        return {
            "tenant": tenant_id,
            "program": program,
            "resumed": resumed,
            "created": not resumed,
            "last_seq": tenant.last_seq,
            "durable_seq": tenant.durable_seq,
        }

    async def _verb_feed(self, msg: dict, nbytes: int, deletes_only: bool = False) -> dict:
        tenant = self._live_tenant(msg)
        events = msg.get("events")
        if not isinstance(events, list):
            raise ProtocolError(
                f"feed needs an events list, got {type(events).__name__}"
            )
        seq = msg.get("seq")
        # backpressure check-and-reserve happens on the loop, before
        # any engine work, so a refusal cannot have mutated anything
        if self._inflight_bytes + nbytes > self.config.max_inflight_bytes:
            raise OverloadedError(
                f"feed of {nbytes} bytes refused: {self._inflight_bytes} "
                f"bytes of feeds already in flight (limit "
                f"{self.config.max_inflight_bytes}); retry after pending "
                "feeds drain"
            )
        self._inflight_bytes += nbytes
        self.stats.peak_inflight_bytes = max(
            self.stats.peak_inflight_bytes, self._inflight_bytes
        )
        try:
            async with self._turn(tenant):
                payload = tenant.feed(events, seq, deletes_only)
        finally:
            self._inflight_bytes -= nbytes
        self.stats.feeds += 1
        self.stats.fed_tuples += payload["admitted"]
        return payload

    async def _verb_retract(self, msg: dict, nbytes: int) -> dict:
        return await self._verb_feed(msg, nbytes, deletes_only=True)

    async def _verb_settle(self, msg: dict, nbytes: int) -> dict:
        tenant = self._live_tenant(msg)
        async with self._turn(tenant):
            slice_s = sys.getswitchinterval()
            while (payload := tenant.settle(until=time.perf_counter() + slice_s)) is None:
                # a write on the pool takes the GIL back after each system
                # call: writes in flight finish (within a slice) first
                await (asyncio.wait(self._io, timeout=slice_s) if self._io else asyncio.sleep(0))
            if tenant.checkpoint_due(self.config.checkpoint_every_settles):
                payload["durable_seq"] = (await self._checkpoint(tenant))["durable_seq"]
        self.stats.settles += 1
        return payload

    async def _verb_snapshot(self, msg: dict, nbytes: int) -> dict:
        tenant = self._live_tenant(msg)
        async with self._turn(tenant):
            return await self._checkpoint(tenant, True)

    async def _verb_close(self, msg: dict, nbytes: int) -> dict:
        tenant = self._live_tenant(msg)
        async with self._turn(tenant):
            payload = tenant.close()
            await self._run_io(tenant.reap)
        self.stats.closes += 1
        return payload

    async def _verb_stats(self, msg: dict, nbytes: int) -> dict:
        if msg.get("tenant") is None:
            return {
                "service": self.stats.as_dict(),
                "tenants": sorted(self.tenants),
                "programs": self.registry.names(),
                "inflight_bytes": self._inflight_bytes,
                "limits": {
                    "max_tenants": self.config.max_tenants,
                    "max_inflight_bytes": self.config.max_inflight_bytes,
                    "max_frame_bytes": self.config.max_frame_bytes,
                },
            }
        tenant = self._live_tenant(msg)
        async with self._turn(tenant):
            return tenant.stats()


#: verb name -> handler: every ``_verb_<name>`` method
_HANDLERS = {
    name[6:]: fn for name, fn in vars(SessionService).items() if name.startswith("_verb_")
}


def run_service(
    registry: ProgramRegistry,
    config: ServiceConfig,
    *,
    ready_file: str | Path | None = None,
) -> None:
    """Blocking entry point (the crash-test child and ad-hoc servers):
    start the service and serve until cancelled.  When ``ready_file``
    is given, the bound port is written there once listening — the
    parent process polls it instead of racing the bind."""

    async def _main() -> None:
        service = SessionService(registry, config)
        await service.start()
        if ready_file is not None:
            tmp = Path(str(ready_file) + ".tmp")
            tmp.write_text(json.dumps({"port": service.port}))
            tmp.replace(Path(ready_file))
        await service.serve_forever()

    asyncio.run(_main())
