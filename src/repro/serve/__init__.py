"""The multi-tenant session service (:mod:`repro.serve`).

PR 4's resumable sessions and PR 6's retraction, assembled into a
server: an asyncio TCP frontend (length-prefixed JSON frames, see
:mod:`repro.serve.protocol`) multiplexing many concurrent tenant
:class:`~repro.core.EngineSession`s with per-tenant durability (a
write-ahead log compacted into snapshots), sequence-numbered
exactly-once feed admission, admission control with explicit
backpressure, and per-tenant statistics.

Quick taste::

    from repro.serve import ProgramRegistry, ServiceConfig, SessionService
    from repro.serve import ServiceClient

    registry = ProgramRegistry()
    registry.register("sensors", build_my_sensor_program)

    async def main():
        async with SessionService(registry, ServiceConfig(data_dir="state")) as svc:
            client = await ServiceClient.connect("127.0.0.1", svc.port)
            await client.open("tenant-a", "sensors")
            await client.feed("tenant-a", [Reading.new(0, 1, 55)])
            settled = await client.settle("tenant-a")
            print(settled["output"])
            await client.close("tenant-a")
"""

from repro.serve.client import ServiceCallError, ServiceClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_events,
    encode_frame,
    read_frame,
    wire_events,
    write_frame,
)
from repro.serve.registry import ProgramEntry, ProgramRegistry
from repro.serve.service import (
    ServiceConfig,
    ServiceStats,
    SessionService,
    run_service,
)
from repro.serve.tenant import TenantSession

__all__ = [
    "MAX_FRAME_BYTES",
    "ProgramEntry",
    "ProgramRegistry",
    "ServiceCallError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SessionService",
    "TenantSession",
    "decode_events",
    "encode_frame",
    "read_frame",
    "run_service",
    "wire_events",
    "write_frame",
]
