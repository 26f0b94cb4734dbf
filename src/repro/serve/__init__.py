"""The multi-tenant session service (:mod:`repro.serve`).

Resumable sessions and retraction, assembled into a server: an asyncio
TCP frontend (length-prefixed JSON frames, see
:mod:`repro.serve.protocol`) multiplexing many concurrent tenant
:class:`~repro.core.EngineSession`s with per-tenant durability (a
write-ahead log compacted into snapshots), sequence-numbered
exactly-once feed admission, admission control with explicit
backpressure, and per-tenant statistics.  README "Serving" has a
worked example.
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
