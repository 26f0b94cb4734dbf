"""The session service wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry a
client-chosen ``id`` (echoed verbatim in the response), a ``verb``, and
verb-specific fields; responses are either

    {"id": ..., "ok": true,  ...verb-specific payload...}
    {"id": ..., "ok": false, "error": {"code", "message", "retryable"}}

The error ``code`` values are the stable wire names of the
:class:`~repro.core.errors.ServiceError` taxonomy (plus the engine
error codes below); ``retryable`` distinguishes *backpressure* — retry
the identical request later, nothing was mutated — from protocol or
semantic failures the client must fix.

Feed events travel as ``["+"|"-", table, [values...]]`` triples
(``"+"`` insert, ``"-"`` retraction Delete); :func:`wire_events` /
:func:`decode_events` convert to and from the engine's
:class:`~repro.core.delta.Insert` / ``Delete`` event objects.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Iterable, Mapping

from repro.core.delta import Delete, Insert
from repro.core.errors import (
    CausalityError,
    EngineError,
    FrameTooLargeError,
    JStarError,
    ProtocolError,
    RetractionError,
    SchemaError,
    ServiceError,
    UnknownTableError,
)
from repro.core.tuples import JTuple

__all__ = [
    "HEADER",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_frame",
    "read_frame_with_size",
    "write_frame",
    "wire_events",
    "decode_events",
    "error_payload",
    "error_code",
]

HEADER = struct.Struct(">I")

#: default ceiling on one frame's JSON body; a service can lower it
#: (``ServiceConfig.max_frame_bytes``) but frames above this are always
#: refused — the length prefix is attacker-controlled input
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(obj: Mapping[str, Any]) -> bytes:
    """One wire frame for ``obj`` (length prefix + compact JSON)."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(body)) + body


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameTooLargeError` when the length prefix exceeds
    ``max_bytes`` (without reading the body) and
    :class:`ProtocolError` on truncation, invalid JSON, or a non-object
    payload.
    """
    framed = await read_frame_with_size(reader, max_bytes)
    return None if framed is None else framed[0]


async def read_frame_with_size(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[dict, int] | None:
    """Like :func:`read_frame` but also returns the body's byte length —
    the service's in-flight feed accounting is denominated in wire
    bytes, the thing the length prefix already measures."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of "
            f"{HEADER.size} bytes)"
        ) from None
    (length,) = HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds the service's limit of "
            f"{max_bytes} bytes; split the batch into smaller frames"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{length} bytes)"
        ) from None
    try:
        obj = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj, len(body)


async def write_frame(writer: asyncio.StreamWriter, obj: Mapping[str, Any]) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# -- event encoding ------------------------------------------------------------


def wire_events(events: Iterable[Any]) -> list[list]:
    """Engine-side events (JTuple / Insert / Delete) -> wire triples."""
    out: list[list] = []
    for ev in events:
        if isinstance(ev, Insert):
            out.append(["+", ev.tuple.schema.name, list(ev.tuple.values)])
        elif isinstance(ev, Delete):
            out.append(["-", ev.tuple.schema.name, list(ev.tuple.values)])
        elif isinstance(ev, JTuple):
            out.append(["+", ev.schema.name, list(ev.values)])
        else:
            raise ProtocolError(
                f"cannot encode feed event {ev!r}; expected a JTuple, "
                "Insert, or Delete"
            )
    return out


def decode_events(schemas: Mapping[str, Any], triples: Iterable[Any]) -> list:
    """Wire triples -> engine events against ``schemas`` (table name ->
    :class:`~repro.core.schema.TableSchema`), each tuple built by
    :meth:`~repro.core.schema.TableSchema.from_row`.  Unknown tables,
    malformed triples and values that do not fit their fields are
    refused *before* anything is admitted."""
    out: list = []
    for i, triple in enumerate(triples):
        if (
            not isinstance(triple, (list, tuple))
            or len(triple) != 3
            or triple[0] not in ("+", "-")
            or not isinstance(triple[2], (list, tuple))
        ):
            raise ProtocolError(
                f"feed event #{i} is not an ['+'|'-', table, values] "
                f"triple: {triple!r}"
            )
        op, table, values = triple
        schema = schemas.get(table)
        if schema is None:
            raise UnknownTableError(
                f"feed event #{i} names unknown table {table!r}"
            )
        try:
            tup = schema.from_row(values)
        except SchemaError as exc:
            raise ProtocolError(f"feed event #{i}: {exc}") from None
        out.append(Insert(tup) if op == "+" else Delete(tup))
    return out


# -- error mapping -------------------------------------------------------------

#: engine-error wire codes (the service relays these verbatim so a
#: client can tell an admission refusal from a retraction misuse)
_ENGINE_CODES = (
    (CausalityError, "admission"),
    (RetractionError, "retraction"),
    (UnknownTableError, "unknown-table"),
    (EngineError, "engine"),
)


def error_code(exc: BaseException) -> tuple[str, bool]:
    """The wire ``(code, retryable)`` pair for an exception."""
    if isinstance(exc, ServiceError):
        return exc.code, exc.retryable
    for klass, code in _ENGINE_CODES:
        if isinstance(exc, klass):
            return code, False
    if isinstance(exc, JStarError):
        return "engine", False
    return "internal", False


def error_payload(request_id: Any, exc: BaseException) -> dict:
    """The structured error response for ``exc``."""
    code, retryable = error_code(exc)
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": str(exc), "retryable": retryable},
    }
