"""Versioned on-disk checkpoints of an engine session.

A snapshot is one JSON document carrying everything an
:class:`~repro.core.session.EngineSession` needs to resume mid-stream:
the Gamma tables (row-for-row, in scan order), the pending Delta set
(in causal walk order, so re-insertion reproduces the deterministic pop
order), the high-water mark, the run output so far, the statistics
collector, the aggregate cost meter, the strategy's replayable state
(chaos RNG, machine accounts), and the trace events when tracing is on.

What is **not** serialised — by design:

* rule bodies and store factories: they are code.  ``restore`` takes
  the same :class:`~repro.core.program.Program` (and options) the
  snapshot was taken under, and refuses to proceed when the program
  name or any table schema disagrees with the snapshot;
* stores that opt out (``supports_checkpoint() -> False``, e.g. the
  ring-semantics two-iteration array store): their contents are
  arrival-order dependent in ways a row dump cannot reproduce, so
  ``snapshot`` raises :class:`~repro.core.errors.SchemaError` rather
  than silently writing an unsound checkpoint.

Version policy: ``version`` is bumped on any change to the document
layout; ``restore`` accepts exactly the version it was built with and
raises :class:`~repro.core.errors.EngineError` otherwise — snapshots
are resume points, not an archival format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

from repro.core.errors import EngineError
from repro.core.ordering import Timestamp
from repro.core.query import Query, QueryKind
from repro.core.support import FiringRecord
from repro.core.tuples import JTuple
from repro.trace.events import TraceEvent

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "build_snapshot", "restore_session"]

SNAPSHOT_FORMAT = "jstar-session-snapshot"
#: version 2 added the ``support`` section (retraction mode); version 3
#: added the optional ``extra`` section (opaque caller metadata, e.g.
#: the session service's per-tenant durability record); version 4
#: dropped the three deferred-tally sections (the collector holds every
#: count the moment it happens) and stores the collector's maps, not
#: the totals derived from them.  Earlier versions are refused like any
#: other version mismatch
SNAPSHOT_VERSION = 4
#: the session's own counters (``EngineSession._<name>``), as the
#: ``session`` section lists them
_SESSION_CURSORS = ("out_cursor", "fed_since_settle", "fires_seen", "puts_seen")


def _plain(value: Any) -> Any:
    """JSON-safe form of a value: numpy scalars become Python scalars,
    tuples become lists (restore re-tuples where structure demands it)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def _encode_timestamp(ts: Timestamp | None) -> dict | None:
    if ts is None:
        return None
    return {"key": _plain(ts.key), "display": _plain(ts.display)}


def _decode_timestamp(d: dict | None) -> Timestamp | None:
    if d is None:
        return None
    key = tuple(tuple(comp) for comp in d["key"])
    return Timestamp(key=key, display=tuple(d["display"]))


def _encode_tuple(t: JTuple) -> list:
    return [t.schema.name, _plain(list(t.values))]


def _encode_support(k) -> dict | None:
    """The retraction support index, or None when the session does not
    track support.  Query ``where`` closures are code and cannot be
    serialised; they are flagged ``opaque`` and restored as ``None``,
    which makes the restored query match a superset — conservative for
    grown-result invalidation (it can only kill *more* firings, never
    miss one)."""
    sup = k._support
    if sup is None:
        return None
    firings = []
    for fid in sorted(sup.firings):
        rec = sup.firings[fid]
        firings.append(
            {
                "fid": fid,
                "rule": rec.rule_name,
                "rule_index": rec.rule_index,
                "trigger": _encode_tuple(rec.trigger),
                "reads": [_encode_tuple(t) for t in rec.reads],
                "puts": [_encode_tuple(t) for t in rec.puts],
                "lines": list(rec.lines),
                "native": sorted(rec.native),
                "queries": [
                    {
                        "table": q.schema.name,
                        "kind": q.kind.value,
                        "eq": [[i, _plain(v)] for i, v in sorted(q.eq.items())],
                        "ranges": [
                            [i, [_plain(lo), _plain(hi), li, hi2]]
                            for i, (lo, hi, li, hi2) in sorted(q.ranges.items())
                        ],
                        "opaque": q.where is not None,
                    }
                    for q in rec.queries
                ],
            }
        )
    return {
        "next_fid": sup.next_fid,
        "base": [_encode_tuple(t) for t in sorted(sup.base, key=repr)],
        "retracted_base": [
            _encode_tuple(t) for t in sorted(sup.retracted_base, key=repr)
        ],
        "refire": [_encode_tuple(t) for t in sorted(k._refire, key=repr)],
        "firings": firings,
    }


def _restore_support(k, data: dict, schemas) -> None:
    """Rebuild the support index and the keyed output from the snapshot.
    Output keys are *recomputed* (they derive from trigger timestamps,
    which the restored database reproduces), so the keyed output list is
    rebuilt from the firings rather than trusted from the document."""
    sup = k._support
    tup = lambda enc: JTuple(schemas[enc[0]], tuple(enc[1]))  # noqa: E731
    sup.base = {tup(e) for e in data.get("base", [])}
    sup.retracted_base = {tup(e) for e in data.get("retracted_base", [])}
    k._refire = {tup(e) for e in data.get("refire", [])}
    opaque_restored = False
    entries: list[tuple[tuple, str, FiringRecord, int]] = []
    for f in data.get("firings", []):
        trigger = tup(f["trigger"])
        rec = FiringRecord(f["rule"], int(f["rule_index"]), trigger, k.db.timestamp(trigger))
        rec.fid = int(f["fid"])
        rec.reads = {tup(e): None for e in f.get("reads", [])}
        rec.puts = tuple(tup(e) for e in f.get("puts", []))
        rec.lines = tuple(str(s) for s in f.get("lines", []))
        rec.native = set(f.get("native", []))
        for q in f.get("queries", []):
            if q.get("opaque"):
                opaque_restored = True
            rec.queries.append(
                Query(
                    schemas[q["table"]],
                    {int(i): v for i, v in q.get("eq", [])},
                    {
                        int(i): (lo, hi, bool(li), bool(hi2))
                        for i, (lo, hi, li, hi2) in q.get("ranges", [])
                    },
                    None,
                    QueryKind(q.get("kind", "positive")),
                )
            )
        sup.register_restored(rec)
        for j, (key, line) in enumerate(zip(k._output_keys(rec), rec.lines)):
            entries.append((key, line, rec, j))
    sup.next_fid = int(data.get("next_fid", 0))
    entries.sort(key=lambda e: e[0])
    k._out_keys = [key for key, _line, _rec, _j in entries]
    k.output[:] = [line for _key, line, _rec, _j in entries]
    per_rec: dict[int, list] = {}
    for key, line, rec, _j in entries:
        per_rec.setdefault(rec.fid, []).append((key, line))
    for fid, pairs in per_rec.items():
        sup.firings[fid].out_lines = tuple(pairs)
    if opaque_restored:
        k.stats.note(
            "restore.opaque-where",
            "restored support records carry opaque where-clauses "
            "(code cannot be serialised); grown-result invalidation will "
            "conservatively over-invalidate their firings"
        )


def build_snapshot(session, extra: Any = None) -> dict:
    """The snapshot document for one open session (pure read).

    ``extra`` is an opaque JSON-serialisable value stored verbatim under
    the ``extra`` key and ignored by :func:`restore_session` — the
    session service uses it to persist per-tenant durability metadata
    (applied feed sequence numbers) *atomically* with the engine state
    it describes, so a crash can never separate the two."""
    k = session.kernel
    schemas = k.program.schemas()
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "extra": _plain(extra),
        "program": k.program.name,
        "schemas": {name: list(s.field_names) for name, s in schemas.items()},
        "strategy": k.strategy.name,
        "threads": k.strategy.n_threads,
        "steps": k.steps,
        "high_water": _encode_timestamp(k.high_water),
        "output": list(k.output),
        "tables": _plain(k.db.dump_tables()),
        "delta": [_encode_tuple(t) for t in k.delta.dump()],
        "quarantined": [_encode_tuple(t) for t in k.quarantined],
        "retention": {name: _plain(ent[2:4]) for name, ent in k._retention.items()},
        "support": _encode_support(k),
        "stats": k.stats.to_state(),
        "meter": k.meter.to_state(),
        "strategy_state": k.strategy.state_dict(),
        "trace": (
            None
            if k.tracer is None
            else {"step": k.tracer.step, "events": [e.to_json() for e in k.tracer.events]}
        ),
        "session": {
            **{name: getattr(session, "_" + name) for name in _SESSION_CURSORS},
            "wall": f"{session._wall:017.6f}",  # measured: fixed width, size follows inputs
        },
    }


def _load_payload(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(source)


def restore_session(cls, source, program, options=None, strategy=None):
    """Rebuild a live session from a snapshot (see
    :meth:`EngineSession.restore`)."""
    payload = _load_payload(source)
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise EngineError(
            f"not a session snapshot (format tag {payload.get('format')!r}, "
            f"expected {SNAPSHOT_FORMAT!r})"
        )
    if payload.get("version") != SNAPSHOT_VERSION:
        raise EngineError(
            f"snapshot version {payload.get('version')!r} is not the "
            f"supported version {SNAPSHOT_VERSION}; snapshots are resume "
            "points, not an archival format — re-run the producer with a "
            "matching build"
        )
    if payload.get("program") != program.name:
        raise EngineError(
            f"snapshot was taken from program {payload.get('program')!r}, "
            f"not {program.name!r}"
        )
    schemas = program.schemas()
    snap_schemas = payload.get("schemas", {})
    live_schemas = {name: list(s.field_names) for name, s in schemas.items()}
    if snap_schemas != live_schemas:
        raise EngineError(
            "snapshot table schemas disagree with the supplied program; "
            "restore needs the exact program the snapshot was taken from"
        )

    session = cls(program, options, strategy)
    k = session.kernel
    if k.strategy.name != payload.get("strategy") or k.strategy.n_threads != payload.get(
        "threads"
    ):
        raise EngineError(
            f"snapshot was taken under strategy "
            f"{payload.get('strategy')!r} with {payload.get('threads')} "
            f"thread(s); restore built {k.strategy.name!r} with "
            f"{k.strategy.n_threads} — pass matching options"
        )

    k.db.load_tables(payload.get("tables", {}))
    for name, values in payload.get("delta", []):
        tup = JTuple(schemas[name], tuple(values))
        k.delta.insert(tup, k.db.timestamp(tup))
    k.quarantined = [
        JTuple(schemas[name], tuple(values))
        for name, values in payload.get("quarantined", [])
    ]
    for name, tail in payload.get("retention", {}).items():
        ent = k._retention.get(name)
        if ent is not None:
            ent[2], ent[3] = tail[0], tail[1]
    k.stats.load_state(payload.get("stats", {}))
    k.meter.load_state(payload.get("meter", {}))
    k.strategy.load_state(payload.get("strategy_state", {}))
    k.steps = int(payload.get("steps", 0))
    k.high_water = _decode_timestamp(payload.get("high_water"))
    k.output[:] = [str(line) for line in payload.get("output", [])]
    support = payload.get("support")
    if (support is not None) != (k._support is not None):
        raise EngineError(
            "snapshot retraction state disagrees with the restore options: "
            + (
                "the snapshot carries a support index but "
                "ExecOptions(retraction=True) was not passed"
                if support is not None
                else "ExecOptions(retraction=True) was passed but the "
                "snapshot has no support index"
            )
        )
    if support is not None:
        _restore_support(k, support, schemas)
    trace = payload.get("trace")
    if k.tracer is not None:
        if trace is not None:
            k.tracer.events = [TraceEvent.from_json(e) for e in trace["events"]]
            k.tracer.step = int(trace["step"])
        else:
            k.stats.note(
                "restore.trace-from-snapshot",
                "restored with tracing on from a snapshot taken without a "
                "trace; the restored trace starts at the snapshot point"
            )
            k.emit_run_start()
            k.tracer.step = int(payload.get("steps", 0))

    sess_state = payload.get("session", {})
    for name in _SESSION_CURSORS:
        setattr(session, "_" + name, int(sess_state.get(name, 0)))
    session._wall = float(sess_state.get("wall", 0.0))
    # the run-start event (when traced) is already in the restored
    # trace; mark the session live without re-emitting it
    session._opened = True
    return session
