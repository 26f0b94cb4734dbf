"""One tenant of the session service: a wrapped
:class:`~repro.core.session.EngineSession` plus its durability record.

Exactly-once admission across crashes is sequence-numbered: every feed
carries a monotonically increasing ``seq``.  The tenant applies a feed
only when ``seq == last_seq + 1`` — a lower ``seq`` is acknowledged as
a duplicate without touching the engine (so client replay after a
restart is idempotent), a gap is refused (a lost feed must not be
papered over).

Durable state is a base snapshot plus a write-ahead log (DESIGN §5.5).
``feed`` and ``settle`` append their op to an in-memory open
transaction; a durable point (:meth:`TenantSession.checkpoint`) fsyncs
it as **one JSON line** of ``feed.log`` before the reply, so a settle
pays for what was fed, not for what is stored.  A complete line is a
committed transaction; a torn tail was never acknowledged.  The log is
*compacted* into ``snapshot.json`` — engine state and the ``last_seq``
it covers as one atomic document — at the first durable point and
before it outgrows ``max(COMPACT_FLOOR_BYTES, last snapshot)``.  Restart
restores the snapshot, replays every complete line through the ordinary
``feed`` / ``settle`` and tells the client which ``seq`` is durable; the
client replays everything after it.

All methods that touch the engine are synchronous and must be
serialised per tenant — the service runs them on its executor under a
per-tenant lock.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

from repro.core.errors import JStarError, ProtocolError, TenantClosedError
from repro.core.session import EngineSession
from repro.serve.protocol import decode_events
from repro.serve.registry import ProgramEntry

__all__ = ["TenantSession", "valid_tenant_id", "TENANT_ID_PATTERN"]

#: tenant ids become directory names; anything else is refused
TENANT_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

#: a tenant directory's two durable files
SNAPSHOT_FILE, LOG_FILE = "snapshot.json", "feed.log"
#: the log is compacted before it outgrows max(this, the last snapshot)
COMPACT_FLOOR_BYTES = 64 * 1024
#: the shortest wire triple, ``["+","T",[]]``: what an event adds to a
#: log line at least, so an open transaction is weighed without encoding
MIN_EVENT_BYTES = 12
#: the tenant's own counters, as its ``stats`` payload lists them
STATS_FIELDS = (
    "last_seq", "durable_seq", "fed_tuples", "quarantined_tuples", "settles",
    "checkpoints", "compactions", "log_bytes", "snapshot_bytes", "replayed_feeds",
    "opened_at", "last_active",
)


def valid_tenant_id(tenant: object) -> str:
    if not isinstance(tenant, str) or not TENANT_ID_PATTERN.fullmatch(tenant):
        raise ProtocolError(
            f"invalid tenant id {tenant!r}; tenant ids are 1-64 chars of "
            "[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return tenant


def _fsync_dir(path: Path) -> None:
    """Make renames and creations inside ``path`` survive power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class TenantSession:
    """A live tenant: engine session + sequence/durability bookkeeping."""

    def __init__(
        self,
        tenant: str,
        entry: ProgramEntry,
        overrides: dict | None,
        data_dir: Path | None,
        session: EngineSession,
        *,
        last_seq: int = 0,
        fed_tuples: int = 0,
        settles: int = 0,
    ):
        self.tenant = tenant
        self.entry = entry
        self.overrides = dict(overrides or {})
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.session = session
        self.last_seq = last_seq            # last feed applied to the engine
        self.durable_seq = last_seq         # last feed covered by a durable point
        self.fed_tuples = fed_tuples
        self.quarantined_tuples = 0
        self.settles = settles
        self.checkpoints = 0                # durable points
        #: the open transaction: ops applied since the last durable point.
        #: None = not recorded (no data dir, or dropped for its size)
        self._txn: list | None = [] if data_dir is not None else None
        self._txn_events = 0
        self.log_bytes = 0
        self.snapshot_bytes = 0             # 0 = no base to log against yet
        self.compactions = 0
        self.durable_bytes = 0              # log lines + snapshots written
        self.replayed_feeds = 0
        self.opened_at = time.time()
        self.last_active = self.opened_at

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        tenant: str,
        entry: ProgramEntry,
        overrides: dict | None,
        data_dir: Path | None,
    ) -> "TenantSession":
        options = entry.build_options(overrides)
        session = EngineSession(entry.program, options).open()
        return cls(tenant, entry, overrides, data_dir, session)

    @classmethod
    def restore_from_disk(
        cls, tenant: str, entry: ProgramEntry, data_dir: Path
    ) -> "TenantSession":
        """Rebuild a tenant from its base snapshot (engine state and the
        ``last_seq`` it covers come from one atomic document) plus a
        replay of its log.  A failure touches no file."""
        tdir = cls.tenant_dir(data_dir, tenant)
        snap, log = tdir / SNAPSHOT_FILE, tdir / LOG_FILE
        if not snap.exists():
            raise ProtocolError(f"{log} extends a snapshot that is gone (byte 0)")
        text = snap.read_text()
        doc = json.loads(text)
        extra = doc.get("extra") or {}
        if extra.get("tenant") != tenant:
            raise ProtocolError(
                f"checkpoint at {snap} belongs to tenant "
                f"{extra.get('tenant')!r}, not {tenant!r}"
            )
        if extra.get("program") != entry.name:
            raise ProtocolError(
                f"tenant {tenant!r} was opened on program "
                f"{extra.get('program')!r}, not {entry.name!r}"
            )
        overrides = extra.get("overrides") or {}
        options = entry.build_options(overrides)
        session = EngineSession.restore(doc, entry.program, options)
        restored = cls(
            tenant,
            entry,
            overrides,
            data_dir,
            session,
            last_seq=int(extra.get("last_seq", 0)),
            fed_tuples=int(extra.get("fed_tuples", 0)),
            settles=int(extra.get("settles", 0)),
        )
        # no log (a crash before the first compaction created it):
        # snapshot_bytes stays 0 and the next durable point compacts
        if log.exists():
            restored.snapshot_bytes = len(text)
            try:
                restored._replay(log)
            except BaseException as exc:
                session.__exit__(type(exc), exc, None)  # release the strategy
                raise
        return restored

    def _replay(self, log: Path) -> None:
        """Re-apply every complete line, then cut the torn tail.  Ops
        the snapshot covers (a compaction crashed between its replace
        and its truncate) fall to the duplicate rule."""
        data = log.read_bytes()
        base_seq, offset = self.last_seq, 0
        # what follows the last newline was never fsynced, so never acked
        for raw in data.split(b"\n")[:-1]:
            try:
                for op in json.loads(raw)["ops"]:
                    if op[0] == "feed":
                        self.feed(op[3], op[1], op[2])
                    elif op[0] != "settle" or op[1] > self.settles + 1:
                        raise ProtocolError(f"op {op[:2]} does not follow settle {self.settles}")
                    elif op[1] > self.settles:
                        self.settle()
            except (ValueError, LookupError, TypeError, JStarError) as exc:
                raise ProtocolError(
                    f"{log} cannot be replayed at byte {offset}: {exc}"
                ) from exc
            offset += len(raw) + 1
        if offset < len(data):
            os.truncate(log, offset)
        self.log_bytes = offset
        self.replayed_feeds = self.last_seq - base_seq
        self._txn, self._txn_events = [], 0  # replayed ops are durable already
        self.durable_seq = self.last_seq

    @staticmethod
    def tenant_dir(data_dir: Path, tenant: str) -> Path:
        return Path(data_dir) / tenant

    @classmethod
    def has_durable_state(cls, data_dir: Path | None, tenant: str) -> bool:
        """A snapshot to restore, or a log that must not be started over."""
        if data_dir is None:
            return False
        tdir = cls.tenant_dir(data_dir, tenant)
        return (tdir / SNAPSHOT_FILE).exists() or (tdir / LOG_FILE).exists()

    # -- verbs (sync; run on the service executor under the tenant lock) ------

    def _require_live(self) -> None:
        if self.session.closed:
            raise TenantClosedError(
                f"tenant {self.tenant!r} session is closed"
            )

    def feed(self, triples: list, seq: int | None, deletes_only: bool = False) -> dict:
        """Apply one sequenced feed.  Returns the wire payload."""
        self._require_live()
        self.last_active = time.time()
        if seq is None:
            seq = self.last_seq + 1
        elif not isinstance(seq, int) or seq < 1:
            raise ProtocolError(f"feed seq must be a positive integer, got {seq!r}")
        if seq <= self.last_seq:
            # a replay of an already-applied feed: acknowledge without
            # touching the engine — this is what makes client replay
            # after a crash idempotent
            return {
                "seq": seq,
                "duplicate": True,
                "admitted": 0,
                "quarantined": 0,
                "last_seq": self.last_seq,
                "durable_seq": self.durable_seq,
            }
        if seq != self.last_seq + 1:
            raise ProtocolError(
                f"feed seq {seq} leaves a gap: tenant {self.tenant!r} has "
                f"applied up to seq {self.last_seq}; feeds must arrive in "
                "order (replay from durable_seq + 1 after a restart)"
            )
        events = decode_events(self.session.program.schemas(), triples)
        if deletes_only:
            from repro.core.delta import Insert

            bad = [i for i, ev in enumerate(events) if isinstance(ev, Insert)]
            if bad:
                raise ProtocolError(
                    f"retract verb accepts only '-' events; events "
                    f"{bad} are inserts (use feed for mixed batches)"
                )
        report = self.session.feed(events, source=f"<{self.tenant}:{seq}>")
        self.last_seq = seq
        self.fed_tuples += report.admitted
        self.quarantined_tuples += len(report.quarantined)
        if self._txn is not None:  # a list append: nothing is encoded here
            self._txn.append(["feed", seq, deletes_only, triples])
            self._txn_events += len(triples)
            if self._txn_events * MIN_EVENT_BYTES > self._log_limit():
                # too big to ever be logged: holding it would be unbounded
                # memory when no durable point comes.  The next one compacts
                self._txn = None
        return {
            "seq": seq,
            "duplicate": False,
            "admitted": report.admitted,
            "quarantined": len(report.quarantined),
            "last_seq": self.last_seq,
            "durable_seq": self.durable_seq,
        }

    def settle(self, checkpoint_every: int = 0) -> dict:
        """Settle and, every ``checkpoint_every`` settles of a durable
        tenant, reach a durable point in the same call."""
        self._require_live()
        self.last_active = time.time()
        result = self.session.settle()
        self.settles += 1
        if self._txn is not None:
            self._txn.append(["settle", self.settles])
        payload = {
            "settle": self.settles,
            "steps": result.steps,
            "output": list(result.output),
            "engine_wall": result.wall_time,
        }
        if checkpoint_every and self.data_dir and self.settles % checkpoint_every == 0:
            payload["durable_seq"] = self.checkpoint()["durable_seq"]
        return payload

    def _log_limit(self) -> int:
        return max(COMPACT_FLOOR_BYTES, self.snapshot_bytes)

    def checkpoint(self, compact: bool = False) -> dict:
        """A durable point: everything applied so far is on disk when
        this returns — as one fsynced log line, or as a compaction when
        asked for, when there is no base snapshot yet, when the open
        transaction was dropped or when the line would outgrow the log."""
        self._require_live()
        if self.data_dir is None:
            raise ProtocolError(
                "this service runs without a data directory; snapshots "
                "are disabled"
            )
        line = None
        if not compact and self._txn is not None and self.snapshot_bytes:
            txn = {"seq": self.last_seq, "settles": self.settles, "ops": self._txn}
            line = json.dumps(txn, separators=(",", ":")).encode() + b"\n"
        if line is None or self.log_bytes + len(line) > self._log_limit():
            self._compact()
        else:
            with open(self.tenant_dir(self.data_dir, self.tenant) / LOG_FILE, "ab") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            self.log_bytes += len(line)
            self.durable_bytes += len(line)
        self._txn, self._txn_events = [], 0
        self.durable_seq = self.last_seq
        self.checkpoints += 1
        return {"durable_seq": self.durable_seq, "checkpoints": self.checkpoints}

    def _compact(self) -> None:
        """Fold the log into a fresh base snapshot.  The directory is
        fsynced after the replace — the rename and the log's creation
        must not sit in the page cache behind an acked durable point —
        and only then is the log cut."""
        tdir = self.tenant_dir(self.data_dir, self.tenant)
        if not tdir.exists():
            tdir.mkdir(parents=True)
            _fsync_dir(tdir.parent)
        tmp = tdir / (SNAPSHOT_FILE + ".tmp")
        text = json.dumps(self.session.snapshot(extra=self._extra()))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, tdir / SNAPSHOT_FILE)
        with open(tdir / LOG_FILE, "ab") as log:
            _fsync_dir(tdir)
            log.truncate(0)
        self.snapshot_bytes = len(text)
        self.log_bytes = 0
        self.compactions += 1
        self.durable_bytes += len(text)

    def _extra(self) -> dict:
        return {
            "tenant": self.tenant,
            "program": self.entry.name,
            "overrides": dict(self.overrides),
            "last_seq": self.last_seq,
            "fed_tuples": self.fed_tuples,
            "settles": self.settles,
        }

    def close(self) -> dict:
        """Close the engine session and reap the durable state: a closed
        tenant is finished, not restartable."""
        self._require_live()
        result = self.session.close()
        if self.data_dir is not None:
            tdir = self.tenant_dir(self.data_dir, self.tenant)
            try:
                for name in (SNAPSHOT_FILE, SNAPSHOT_FILE + ".tmp", LOG_FILE):
                    (tdir / name).unlink(missing_ok=True)
                tdir.rmdir()
            except OSError:
                pass  # someone else's files in the dir: leave them
        return {
            "output": list(result.output),
            "steps": result.steps,
            "table_sizes": dict(sorted(result.table_sizes.items())),
            "fed_tuples": self.fed_tuples,
            "settles": self.settles,
        }

    def stats(self) -> dict:
        """The ``stats`` verb payload: the engine's collector view plus
        the service-side per-tenant counters (:data:`STATS_FIELDS`).
        The collector's query side is settle-consistent — each
        ``settle`` folds the plans' counts — so nothing is flushed here."""
        return {
            "tenant": self.tenant,
            "program": self.entry.name,
            "strategy": self.session.options.strategy,
            "retraction": self.session.options.retraction,
            **{name: getattr(self, name) for name in STATS_FIELDS},
            "engine": self.session.stats.as_dict(),
        }
