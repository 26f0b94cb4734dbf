"""Support tracking for incremental view maintenance (retraction).

When a session runs with ``ExecOptions(retraction=True)``, the kernel
records one :class:`FiringRecord` per rule firing: the trigger, every
Gamma tuple the firing read, the structural shape of every query it
ran, the tuples it put and the output lines it printed.  The
:class:`SupportIndex` aggregates those records into the counting-based
support relation of classic incremental Datalog maintenance:

* ``support[t]`` — the set of firings that derived tuple ``t``.  A
  derived tuple stays in Gamma while at least one live firing supports
  it (counting); when the last supporting firing dies the tuple is
  over-deleted and its own dependents are visited in turn.
* ``readers[t]`` / ``triggered[t]`` — the firings whose *inputs*
  include ``t``, used to find the dependent cone of a deleted fact.
* ``footprints`` — recorded query footprints, keyed the way
  ``plan.indexplan`` keys Gamma (table, eq-bound columns, eq values),
  used for grown-result invalidation: when a *new* tuple with a smaller
  timestamp appears (a DRed rederivation descending below an already
  -fired frontier), any earlier firing whose recorded query would have
  matched it computed its result from incomplete data and must be
  re-run.

The repair loop itself (over-delete, rederive) lives in the kernel;
this module is pure bookkeeping, which is also what serialises into a
session snapshot.
"""

from __future__ import annotations

from repro.core.ordering import Timestamp
from repro.core.query import Query
from repro.core.tuples import JTuple

__all__ = ["FiringRecord", "SupportIndex"]


class FiringRecord:
    """The Gamma footprint of one rule firing.

    ``reads`` is an insertion-ordered set of every tuple any query
    returned; ``queries`` keeps a structural copy of each query shape
    (negative/aggregate shapes matter even with no results: they define
    what *absence* the firing observed).  ``out_lines`` pairs each
    printed line with its deterministic output key, assigned at
    registration time; ``trigger_ts`` caches the trigger's timestamp.
    """

    __slots__ = (
        "rule_name",
        "rule_index",
        "trigger",
        "trigger_ts",
        "reads",
        "queries",
        "puts",
        "lines",
        "native",
        "fid",
        "out_lines",
    )

    def __init__(self, rule_name: str, rule_index: int, trigger: JTuple, trigger_ts: Timestamp):
        self.rule_name = rule_name
        self.rule_index = rule_index
        self.trigger = trigger
        self.trigger_ts = trigger_ts
        self.reads: dict[JTuple, None] = {}
        self.queries: list[Query] = []
        self.puts: tuple[JTuple, ...] = ()
        self.lines: tuple[str, ...] = ()
        self.native: set[str] = set()
        self.fid: int = -1
        self.out_lines: tuple[tuple[tuple, str], ...] = ()

    def note_query(self, q: Query, results: list[JTuple]) -> None:
        """Record one query's shape and results.  The query is copied
        structurally (eq/ranges dicts) because plan-cache queries may be
        reused across firings."""
        self.queries.append(Query(q.schema, dict(q.eq), dict(q.ranges), q.where, q.kind))
        for t in results:
            self.reads[t] = None

    def __repr__(self) -> str:
        return (
            f"<firing #{self.fid} {self.rule_name} on {self.trigger!r}: "
            f"{len(self.reads)} reads, {len(self.puts)} puts>"
        )


def _footprint_key(q: Query) -> tuple[tuple[int, ...], tuple]:
    """A recorded query's place in :attr:`SupportIndex.footprints`: its
    eq-bound columns and their values.  An unhashable eq value cannot be
    probed for, so such a query joins the always-candidate ``()`` bucket."""
    cols = tuple(sorted(q.eq))
    vals = tuple(q.eq[c] for c in cols)
    try:
        hash(vals)
    except TypeError:
        return (), ()
    return cols, vals


class SupportIndex:
    """All live firings plus the inverted indexes the repair loop needs."""

    __slots__ = (
        "next_fid",
        "firings",
        "base",
        "retracted_base",
        "support",
        "readers",
        "triggered",
        "live",
        "footprints",
        "native_users",
    )

    def __init__(self) -> None:
        self.next_fid = 0
        #: fid -> FiringRecord, every live firing
        self.firings: dict[int, FiringRecord] = {}
        #: externally asserted facts (never need support)
        self.base: set[JTuple] = set()
        #: base facts that were deleted — duplicate deletes are no-ops
        self.retracted_base: set[JTuple] = set()
        #: derived tuple -> fids of the firings that put it
        self.support: dict[JTuple, set[int]] = {}
        #: tuple -> fids whose queries returned it
        self.readers: dict[JTuple, set[int]] = {}
        #: tuple -> fids it triggered
        self.triggered: dict[JTuple, set[int]] = {}
        #: (rule_index, trigger) -> fid — at most one live firing per
        #: rule/trigger pair (set semantics); doubles as the
        #: duplicate-delivery defence
        self.live: dict[tuple[int, JTuple], int] = {}
        #: table name -> eq-bound columns -> eq values -> {fid: [recorded
        #: queries]}; eq-free queries sit under the ``()`` columns
        self.footprints: dict[str, dict[tuple, dict[tuple, dict[int, list[Query]]]]] = {}
        #: table name -> fids that touched it through ctx.native()
        self.native_users: dict[str, set[int]] = {}

    # -- registration ------------------------------------------------------

    def register(self, rec: FiringRecord) -> int:
        """Index a fresh firing; assigns its fid."""
        rec.fid = self.next_fid
        self.next_fid += 1
        self.register_restored(rec)
        return rec.fid

    def register_restored(self, rec: FiringRecord) -> None:
        """Index a firing that already carries its fid (snapshot restore
        path; also the tail of :meth:`register`)."""
        fid = rec.fid
        self.firings[fid] = rec
        self.live[(rec.rule_index, rec.trigger)] = fid
        self.triggered.setdefault(rec.trigger, set()).add(fid)
        for t in rec.reads:
            self.readers.setdefault(t, set()).add(fid)
        for t in rec.puts:
            self.support.setdefault(t, set()).add(fid)
        for q in rec.queries:
            cols, vals = _footprint_key(q)
            by_vals = self.footprints.setdefault(q.schema.name, {}).setdefault(cols, {})
            by_vals.setdefault(vals, {}).setdefault(fid, []).append(q)
        for name in rec.native:
            self.native_users.setdefault(name, set()).add(fid)

    def unregister(self, fid: int) -> FiringRecord | None:
        """Drop a dead firing from every index (empty entries are
        cleaned up so the maps do not accrete)."""
        rec = self.firings.pop(fid, None)
        if rec is None:
            return None
        key = (rec.rule_index, rec.trigger)
        if self.live.get(key) == fid:
            del self.live[key]
        trig = self.triggered.get(rec.trigger)
        if trig is not None:
            trig.discard(fid)
            if not trig:
                del self.triggered[rec.trigger]
        for t in rec.reads:
            rd = self.readers.get(t)
            if rd is not None:
                rd.discard(fid)
                if not rd:
                    del self.readers[t]
        for t in rec.puts:
            sup = self.support.get(t)
            if sup is not None:
                sup.discard(fid)
                if not sup:
                    del self.support[t]
        for q in rec.queries:
            cols, vals = _footprint_key(q)
            by_cols = self.footprints.get(q.schema.name, {})
            by_vals = by_cols.get(cols, {})
            bucket = by_vals.get(vals)
            if bucket is None:
                continue  # an earlier query of this firing emptied it
            bucket.pop(fid, None)
            if not bucket:
                del by_vals[vals]
                if not by_vals:
                    del by_cols[cols]
                    if not by_cols:
                        del self.footprints[q.schema.name]
        for name in rec.native:
            users = self.native_users.get(name)
            if users is not None:
                users.discard(fid)
                if not users:
                    del self.native_users[name]
        return rec

    def candidates(self, tup: JTuple) -> dict[int, list[Query]]:
        """The firings whose recorded queries ``tup`` could match, with
        those queries: one bucket probed per eq-signature of its table
        with the tuple's own values — a query it fails on an eq column
        cannot match it; the ``()`` signature is always probed."""
        values = tup.values
        found: dict[int, list[Query]] = {}
        for cols, by_vals in self.footprints.get(tup.schema.name, {}).items():
            bucket = by_vals.get(tuple([values[c] for c in cols]))
            if bucket:
                for fid, queries in bucket.items():
                    found.setdefault(fid, []).extend(queries)
        return found

    def query_fids(self, table: str) -> set[int]:
        """Every live firing with a recorded query on ``table``."""
        by_cols = self.footprints.get(table, {})
        return {f for by_vals in by_cols.values() for b in by_vals.values() for f in b}

    def __len__(self) -> int:
        return len(self.firings)

    def __repr__(self) -> str:
        return (
            f"<SupportIndex {len(self.firings)} firings, "
            f"{len(self.base)} base facts, {len(self.support)} derived>"
        )
