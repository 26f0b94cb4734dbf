"""The retraction layer: support tracking and the repair it drives.

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
* ``footprints`` — recorded query footprints, keyed by (table,
  eq-bound columns, eq values), used for grown-result invalidation:
  when a *new* tuple with a smaller timestamp appears (a DRed
  rederivation descending below an already-fired frontier), any earlier
  firing whose recorded query would have matched it computed its result
  from incomplete data and must be re-run.

The index is also the whole of retraction mode's behaviour: the repair
loop (over-delete, rederive, grown-result invalidation), the triggers
queued for refiring, the keyed output and the index's snapshot section
all live here.  The kernel reaches it through five hooks, and only when
``StepKernel._support`` is not None:

* feed — :meth:`SupportIndex.check` on every event before any applies,
  then :meth:`SupportIndex.insert` / :meth:`SupportIndex.delete` in
  order;
* phase A — :meth:`SupportIndex.prepare` inserts the popped class and
  returns each trigger's final refire/dead flags;
* after phase B — :meth:`SupportIndex.record` indexes the step's
  firings and files their output lines by key.

All repair runs in those sequential phases, so it is deterministic and
identical under every strategy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable

from repro.core.database import InsertOutcome
from repro.core.errors import KeyInvariantError, RetractionError
from repro.core.ordering import Timestamp, compare_timestamps, output_keys
from repro.core.query import Query, QueryKind
from repro.core.snapshot import _decode_tuple, _encode_tuple, _plain
from repro.core.tuples import JTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepKernel
    from repro.exec.base import TaskResult

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


def _keyed_lines(rec: FiringRecord) -> tuple[tuple[tuple, str], ...]:
    """The lines one firing printed, each with its output key.  Sorting
    by these keys reproduces the causal append order whenever at most
    one firing per equivalence class prints (true of every example app:
    output goes through println tables with singleton classes)."""
    keys = output_keys(rec.trigger_ts, rec.trigger, rec.rule_index, len(rec.lines))
    return tuple(zip(keys, rec.lines))


class SupportIndex:
    """All live firings, the inverted indexes over them, and the repair
    loop and keyed output of one retraction-mode kernel."""

    def __init__(self, kernel: "StepKernel") -> None:
        self.kernel = kernel
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
        #: triggers re-enqueued by DRed rederivation: fire their rules
        #: again even though the Gamma insert is a duplicate
        self._refire: set[JTuple] = set()
        #: tuples a repair cascade killed during the current phase A
        #: (None outside it)
        self._dead_step: set[JTuple] | None = None
        #: sort keys parallel to ``kernel.output``: every line is keyed
        #: so a retracted line can be removed exactly
        self._out_keys: list[tuple] = []

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

    # -- feed hooks --------------------------------------------------------
    #
    # The §4 high-water admission gate does not apply to a retraction
    # feed: support tracking subsumes it.  A tuple below the mark would
    # invalidate negative/aggregate answers already computed — which is
    # exactly what grown-result invalidation detects and repairs when
    # the tuple's class is popped, so every insert is admissible.  The
    # price is repair work proportional to the firings that observed the
    # late tuple's absence.

    def check(self, tup: JTuple, delete: bool, fed: dict[JTuple, bool]) -> None:
        """Check one feed event before any event of the feed applies.
        ``fed`` maps each tuple an earlier event of the same feed
        inserted (True) or deleted (False), so a delete after an insert
        of the same fact is valid.  Raises :class:`RetractionError` when
        a delete names no base fact; a delete of an already-retracted
        fact passes (a no-op: chaos duplicate-delivery tolerance)."""
        if not delete:
            fed[tup] = True
            return
        if tup not in fed and tup not in self.base and tup not in self.retracted_base:
            k = self.kernel
            if tup in self.support or tup in k.db or tup in k.delta:
                raise RetractionError(
                    f"cannot delete {tup!r}: it is a derived tuple, not a "
                    "base fact — only externally fed facts can be retracted"
                )
            raise RetractionError(
                f"cannot delete {tup!r}: it was never inserted as a base fact"
            )
        fed[tup] = False

    def insert(self, tup: JTuple) -> None:
        """A fed insert asserts ``tup`` as a base fact (again, after a
        delete of it); the kernel enqueues it like any fed tuple."""
        self.base.add(tup)
        self.retracted_base.discard(tup)

    def delete(self, tup: JTuple) -> None:
        """Retract one checked base fact.  Counting keeps a fact live
        firings still derive; otherwise it leaves Gamma with its
        dependent cone, or leaves Delta if it was still pending."""
        if tup not in self.base:
            return  # already retracted: a duplicate delete
        self.base.discard(tup)
        self.retracted_base.add(tup)
        if self.support.get(tup):
            return
        k = self.kernel
        if tup in k.db:
            self._over_delete([tup])
        elif tup in k.delta:
            k.delta.remove(tup, k.db.timestamp(tup))
            if k.tracer is not None:
                k.tracer.emit("retract", {"tuple": repr(tup), "pending": True})
            k.stats.retractions += 1

    # -- step hooks --------------------------------------------------------

    def prepare(
        self, batch: list[JTuple]
    ) -> list[tuple[JTuple, InsertOutcome, bool, bool]]:
        """Phase A under retraction: insert the class and return each
        trigger's (outcome, refire, dead), with grown-result
        invalidation and stale-key repair interleaved — all sequential,
        so cascades triggered by one tuple are visible to every later
        tuple of the same class."""
        dead = self._dead_step = set()
        prepared: list[tuple[JTuple, InsertOutcome, bool]] = []
        for tup in batch:
            refire = tup in self._refire
            self._refire.discard(tup)
            prepared.append((tup, self._insert(tup, dead), refire))
        self._dead_step = None
        # the dead set is final here: a trigger a later tuple's repair
        # killed is flagged dead too, and fires nothing in phase B
        return [(t, o, r, t in dead) for t, o, r in prepared]

    def _insert(self, tup: JTuple, dead: set[JTuple]) -> InsertOutcome:
        """One trigger's Gamma insert in phase A: a duplicate when it is
        already there or a repair killed it."""
        db = self.kernel.db
        if tup in dead or tup in db:
            return InsertOutcome.DUPLICATE
        self._invalidate_grown(tup, db.timestamp(tup))
        if tup in dead:
            return InsertOutcome.DUPLICATE
        try:
            return db.insert(tup)
        except KeyInvariantError:
            # a rederivation replacing a key's binding: the old binding
            # must be stale *derived* state — kill its supporters and
            # retry.  A conflict with a live base fact is a genuine
            # invariant violation.
            store = db.store(tup.schema.name)
            existing = store.lookup_key(tup.key())
            fids = self.support.get(existing) if existing is not None else None
            if existing is None or existing in self.base or not fids:
                raise
            self._over_delete([], seed_fids=sorted(fids))
            if store.lookup_key(tup.key()) is not None:
                raise
        return InsertOutcome.DUPLICATE if tup in dead else db.insert(tup)

    def record(self, results: "list[TaskResult]") -> None:
        """After phase B: index the step's firings in submission order
        (fids — and thus repair order — are deterministic across
        strategies) and file the lines they printed into the kernel's
        output under their keys.  A live (rule, trigger) entry means a
        duplicate delivery already registered the firing — skip it."""
        live = self.live
        for r in results:
            for rec in r.firings:
                if (rec.rule_index, rec.trigger) in live:
                    continue
                self.register(rec)
                if rec.lines:
                    rec.out_lines = _keyed_lines(rec)
                    for key, line in rec.out_lines:
                        self._insert_output(key, line)

    # -- repair ------------------------------------------------------------
    #
    # Classic incremental Datalog maintenance, specialised to the
    # all-minimums engine: counting for the non-recursive case (a
    # derived tuple lives while any firing supports it), DRed-style
    # over-delete/rederive for the recursive case, plus one engine
    # -specific repair — *grown-result invalidation* — for rederivations
    # that descend below an already-fired frontier.

    def _invalidate_grown(self, tup: JTuple, ts: Timestamp) -> None:
        """A NEW tuple whose timestamp lies strictly below an already
        -fired trigger means that trigger's firing queried a region that
        has since *grown* — only possible during repair (forward insert
        -only runs never descend below the frontier).  Any firing whose
        recorded query on this table would have matched the newcomer
        computed its result from incomplete data: kill it so it refires
        against the repaired state.  Equal-timestamp firings are safe —
        phase A inserts the whole class before phase B fires it."""
        stats = self.kernel.stats
        stats.grown_checks += 1
        candidates = self.candidates(tup)
        if not candidates:
            return
        stats.grown_candidates += len(candidates)
        doomed: list[int] = []
        for fid in sorted(candidates):
            rec = self.firings[fid]
            if tup in rec.reads or tup == rec.trigger:
                continue
            if compare_timestamps(ts, rec.trigger_ts) >= 0:
                continue
            if any(q.matches(tup) for q in candidates[fid]):
                doomed.append(fid)
        if doomed:
            stats.grown_doomed += len(doomed)
            self._over_delete([], seed_fids=doomed)

    def _over_delete(
        self, seed_tuples: list[JTuple], seed_fids: Iterable[int] = ()
    ) -> None:
        """DRed over-delete + rederive.  Kills the seed firings and the
        dependent cone of the seed tuples (everything whose support or
        read set transitively touches them), removes the dead tuples
        from Gamma/Delta, retracts their output lines, then re-enqueues
        every surviving trigger of a dead firing so the engine rederives
        what is still justified."""
        k = self.kernel
        db, delta = k.db, k.delta
        dead_fids: dict[int, None] = {}
        dead_tuples: dict[JTuple, None] = {}
        cleared_tables: dict[str, None] = {}
        work: list[JTuple] = []

        def kill(fid: int) -> None:
            if fid in dead_fids or fid not in self.firings:
                return
            dead_fids[fid] = None
            rec = self.firings[fid]
            for name in sorted(rec.native):
                if name in cleared_tables:
                    continue
                # a native bulk write is untracked below table level:
                # the whole table is tainted, so every firing that wrote
                # or read it goes down with this one
                cleared_tables[name] = None
                tainted = self.query_fids(name)
                tainted.update(self.native_users.get(name, ()))
                for ofid in sorted(tainted):
                    kill(ofid)
            for t in rec.puts:
                fids = self.support.get(t)
                if fids is None:
                    continue
                fids.discard(fid)
                if not fids and t not in self.base and t not in dead_tuples:
                    work.append(t)

        for fid in seed_fids:
            kill(fid)
        work.extend(seed_tuples)
        while work:
            t = work.pop()
            if t in dead_tuples or t in self.base:
                continue
            if self.support.get(t):
                continue  # re-supported: counting keeps it alive
            dead_tuples[t] = None
            dependents = set(self.triggered.get(t, ()))
            dependents.update(self.readers.get(t, ()))
            for fid in sorted(dependents):
                kill(fid)

        # apply: drop dead firings (and their printed lines), collect
        # surviving triggers for rederivation
        refire: dict[JTuple, None] = {}
        for fid in dead_fids:
            rec = self.unregister(fid)
            if rec is None:
                continue
            for key, line in rec.out_lines:
                self._remove_output(key, line)
            if rec.trigger not in dead_tuples and rec.trigger not in self.retracted_base:
                refire[rec.trigger] = None
        for name in cleared_tables:
            db.store(name).clear()
        for t in dead_tuples:
            store = db.store(t.schema.name)
            if t in store:
                store.remove(t)
            if t in delta:
                delta.remove(t, db.timestamp(t))
            self._refire.discard(t)
            if self._dead_step is not None:
                self._dead_step.add(t)
            if k.tracer is not None:
                k.tracer.emit("retract", {"tuple": repr(t)})
            k.stats.retractions += 1

        # rederive: every surviving trigger re-enters Delta at its own
        # timestamp; its next delivery re-fires exactly the rules whose
        # firings died (see the kernel's live-skip in _fire_rules)
        for trig in refire:
            if trig in dead_tuples or trig not in db:
                continue
            ts = db.timestamp(trig)
            if delta.insert(trig, ts):
                self._refire.add(trig)
                k.stats.rederivations += 1
                if k.high_water is not None and compare_timestamps(ts, k.high_water) < 0:
                    # the repair legitimately travels below the old
                    # frontier; drain() re-advances the mark as the
                    # rederived region settles again
                    k.high_water = ts

    # -- keyed output ------------------------------------------------------

    def _insert_output(self, key: tuple, line: str) -> None:
        i = bisect_right(self._out_keys, key)
        self._out_keys.insert(i, key)
        self.kernel.output.insert(i, line)

    def _remove_output(self, key: tuple, line: str) -> None:
        output = self.kernel.output
        i = bisect_left(self._out_keys, key)
        while i < len(self._out_keys) and self._out_keys[i] == key:
            if output[i] == line:
                del self._out_keys[i]
                del output[i]
                return
            i += 1

    # -- snapshot section --------------------------------------------------

    def to_state(self) -> dict:
        """The snapshot's ``support`` section.  Query ``where`` closures
        are code and cannot be serialised; they are flagged ``opaque``
        and restored as ``None``, which makes the restored query match a
        superset — conservative for grown-result invalidation (it can
        only kill *more* firings, never miss one)."""
        firings = []
        for fid in sorted(self.firings):
            rec = self.firings[fid]
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
            "next_fid": self.next_fid,
            "base": [_encode_tuple(t) for t in sorted(self.base, key=repr)],
            "retracted_base": [_encode_tuple(t) for t in sorted(self.retracted_base, key=repr)],
            "refire": [_encode_tuple(t) for t in sorted(self._refire, key=repr)],
            "firings": firings,
        }

    def load_state(self, data: dict, schemas) -> None:
        """Rebuild the index and the keyed output from a ``support``
        section, every tuple through the snapshot's checked decoder.
        Output keys are *recomputed* (they derive from trigger
        timestamps, which the restored database reproduces), so the
        kernel's output is rebuilt from the firings rather than trusted
        from the document."""
        k = self.kernel

        def tuples(where: str, encs: list) -> list[JTuple]:
            return [_decode_tuple(schemas, f"support.{where} row #{i}", e)
                    for i, e in enumerate(encs)]

        self.base = set(tuples("base", data.get("base", [])))
        self.retracted_base = set(tuples("retracted_base", data.get("retracted_base", [])))
        self._refire = set(tuples("refire", data.get("refire", [])))
        opaque_restored = False
        entries: list[tuple[tuple, str]] = []
        for n, f in enumerate(data.get("firings", [])):
            trigger = _decode_tuple(schemas, f"support.firings[{n}].trigger", f["trigger"])
            rec = FiringRecord(f["rule"], int(f["rule_index"]), trigger, k.db.timestamp(trigger))
            rec.fid = int(f["fid"])
            rec.reads = dict.fromkeys(tuples(f"firings[{n}].reads", f.get("reads", [])))
            rec.puts = tuple(tuples(f"firings[{n}].puts", f.get("puts", [])))
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
            self.register_restored(rec)
            rec.out_lines = _keyed_lines(rec)
            entries.extend(rec.out_lines)
        self.next_fid = int(data.get("next_fid", 0))
        entries.sort(key=lambda e: e[0])
        self._out_keys = [key for key, _line in entries]
        k.output[:] = [line for _key, line in entries]
        if opaque_restored:
            k.stats.note(
                "restore.opaque-where",
                "restored support records carry opaque where-clauses "
                "(code cannot be serialised); grown-result invalidation will "
                "conservatively over-invalidate their firings"
            )
