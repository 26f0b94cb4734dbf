"""Rules and the rule-execution context.

A rule is the paper's ``foreach`` construct: it is *triggered* by each
tuple of one table, may query the Gamma database, and ``put``s new
tuples (§3).  Rule bodies here are plain Python callables
``body(ctx, trigger_tuple)`` — the analogue of the generated Java rule
methods — but they interact with the world only through the
:class:`RuleContext`, which

* records every ``put`` (the engine applies them after the body runs,
  so a body can never observe its own effects — matching the paper's
  semantics where puts land in the Delta set);
* serves queries against the read-only Gamma snapshot;
* meters abstract cost for the virtual-time machine;
* enforces the law of causality dynamically (puts must not travel into
  the past; negative/aggregate queries must be about the fixed past)
  when the engine runs with ``causality_check != "off"``.

Every rule has symbolic metadata (``meta``), derived from its body's
source by :mod:`repro.plan.analyse` and consumed by the static causality
prover in :mod:`repro.solver`, the index planner and the locality
checker; that is the analogue of the paper's compiler handing each
rule's puts and queries to the SMT solvers (§4).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.errors import (
    CausalityError,
    RuleError,
    StratificationWarning,
    UnsafeOperationError,
)
from repro.core.ordering import Lit, OrderDecls, Seq, Timestamp, compare_timestamps
from repro.core.query import Query, QueryKind
from repro.core.reducers import Reducer, reduce_all
from repro.core.tuples import JTuple, TableHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.database import Database
    from repro.exec.metering import CostMeter
    from repro.plan.cache import PlanCache
    from repro.plan.compile import CompiledQueryPlan

__all__ = ["Rule", "RuleContext", "query_upper_bound"]

RuleBody = Callable[["RuleContext", JTuple], None]


class Rule:
    """One ``foreach`` rule.

    Parameters
    ----------
    name:
        Diagnostic name (defaults to the body function's name).
    trigger:
        The table whose tuples fire this rule.
    body:
        ``body(ctx, tup)``.
    unsafe:
        Allows side-effecting context operations (file I/O); mirrors the
        paper's 'unsafe' system-rule blocks (§1.2 footnote).
    meta:
        An override for the rule's symbolic description
        (:class:`repro.solver.obligations.RuleMeta`).  Without one,
        :attr:`meta` is derived from the body's source on first read.
    assume_stratified:
        Suppresses dynamic negative-query warnings for this rule — the
        analogue of the programmer accepting an SMT warning after
        manual reasoning/invariants (§4).
    """

    __slots__ = (
        "name", "trigger", "body", "unsafe", "assume_stratified",
        "_meta", "_analysis",
    )

    def __init__(
        self,
        trigger: TableHandle,
        body: RuleBody,
        name: str | None = None,
        unsafe: bool = False,
        meta: Any = None,
        assume_stratified: bool = False,
    ):
        self.trigger = trigger
        self.body = body
        self.name = name or getattr(body, "__name__", "<rule>")
        self.unsafe = unsafe
        self.assume_stratified = assume_stratified
        self._meta = meta
        self._analysis = None

    def analysis(self):
        """The body's :class:`~repro.plan.analyse.BodyAnalysis` — its
        query and put sites, read off the source once per rule."""
        if self._analysis is None:
            from repro.plan.analyse import analyse_rule  # local: plan imports us

            self._analysis = analyse_rule(self)
        return self._analysis

    @property
    def meta(self):
        """What the static passes read: the ``meta=`` override when one
        was given, else the metadata derived from the body — ``None``
        when analysis refuses (``analysis().refusal`` says why)."""
        return self._meta if self._meta is not None else self.analysis().meta

    def __repr__(self) -> str:
        tag = " unsafe" if self.unsafe else ""
        return f"<rule {self.name} foreach({self.trigger.name}){tag}>"


def query_upper_bound(
    query: Query, decls: OrderDecls
) -> tuple[Timestamp, bool] | None:
    """Best-effort upper bound on the timestamps a query can observe.

    Returns ``(ts, strict)`` where ``strict`` means the real bound is
    strictly below ``ts`` (an exclusive range closed the deciding
    level), or ``None`` when the constraints leave some ``seq`` level
    unbounded — in that case the dynamic checker cannot adjudicate and
    defers to the static prover / ``assume_stratified``.
    """
    key: list[tuple] = []
    display: list[Any] = []
    strict = False
    from repro.core.ordering import KIND_LIT, KIND_PAR, KIND_SEQ  # local: avoid cycle noise

    for entry in query.schema.orderby:
        if isinstance(entry, Lit):
            key.append((KIND_LIT, decls.rank(entry.name)))
            display.append(entry.name)
        elif isinstance(entry, Seq):
            pos = query.schema.field_position(entry.field)
            if pos in query.eq:
                key.append((KIND_SEQ, query.eq[pos]))
                display.append(query.eq[pos])
            elif pos in query.ranges:
                lo, hi, lo_inc, hi_inc = query.ranges[pos]
                if hi is None:
                    return None
                key.append((KIND_SEQ, hi))
                display.append(hi)
                strict = not hi_inc
                break  # later levels cannot raise the bound past this one
            else:
                return None
        else:  # Par level: all values equivalent, contributes nothing
            key.append((KIND_PAR,))
            display.append("*")
    return Timestamp(tuple(key), tuple(display)), strict


def _literal_levels_declared(a: Timestamp, b: Timestamp, decls: OrderDecls) -> bool:
    """True iff the first level at which ``a`` and ``b`` differ is not a
    literal pair that lacks an explicit ``order`` declaration.

    The runtime's Delta tree totalises undeclared literals arbitrarily
    (deterministic but meaningless), so a causality argument resting on
    such a pair is unsound — the missing-``order`` situation of §6.1.
    """
    from repro.core.ordering import KIND_LIT

    names = None
    for ca, cb in zip(a.key, b.key):
        if ca == cb:
            continue
        if ca[0] == KIND_LIT and cb[0] == KIND_LIT:
            if names is None:
                names = decls.literals()
            try:
                return decls.comparable(names[ca[1]], names[cb[1]])
            except IndexError:  # pragma: no cover - defensive
                return False
        return True  # first difference is a value level: fine
    return True  # equal or prefix-related: no literal decision involved


class RuleContext:
    """Execution context handed to a rule body for one firing."""

    __slots__ = (
        "_db",
        "_decls",
        "_meter",
        "_rule",
        "trigger",
        "trigger_ts",
        "puts",
        "output",
        "_check_mode",
        "_adjudicate",
        "_finished",
        "_neg_warned",
        "_ts_ok",
        "_lock",
        "_sched",
        "_trace",
        "_plans",
        "_record",
    )

    def __init__(
        self,
        db: "Database",
        decls: OrderDecls,
        meter: "CostMeter",
        rule: Rule,
        trigger: JTuple,
        trigger_ts: Timestamp,
        plans: "PlanCache",
        check_mode: str = "warn",
        lock: Any = None,
        scheduler: Any = None,
        trace: list | None = None,
        record: Any = None,
    ):
        self._db = db
        self._decls = decls
        self._meter = meter
        self._rule = rule
        self.trigger = trigger
        self.trigger_ts = trigger_ts
        self.puts: list[JTuple] = []
        self.output: list[str] = []
        self._check_mode = check_mode
        # adjudication of negative/aggregate queries is settled per
        # firing; hot paths branch on this instead of calling into the
        # checker just to return
        self._adjudicate = check_mode != "off" and not rule.assume_stratified
        self._finished = False
        self._neg_warned = False
        # identity of the last timestamp object that passed the put
        # causality check — a table with a constant orderby shares one
        # timestamp object, so a rule's consecutive puts into it
        # present the same object again
        self._ts_ok = None
        self._lock = lock
        # strategy yield hook: called at every put/query boundary so a
        # perturbing strategy (chaos) can interleave or fault the body
        self._sched = scheduler
        # per-task trace event sink (flushed by the engine in
        # deterministic submission order)
        self._trace = trace
        # compiled query plans shared across all firings of this run
        self._plans = plans
        # retraction mode: FiringRecord accumulating this firing's
        # Gamma footprint (reads, query shapes, native tables)
        self._record = record

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> None:
        self._finished = True

    def _guard(self) -> None:
        if self._finished:
            raise RuleError(
                f"rule {self._rule.name} used its context after completion"
            )

    # -- effects ------------------------------------------------------------

    def put(self, tup: JTuple) -> None:
        """Add a tuple to the database (via the Delta set).

        Enforces the law of causality: the new tuple's timestamp must
        not precede the trigger's (§4: "rules can affect the future,
        but they are not allowed to change the past").
        """
        self._guard()
        if self._sched is not None:
            self._sched()
        if not isinstance(tup, JTuple):
            raise RuleError(f"put expects a tuple, got {type(tup).__name__}")
        if self._trace is not None:
            self._trace.append(
                (
                    "put",
                    {
                        "rule": self._rule.name,
                        "table": tup.schema.name,
                        "tuple": repr(tup),
                    },
                )
            )
        if self._check_mode != "off":
            ts = self._db.timestamp(tup)
            if ts is not self._ts_ok:
                if compare_timestamps(ts, self.trigger_ts) < 0:
                    raise CausalityError(
                        f"rule {self._rule.name} put {tup!r} (ts {ts}) into the "
                        f"past of its trigger {self.trigger!r} (ts {self.trigger_ts})"
                    )
                self._ts_ok = ts
        self._meter.charge("tuple_put")
        self.puts.append(tup)

    def println(self, *args: Any) -> None:
        """Debug printing (§6.2 footnote 8: side-effecting, tolerated in
        rules for tracing; the kosher route is putting Println tuples).
        Output is captured into the run result, keeping runs pure."""
        self._guard()
        self.output.append(" ".join(str(a) for a in args))

    def charge(self, n: float, counter: str = "user_work") -> None:
        """Explicitly meter abstract work for an inner loop (the
        analogue of real computation inside a generated Java rule)."""
        self._meter.charge(counter, n=1, cost=n)

    def charge_shared(self, resource: str, cost: float) -> None:
        """Mark part of this task's work as serialising on a shared
        machine resource (``"membw"`` for dense-array streaming,
        ``"gamma:<Table>"`` for a shared structure).  Rules using the
        ``ctx.native`` bulk path charge their memory traffic this way,
        since no store-op metering sees those writes — it is what bends
        Fig 11 past ~20 cores."""
        self._guard()
        self._meter.charge_shared(resource, cost)

    def io_allowed(self) -> None:
        """Raise unless this rule was declared ``unsafe``."""
        if not self._rule.unsafe:
            raise UnsafeOperationError(
                f"rule {self._rule.name} attempted I/O but is not declared unsafe"
            )

    def native(self, table: TableHandle):
        """Direct access to a table's Gamma store — the 'native arrays'
        escape hatch (§6.4/§6.6): unsafe rules may read/write a
        :class:`~repro.gamma.nativearray.NativeArrayStore`'s numpy
        arrays in bulk, bypassing per-tuple ``put`` (the analogue of
        generated Java writing primitive arrays).  The rule must be
        declared ``unsafe`` because this steps outside the immutable
        tuple discipline; it remains deterministic as long as writes
        target slices owned by this rule's trigger (par-partitioned
        regions), which is the invariant the Median program maintains."""
        self._guard()
        self.io_allowed()
        if self._record is not None:
            # bulk writes are invisible to per-tuple support tracking:
            # remember the table so retraction can taint-clear it
            self._record.native.add(table.schema.name)
        return self._db.store(table)

    # -- queries ------------------------------------------------------------

    def _causal_filter(self, results: list[JTuple]) -> list[JTuple]:
        """Restrict query results to the firing's causal past.

        Forward execution keeps the invariant "Gamma holds only tuples
        at or below the current class", so this filter never drops
        anything there.  Under retraction, a repair drain travels below
        the old frontier while Gamma still holds later-derived tuples a
        scratch run could not have seen at this timestamp — a refired
        non-monotonic rule observing them diverges from the scratch
        recompute.  Hiding tuples ordered strictly after the trigger's
        class restores scratch-equivalent visibility (same-class tuples
        stay visible: phase A lands the whole class before phase B
        fires it).
        """
        if not results:
            return results
        ts_of = self._db.timestamp
        tts = self.trigger_ts
        return [t for t in results if compare_timestamps(ts_of(t), tts) <= 0]

    def _run_planned(self, plan: "CompiledQueryPlan", query: Query) -> list[JTuple]:
        """Serve one query — every ``get``-family method funnels
        through here, on every tier and every node: this class has no
        subclass.  The access path (on a shard, including where the
        rows live) and metering tags were resolved when the shape
        compiled, so per firing this is one prepared select plus flat
        counter bumps."""
        if self._sched is not None:
            self._sched()
        ps = plan.prepared
        if self._lock is not None:
            # real-threads strategy: coarse lock so store iteration never
            # races a -noDelta cascade insert (functional validation only)
            with self._lock:
                results = ps.run(query)
        else:
            results = ps.run(query)
        if self._record is not None:
            results = self._causal_filter(results)
        n = len(results)
        self._meter.charge_planned(ps, n)
        hit = plan.rule_hits.get(self._rule.name)
        if hit is None:
            plan.rule_hits[self._rule.name] = [1, n]
        else:
            hit[0] += 1
            hit[1] += n
        if self._trace is not None:
            self._trace.append(
                (
                    "query",
                    {
                        "rule": self._rule.name,
                        "table": plan.table_name,
                        "kind": query.kind.value,
                        "n_results": len(results),
                    },
                )
            )
        if self._record is not None:
            self._record.note_query(query, results)
        return results

    def _query_past(
        self,
        table: TableHandle,
        prefix: tuple,
        where: Callable[[JTuple], bool] | None,
        ranges: Mapping[str, Any] | None,
        eq: Mapping[str, Any],
        kind: QueryKind,
    ) -> list[JTuple]:
        """A negative/aggregate query: the dynamic slice of the §4 law
        (its observable region must lie strictly before the trigger,
        checked against the shape's precompiled bound), then the
        select."""
        plan, q = self._plans.lookup(table, prefix, where, ranges, eq, kind)
        if self._adjudicate:
            bound = plan.bound.evaluate(q) if plan.bound is not None else None
            self._adjudicate_negative(bound, kind.value, plan.table_name)
        return self._run_planned(plan, q)

    def _adjudicate_negative(
        self,
        bound: tuple[Timestamp, bool] | None,
        kind_value: str,
        table_name: str,
    ) -> None:
        ok: bool | None
        if bound is None:
            ok = None  # cannot adjudicate dynamically
        else:
            ts, strict = bound
            if not _literal_levels_declared(ts, self.trigger_ts, self._decls):
                # the deciding literal pair is only ordered by the
                # arbitrary totalisation, not by the programmer's order
                # declarations — the §6.1 missing-`order` scenario
                ok = None
            else:
                c = compare_timestamps(ts, self.trigger_ts)
                ok = c < 0 or (c == 0 and strict)
        if ok is None:
            if not self._neg_warned:
                self._neg_warned = True
                warnings.warn(
                    f"rule {self._rule.name}: {kind_value} query on "
                    f"{table_name} has no statically bounded timestamp; "
                    f"stratification not verified dynamically",
                    StratificationWarning,
                    stacklevel=4,
                )
        elif not ok:
            msg = (
                f"rule {self._rule.name}: {kind_value} query on "
                f"{table_name} can observe the present/future of its "
                f"trigger (ts {self.trigger_ts}) — violates local stratification"
            )
            if self._check_mode == "strict":
                raise CausalityError(msg)
            if not self._neg_warned:
                self._neg_warned = True
                warnings.warn(msg, StratificationWarning, stacklevel=4)

    def get(
        self,
        table: TableHandle,
        *prefix: Any,
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> list[JTuple]:
        """Positive query: all matching tuples (``get T(args)``)."""
        self._guard()
        plan, q = self._plans.lookup(
            table, prefix, where, ranges, eq, QueryKind.POSITIVE
        )
        return self._run_planned(plan, q)

    def get_uniq(
        self,
        table: TableHandle,
        *prefix: Any,
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> JTuple | None:
        """``get uniq? T(args)``: the unique match or ``None``.

        Observing *absence* is a negative query for causality purposes,
        so this is checked as NEGATIVE.  More than one match raises.
        """
        self._guard()
        results = self._query_past(
            table, prefix, where, ranges, eq, QueryKind.NEGATIVE
        )
        if len(results) > 1:
            raise RuleError(
                f"get uniq? {table.name} matched {len(results)} tuples"
            )
        return results[0] if results else None

    def exists(self, table: TableHandle, *prefix: Any, **kw: Any) -> bool:
        """Positive existence test."""
        return bool(self.get(table, *prefix, **kw))

    def absent(
        self,
        table: TableHandle,
        *prefix: Any,
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> bool:
        """Negative query: true iff *no* tuple matches."""
        self._guard()
        return not self._query_past(
            table, prefix, where, ranges, eq, QueryKind.NEGATIVE
        )

    def get_min(
        self,
        table: TableHandle,
        *prefix: Any,
        by: str,
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> JTuple | None:
        """``get min T(args)``: matching tuple minimising field ``by``
        (an aggregate query)."""
        self._guard()
        results = self._query_past(
            table, prefix, where, ranges, eq, QueryKind.AGGREGATE
        )
        if not results:
            return None
        pos = table.schema.field_position(by)
        return min(results, key=lambda t: t.values[pos])

    def count(
        self,
        table: TableHandle,
        *prefix: Any,
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> int:
        """Aggregate count of matching tuples."""
        self._guard()
        return len(
            self._query_past(table, prefix, where, ranges, eq, QueryKind.AGGREGATE)
        )

    def reduce(
        self,
        table: TableHandle,
        *prefix: Any,
        reducer: Reducer,
        value: Callable[[JTuple], Any],
        where: Callable[[JTuple], bool] | None = None,
        ranges: Mapping[str, Any] | None = None,
        **eq: Any,
    ) -> Any:
        """Aggregate reduction over matching tuples — the Fig 4 pattern
        ``for (record : get PvWatts(...)) stats += record.power``."""
        self._guard()
        results = self._query_past(
            table, prefix, where, ranges, eq, QueryKind.AGGREGATE
        )
        self._meter.charge("reduce_op", n=len(results))
        return reduce_all(reducer, (value(t) for t in results))

    def par_reduce(
        self,
        values: Iterable[Any],
        reducer: Reducer,
        chunks: int = 8,
        cost_per_item: float = 0.3,
    ) -> Any:
        """§5.2's reducer-loop extension: "Loops that do involve a
        reducer object could also be executed in parallel, with a
        tree-based pass to combine the final reducer results."

        Folds ``values`` chunk-wise and combines the partials in a
        balanced tree (results identical to the sequential fold up to
        float reassociation, guaranteed by the reducer's ``combine``
        law), while metering the loop's cost as *divisible* so the
        virtual fork/join machine spreads it over cores.
        """
        self._guard()
        from repro.core.reducers import tree_reduce

        vals = list(values)
        chunks = max(1, min(chunks, len(vals))) if vals else 1
        size = (len(vals) + chunks - 1) // chunks if vals else 0
        chunked = [vals[i * size : (i + 1) * size] for i in range(chunks)] if vals else []
        result, _depth = tree_reduce(reducer, chunked)
        self._meter.charge_parallel(cost_per_item * len(vals), chunks)
        return result

    def par_loop(self, items: Iterable[Any]) -> Iterable[Any]:
        """Mark a loop body as independent (no reducer), the §5.2
        "embarrassingly parallel for loops within rules" hook.  The
        current all-minimums strategy runs it sequentially — exactly
        like the paper's implementation — but the marker lets the
        metering layer account the loop's parallel potential."""
        self._guard()
        return items
