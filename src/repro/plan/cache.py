"""The per-engine plan cache.

This is the paper's "the compiler knows the query shapes" advantage
(§5) recovered at runtime: the generated Java rule methods embed their
queries' field positions and data-structure access paths at compile
time, while our interpreted ``RuleContext`` re-derived them on every
firing.  The :class:`PlanCache` closes that gap:

* each distinct call shape — ``(schema, kind, #positional, named eq
  fields, range forms)`` — compiles once into a
  :class:`~repro.plan.compile.CompiledQueryPlan`;
* prepared selects are memoised separately by *constraint positions*,
  so e.g. a POSITIVE ``get`` and a NEGATIVE ``absent`` on the same
  fields share one resolved access path — resolved by the one function
  the cache is built with: the table's own
  :meth:`~repro.gamma.base.TableStore.prepare` on a single node, a
  shard's routed prepare (:class:`repro.dist.superstep.Shard`) on a
  cluster, so *where* a shape's rows live is part of its access path
  and no reader of a plan can tell.

Nothing is resolved ahead of the first call: the scalar tier compiles a
shape when a rule first asks for it, the codegen tier when it binds the
rule's driver — so building a kernel reads no rule body.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.query import Query, QueryKind, build_query
from repro.gamma.base import PreparedSelect
from repro.plan.compile import CompiledQueryPlan, range_form

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.database import Database
    from repro.core.program import Program
    from repro.core.tuples import TableHandle

__all__ = ["PlanCache"]


class PlanCache:
    """Compiled query plans for one engine run (one database)."""

    __slots__ = ("_decls", "_plans", "_prepare", "_prepared")

    def __init__(
        self,
        db: "Database",
        program: "Program",
        prepare: Callable[[Query], PreparedSelect] | None = None,
    ):
        self._decls = program.decls
        #: shape probe -> access path; the only place a plan meets a store
        self._prepare = prepare or (lambda q: db.store(q.schema.name).prepare(q))
        self._plans: dict[tuple, CompiledQueryPlan] = {}
        # (schema, frozenset eq positions, frozenset range positions)
        # -> PreparedSelect; shared across kinds and call styles
        self._prepared: dict[tuple, PreparedSelect] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def plans(self):
        """All compiled plans, in first-compilation order."""
        return self._plans.values()

    def _prepared_for(self, probe: Query) -> PreparedSelect:
        pkey = (probe.schema, frozenset(probe.eq), frozenset(probe.ranges))
        prepared = self._prepared.get(pkey)
        if prepared is None:
            prepared = self._prepared[pkey] = self._prepare(probe)
        return prepared

    # -- the per-call entry point -----------------------------------------

    def lookup(
        self,
        table: "TableHandle",
        prefix: tuple,
        where,
        ranges: Mapping[str, Any] | None,
        eq: Mapping[str, Any],
        kind: QueryKind,
    ) -> tuple[CompiledQueryPlan, Query]:
        """The plan for this call shape (compiling on first sight) and
        the concrete query for this call's values."""
        schema = table.schema
        if ranges:
            rsig = tuple((n, range_form(s)) for n, s in ranges.items())
        else:
            rsig = ()
        key = (schema, kind, len(prefix), tuple(eq) if eq else (), rsig)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._compile(table, prefix, where, ranges, eq, kind)
            self._plans[key] = plan
        return plan, plan.build(prefix, eq, ranges, where)

    def _compile(
        self, table, prefix, where, ranges, eq, kind
    ) -> CompiledQueryPlan:
        # the generic builder runs once so its validation (unknown
        # fields, twice-constrained, eq+range conflicts) still applies
        probe = build_query(table, *prefix, where=where, ranges=ranges, kind=kind, **eq)
        return CompiledQueryPlan(probe, ranges, self._decls, self._prepared_for(probe))
