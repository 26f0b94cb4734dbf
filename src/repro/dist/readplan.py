"""Read plans: the rows of other shards a firing will ask for, known
before it fires.

§4's compiler plans a rule's reads "because it sees the source"; so
does :mod:`repro.plan.analyse`, and this is the first run-time reader
of the :class:`~repro.solver.obligations.RuleMeta` it derives.  Per
query site, a :class:`SitePlan` computes the equality key from the
trigger's fields, or from the fields of rows an enclosing ``for``
iterates — the *generator*, re-read from the equalities its loop
variable is known under (``edge.src == trig.vertex``).  Every other path
condition is dropped, so a plan over-fetches.  It is advisory: a
:class:`~repro.dist.superstep.Shard` reads whatever no plan predicted
through the same call, one probe at a time.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import SolverError
from repro.core.query import Query, QueryKind
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.dist.placement import Partitioned, PlacementMap
from repro.solver.obligations import RuleMeta
from repro.solver.terms import Rel, Term

__all__ = ["SitePlan", "read_plan"]


def _getter(term: Term, known: set[str]) -> Callable[[dict], object] | None:
    """How ``term`` is computed from the values of ``known`` variables;
    None when it mentions any other — an opaque expression."""
    if not term.variables() <= known:
        return None
    if term.constant == 0 and list(term.coeffs.values()) == [1]:
        (name,) = term.coeffs
        return lambda env: env[name]  # the field's own value, type and all

    def value(env: dict):
        x = term.evaluate(env)
        return int(x) if x.denominator == 1 else float(x)

    return value


def _variables(schema: TableSchema, fields: dict[str, Term]) -> dict[str, int]:
    """Variable name -> position, for a tuple variable's numeric fields."""
    return {next(iter(t.coeffs)): schema.field_position(f) for f, t in fields.items()}


class SitePlan:
    """One query site: the placement's ``verdict`` for its shape —
    ``local`` too, and ``colocated``, when it binds the partition field
    to the trigger's own partition value (a firing's node is its
    trigger's home) — and how :meth:`keys` predicts its probes, unless
    ``reason`` says why not: ``opaque-key`` or ``generator-not-local``."""

    __slots__ = (
        "query", "schema", "pos", "verdict", "colocated", "reason", "_trig", "_loops", "_key"
    )

    def keys(self, trigger: JTuple, read: Callable[[Query], list[JTuple]]) -> list[tuple]:
        """The site's equality keys (values in ``pos`` order) for one
        trigger.  ``read`` yields a generator query's rows, or nothing
        where this node does not hold them all; a value outside linear
        arithmetic (a NaN, a None) predicts nothing."""
        envs = [{name: trigger.values[p] for name, p in self._trig}]
        try:
            for schema, eqs, names in self._loops:
                envs = [
                    {**env, **{name: row.values[p] for name, p in names}}
                    for env in envs
                    for row in read(
                        Query(schema, {p: g(env) for p, g in eqs}, {}, None, QueryKind.POSITIVE)
                    )
                ]
            return [tuple(g(env) for g in self._key) for env in envs]
        except (SolverError, ArithmeticError, ValueError, TypeError):
            return []


def read_plan(
    rule, placements: PlacementMap, verdict: Callable[[TableSchema, tuple], str] | None = None
) -> list[SitePlan]:
    """One :class:`SitePlan` per query site of ``rule``, in body order
    (none when the body's analysis refused).  ``verdict(schema, eq
    positions)`` is ``placements.query_verdict`` unless the caller
    keeps its own."""
    meta = rule.meta
    if not isinstance(meta, RuleMeta):
        return []
    if verdict is None:
        verdict = lambda schema, pos: placements.query_verdict(  # noqa: E731
            schema.name, [schema.field_names[i] for i in pos]
        )
    trig = _variables(meta.trigger_schema, meta.trigger)
    at = placements[meta.trigger_schema.name]
    home = meta.trigger.get(at.field) if isinstance(at, Partitioned) else None
    sites: list[SitePlan] = []
    for branch in meta.branches:
        for q in branch.queries:
            s = SitePlan()
            s.query, s.schema, s._trig = q, q.schema, list(trig.items())
            s.pos = tuple(sorted(q.schema.field_position(f) for f in q.bound))
            s.verdict = verdict(s.schema, s.pos)
            place = placements[s.schema.name]
            s.colocated = (
                s.verdict == "routed"
                and home is not None
                and isinstance(place, Partitioned)
                and q.bound[place.field] == home
            )
            if s.colocated:
                s.verdict = "local"
            s.reason = None
            known, s._loops = set(trig), []
            for schema, fields in branch.bindings:
                mine = _variables(schema, fields)
                eqs = {}
                for c in branch.when:
                    inside = [v for v in c.term.coeffs if v in mine]
                    if c.rel == Rel.EQ and len(inside) == 1:
                        # k·v + rest == 0 under known values: v = -rest / k
                        k = c.term.coeffs[inside[0]]
                        get = _getter((Term({inside[0]: k}) - c.term) * (1 / k), known)
                        if get is None:  # an under-constrained generator over-reads
                            s.reason = s.reason or "opaque-key"
                        else:
                            eqs[mine[inside[0]]] = get
                if verdict(schema, tuple(sorted(eqs))) == "broadcast":
                    s.reason = s.reason or "generator-not-local"
                s._loops.append((schema, sorted(eqs.items()), list(mine.items())))
                known.update(mine)
            names = q.schema.field_names
            s._key = [_getter(q.bound[names[p]], known) for p in s.pos]
            if None in s._key:
                s.reason = s.reason or "opaque-key"
            sites.append(s)
    return sites
