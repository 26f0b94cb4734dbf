"""Query AST: positive, negative, unique, min/max and aggregate queries.

Rules inspect the Gamma database through a small set of query forms
taken from the paper's listings:

* ``get T(args)`` — positive query, iterate matching tuples
  (e.g. ``get PvWatts(s.year, s.month)`` in Fig 4);
* ``get uniq? T(args)`` — unique-or-null (``get uniq? Done(edge.to)``
  in Fig 5); observing *absence* makes it a negative query for
  causality purposes;
* ``get min T(args)`` — minimal matching tuple (an aggregate);
* aggregate queries — count / sum / reduce over matching tuples.

A query names a table, equality constraints on a prefix of the fields
(positional, like the listings) or on named fields, optional range
constraints, and an optional residual boolean predicate (the paper's
``[distance < dist.distance]`` lambda).  Gamma stores receive the whole
:class:`Query` and may use whatever parts of it their index supports;
:meth:`Query.matches` is the reference definition of a match.  A store's
read does not interpret it per row: :func:`residual` compiles, once per
query shape, a filter that checks only what the store's access path does
not already guarantee, and :func:`probe_key` the access path's key.

The ``kind`` classification (POSITIVE / NEGATIVE / AGGREGATE) is what
the law of causality cares about (§4): positive queries may look at
timestamps ``≤ T``, negative and aggregate queries only ``< T``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

from repro.core.errors import SchemaError, UnknownFieldError
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple, TableHandle

__all__ = ["QueryKind", "Query", "build_query", "probe_key", "residual"]


class QueryKind(enum.Enum):
    """Causality classification of a query (§4)."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    AGGREGATE = "aggregate"


class Query:
    """A compiled query against one table.

    Attributes
    ----------
    schema:
        The queried table's schema.
    eq:
        Field-index → required value (equality constraints).
    ranges:
        Field-index → ``(lo, hi, lo_inclusive, hi_inclusive)``; ``None``
        bounds are open.  Stores with ordered indexes can use these.
    where:
        Residual predicate ``JTuple -> bool`` or ``None``.
    kind:
        Causality classification.
    """

    __slots__ = ("schema", "eq", "ranges", "where", "kind")

    def __init__(
        self,
        schema: TableSchema,
        eq: dict[int, Any],
        ranges: dict[int, tuple[Any, Any, bool, bool]],
        where: Callable[[JTuple], bool] | None,
        kind: QueryKind,
    ):
        self.schema = schema
        self.eq = eq
        self.ranges = ranges
        self.where = where
        self.kind = kind

    # -- evaluation helpers ------------------------------------------------

    def matches(self, tup: JTuple) -> bool:
        """Full predicate — correct for any store (linear-scan fallback)."""
        values = tup.values
        for idx, want in self.eq.items():
            if values[idx] != want:
                return False
        for idx, (lo, hi, lo_inc, hi_inc) in self.ranges.items():
            v = values[idx]
            if lo is not None and (v < lo or (v == lo and not lo_inc)):
                return False
            if hi is not None and (v > hi or (v == hi and not hi_inc)):
                return False
        if self.where is not None and not self.where(tup):
            return False
        return True

    def key_if_fully_bound(self) -> tuple | None:
        """If the equality constraints bind the whole primary key,
        return that key (enables O(1) lookup in keyed stores)."""
        schema = self.schema
        if not schema.has_key:
            return None
        key = []
        for i in schema.key_indexes:
            if i not in self.eq:
                return None
            key.append(self.eq[i])
        return tuple(key)

    def eq_on(self, field_names: tuple[str, ...]) -> tuple | None:
        """If equality constraints bind exactly the given fields, return
        their values in order — used by hash indexes over those fields."""
        idxs = tuple(self.schema.field_position(n) for n in field_names)
        if not all(i in self.eq for i in idxs):
            return None
        return tuple(self.eq[i] for i in idxs)

    def __repr__(self) -> str:
        parts = []
        for i, v in sorted(self.eq.items()):
            parts.append(f"{self.schema.field_names[i]}={v!r}")
        for i, (lo, hi, li, hi_inc) in sorted(self.ranges.items()):
            name = self.schema.field_names[i]
            if lo is not None:
                parts.append(f"{name}{'>=' if li else '>'}{lo!r}")
            if hi is not None:
                parts.append(f"{name}{'<=' if hi_inc else '<'}{hi!r}")
        if self.where is not None:
            parts.append("[...]")
        return f"get {self.schema.name}({', '.join(parts)}) <{self.kind.value}>"


def _normalise_range(spec: Any) -> tuple[Any, Any, bool, bool]:
    """Accept ``(lo, hi)`` (inclusive), or a dict with lt/le/gt/ge keys."""
    if isinstance(spec, tuple) and len(spec) == 2:
        return (spec[0], spec[1], True, True)
    if isinstance(spec, Mapping):
        return range_from_ops(spec)
    raise SchemaError(f"bad range spec {spec!r}")


def range_from_ops(spec: Mapping) -> tuple[Any, Any, bool, bool]:
    """An op dict (lt/le/gt/ge keys, the last one per side wins) as
    ``(lo, hi, lo_inc, hi_inc)``."""
    lo = hi = None
    lo_inc = hi_inc = True
    for op, v in spec.items():
        if op == "gt":
            lo, lo_inc = v, False
        elif op == "ge":
            lo, lo_inc = v, True
        elif op == "lt":
            hi, hi_inc = v, False
        elif op == "le":
            hi, hi_inc = v, True
        else:
            raise SchemaError(f"unknown range operator {op!r}")
    return (lo, hi, lo_inc, hi_inc)


def build_query(
    table: TableHandle | TableSchema,
    *prefix: Any,
    where: Callable[[JTuple], bool] | None = None,
    ranges: Mapping[str, Any] | None = None,
    kind: QueryKind = QueryKind.POSITIVE,
    **eq_by_name: Any,
) -> Query:
    """Build a :class:`Query`.

    ``prefix`` values constrain the table's leading fields positionally,
    exactly like ``get Edge(dist.vertex)`` constrains ``Edge.from``.
    ``eq_by_name`` constrains named fields; ``ranges`` maps field name
    to ``(lo, hi)`` or ``{"lt": x, "ge": y}``; ``where`` is the residual
    boolean lambda.
    """
    schema = table.schema if isinstance(table, TableHandle) else table
    if len(prefix) > len(schema.fields):
        raise SchemaError(
            f"{schema.name} has {len(schema.fields)} fields; "
            f"{len(prefix)} positional constraints given"
        )
    eq: dict[int, Any] = {i: v for i, v in enumerate(prefix)}
    for name, v in eq_by_name.items():
        idx = schema.field_position(name)
        if idx in eq:
            raise SchemaError(f"field {name!r} constrained twice")
        eq[idx] = v
    rng: dict[int, tuple[Any, Any, bool, bool]] = {}
    if ranges:
        for name, spec in ranges.items():
            idx = schema.field_position(name)
            if idx in eq:
                raise SchemaError(f"field {name!r} has both eq and range constraints")
            rng[idx] = _normalise_range(spec)
    for idx in eq:
        if idx >= len(schema.fields):
            raise UnknownFieldError(f"field index {idx} out of range for {schema.name}")
    return Query(schema, eq, rng, where, kind)


#: ``(query, rows) -> the rows the query matches``, in input order
Residual = Callable[[Query, Iterable[JTuple]], list[JTuple]]


def probe_key(positions: Sequence[int]) -> Callable[[Mapping[int, Any]], tuple]:
    """``eq -> tuple(eq[p] for p in positions)``, built once per query
    shape: the key an access path probes with."""
    if len(positions) == 1:
        (p,) = positions
        return lambda eq: (eq[p],)
    return itemgetter(*positions) if positions else lambda eq: ()


def residual(shape: Query, covered: Collection[int] = ()) -> Residual:
    """The filter a store's access path hands its rows to, compiled once
    per query shape: it keeps exactly the rows :meth:`Query.matches`
    keeps, in input order, and checks only what the path does not
    guarantee — eq positions outside ``covered``, then every range, then
    ``where``.  Eq tests keep ``!=``, so ``1``, ``1.0`` and ``True`` match
    each other and a NaN matches nothing, as in :meth:`Query.matches`.

    ``covered`` are the eq positions the path matched by hash or tuple
    equality.  That agrees with ``!=`` except on a NaN that is the very
    object stored, so a query binding NaN there is checked in full."""
    eq = tuple(p for p in shape.eq if p not in covered)
    guard = tuple(p for p in shape.eq if p in covered)
    return _compile(eq, guard, tuple(shape.ranges))


@lru_cache(maxsize=None)  # keyed by positions alone: a handful per program
def _compile(eq: tuple[int, ...], guard: tuple[int, ...], ranges: tuple[int, ...]) -> Residual:
    """One list comprehension whose test is :meth:`Query.matches`
    unrolled over this shape's positions; the values read once per call."""
    src = ["def keep(q, rows):"] + (["    e = q.eq"] if eq or guard else [])
    if guard:
        nan = " or ".join(f"e[{p}] != e[{p}]" for p in guard)
        src.append(f"    if {nan}:\n        return [t for t in rows if q.matches(t)]")
    tests = []
    if eq:
        src += [f"    w{p} = e[{p}]" for p in eq]
        tests.append("not (" + " or ".join(f"v[{p}] != w{p}" for p in eq) + ")")
    for p in ranges:
        src.append(f"    lo{p}, hi{p}, li{p}, hc{p} = q.ranges[{p}]")
        tests.append(
            f"not (lo{p} is not None and (v[{p}] < lo{p} or (v[{p}] == lo{p} and not li{p}))"
            f" or hi{p} is not None and (v[{p}] > hi{p} or (v[{p}] == hi{p} and not hc{p})))"
        )
    loop = "t for t in rows for v in (t.values,) if " + " and ".join(tests) if tests else ""
    src += [
        "    w = q.where",
        "    if w is None:",
        f"        return [{loop}]" if tests else "        return list(rows)",
        f"    return [{loop} and w(t)]" if tests else "    return [t for t in rows if w(t)]",
    ]
    namespace: dict[str, Any] = {}
    exec(compile("\n".join(src), "<residual>", "exec"), namespace)
    return namespace["keep"]
