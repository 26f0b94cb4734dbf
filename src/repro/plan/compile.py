"""Query-shape compilation: everything a rule's ``get`` re-derives per
firing, resolved once per *shape*.

A call site like ``ctx.get(Edge, dist.vertex)`` always produces queries
of one shape: same table, same number of positional constraints, same
named equality fields, same range forms, same kind.  Only the *values*
change between firings.  The plan cache runs the slow generic path
(:func:`repro.core.query.build_query`) exactly once on the first call —
so all of its validation errors still fire — and extracts:

* ``eq_positions`` — the field positions of the equality constraints,
  in the insertion order ``build_query`` would produce (prefix first,
  then named kwargs), so rebuilt queries are structurally identical;
* per-range extractor closures replaying
  :func:`~repro.core.query._normalise_range` for the shape's exact
  spec form (``(lo, hi)`` pair or an op dict with a fixed key order);
* the stats-collector field-name tuples (sorted eq / range names);
* a compiled causality upper bound (:class:`CompiledBound`) replaying
  :func:`repro.core.rules.query_upper_bound` without re-walking the
  orderby spec;
* the store's :class:`~repro.gamma.base.PreparedSelect` — index
  selection / fully-bound-key detection resolved per shape, not per
  firing (supplied by the cache, which shares prepared selects between
  shapes that bind the same positions).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.errors import SchemaError
from repro.core.ordering import (
    KIND_LIT,
    KIND_PAR,
    KIND_SEQ,
    Lit,
    OrderDecls,
    Seq,
    Timestamp,
)
from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.gamma.base import PreparedSelect

__all__ = ["RANGE_PAIR", "range_form", "CompiledBound", "CompiledQueryPlan"]

#: shape tag for the inclusive ``(lo, hi)`` range form
RANGE_PAIR = "pair"


def range_form(spec: Any):
    """The shape of one range spec: :data:`RANGE_PAIR` for a 2-tuple,
    the ordered op-key tuple for a mapping.  Mirrors the forms (and the
    error) of :func:`repro.core.query._normalise_range`."""
    tp = type(spec)
    if tp is dict:  # exact-type fast path: Mapping instancechecks are slow
        return tuple(spec.keys())
    if tp is tuple and len(spec) == 2:
        return RANGE_PAIR
    if isinstance(spec, tuple) and len(spec) == 2:
        return RANGE_PAIR
    if isinstance(spec, Mapping):
        return tuple(spec.keys())
    raise SchemaError(f"bad range spec {spec!r}")


def _make_range_extractor(form) -> Callable[[Any], tuple]:
    """A closure turning one runtime spec of ``form`` into the
    normalised ``(lo, hi, lo_inc, hi_inc)`` quadruple."""
    if form == RANGE_PAIR:
        return lambda spec: (spec[0], spec[1], True, True)
    # op-dict form: the key order is part of the shape, so replaying the
    # ops in that order reproduces _normalise_range's last-wins result
    ops = tuple(form)

    def extract(spec: Mapping) -> tuple:
        lo = hi = None
        lo_inc = hi_inc = True
        for op in ops:
            v = spec[op]
            if op == "gt":
                lo, lo_inc = v, False
            elif op == "ge":
                lo, lo_inc = v, True
            elif op == "lt":
                hi, hi_inc = v, False
            else:  # "le" — unknown ops already rejected at compile
                hi, hi_inc = v, True
        return (lo, hi, lo_inc, hi_inc)

    return extract


# CompiledBound op codes
_B_CONST = 0  # payload = finished key component, disp = literal name
_B_EQ = 1     # payload = eq field position
_B_HI = 2     # payload = range field position (deciding level)
_B_PAR = 3


class CompiledBound:
    """:func:`repro.core.rules.query_upper_bound`, shape-resolved.

    The orderby walk, isinstance dispatch, and eq-vs-range membership
    tests happen at compile time; per query only the bound *values* are
    read.  Whether a range's upper bound is ``None`` (→ unbounded) can
    genuinely vary per call for the pair form, so that check stays in
    :meth:`evaluate`.
    """

    __slots__ = ("_ops",)

    def __init__(self, ops: tuple):
        self._ops = ops

    def evaluate(self, query: Query) -> tuple[Timestamp, bool] | None:
        key: list[tuple] = []
        display: list = []
        strict = False
        for op, payload, disp in self._ops:
            if op == _B_CONST:
                key.append(payload)
                display.append(disp)
            elif op == _B_EQ:
                v = query.eq[payload]
                key.append((KIND_SEQ, v))
                display.append(v)
            elif op == _B_HI:
                hi = query.ranges[payload]
                if hi[1] is None:
                    return None
                key.append((KIND_SEQ, hi[1]))
                display.append(hi[1])
                strict = not hi[3]
                break  # later levels cannot raise the bound (see query_upper_bound)
            else:  # _B_PAR
                key.append((KIND_PAR,))
                display.append("*")
        return Timestamp(tuple(key), tuple(display)), strict


def compile_bound(
    schema: TableSchema, probe: Query, decls: OrderDecls
) -> CompiledBound | None:
    """``None`` when the shape leaves some ``seq`` level statically
    unconstrained — the dynamic checker then defers, exactly like
    ``query_upper_bound`` returning ``None``."""
    ops: list[tuple] = []
    for entry in schema.orderby:
        if isinstance(entry, Lit):
            ops.append((_B_CONST, (KIND_LIT, decls.rank(entry.name)), entry.name))
        elif isinstance(entry, Seq):
            pos = schema.field_position(entry.field)
            if pos in probe.eq:
                ops.append((_B_EQ, pos, None))
            elif pos in probe.ranges:
                ops.append((_B_HI, pos, None))
                break
            else:
                return None
        else:  # Par: contributes nothing decidable
            ops.append((_B_PAR, None, None))
    return CompiledBound(tuple(ops))


class CompiledQueryPlan:
    """One query shape, fully resolved; :meth:`build` only plugs values."""

    __slots__ = (
        "schema",
        "table_name",
        "kind",
        "eq_positions",
        "range_builders",
        "prepared",
        "stat_shape",
        "bound",
        "rule_hits",
    )

    def __init__(
        self,
        probe: Query,
        ranges: Mapping[str, Any] | None,
        decls: OrderDecls,
        prepared: PreparedSelect,
    ):
        schema = probe.schema
        self.schema = schema
        self.table_name = schema.name
        self.kind = probe.kind
        # insertion order of probe.eq == prefix positions then named
        # kwargs, which is exactly how build() re-zips the values
        self.eq_positions = tuple(probe.eq)
        builders: list[tuple] = []
        if ranges:
            for name, spec in ranges.items():
                builders.append(
                    (schema.field_position(name), name, _make_range_extractor(range_form(spec)))
                )
        self.range_builders = tuple(builders)
        self.prepared = prepared
        names = schema.field_names
        # the (table, eq fields, range fields) the stats collector files
        # this shape's hits under
        self.stat_shape = (
            self.table_name,
            tuple(sorted(names[i] for i in probe.eq)),
            tuple(sorted(names[i] for i in probe.ranges)),
        )
        self.bound = compile_bound(schema, probe, decls)
        # rule name -> [n_queries, n_results]; the context and the
        # generated drivers bump a cell inline per query and the
        # collector absorbs and zeroes it, in place, at settle time
        self.rule_hits: dict[str, list] = {}

    def build(
        self,
        prefix: tuple,
        eq: Mapping[str, Any],
        ranges: Mapping[str, Any] | None,
        where: Callable | None,
    ) -> Query:
        """The per-firing fast path: two dict builds, no validation —
        the shape already validated on first compile."""
        vals = prefix + tuple(eq.values()) if eq else prefix
        if self.range_builders:
            rng = {pos: ex(ranges[name]) for pos, name, ex in self.range_builders}
        else:
            rng = {}
        return Query(self.schema, dict(zip(self.eq_positions, vals)), rng, where, self.kind)
