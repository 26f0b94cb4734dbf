"""Rule-driven secondary-index planning for Gamma stores.

§1.4 promises that "we can perform static analysis on the queries that
are performed ... before deciding how to represent the data, which
fields should be indexed, what data structures to use for each index".
The data-structure *advisor* (:mod:`repro.stats.advisor`) closes that
loop dynamically, from a profiled run; this module closes it
**statically**: it walks a program's rules — the same symbolic
:class:`~repro.solver.obligations.RuleMeta` the causality prover
consumes, derived from every rule body's source
(:mod:`repro.plan.analyse`) — and derives, per table, the set of
*access patterns* its rules use:

* equality-constrained field sets (``get PvWatts(s.year, s.month)`` →
  ``{year, month}``);
* range-constrained fields (``get uniq? Done(dist.vertex,
  [distance < dist.distance])`` → eq ``{vertex}``, range
  ``{distance}``).

:func:`plan_indexes` turns those patterns into an *index plan*: a
mapping ``table name → (IndexSpec, ...)`` ready for
``ExecOptions(index_mode="auto")``, where each
:class:`IndexSpec` is either a **hash index** over the equality fields
or a **sorted index** (hash buckets over the equality fields, each
bucket ordered by the range field).  Patterns already served by the
primary-key fast path (equality fields covering the whole key) need no
index; neither do full scans (no constraints at all).

The planner is deliberately conservative: an index can only *speed up*
a query it matches — :class:`~repro.gamma.indexed.IndexedStore` always
falls back to the base store's scan — so missing metadata (opaque
Python rule bodies without ``meta``) degrades gracefully to the
unindexed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import SchemaError
from repro.core.schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover — avoids a circular import at runtime
    from repro.core.program import Program

__all__ = [
    "IndexSpec",
    "AccessPattern",
    "collect_access_patterns",
    "spec_for_pattern",
    "plan_indexes",
    "MAX_INDEXES_PER_TABLE",
]

#: safety valve: more indexes than this per table means the rules have
#: no dominant access pattern and maintenance would outweigh lookups
MAX_INDEXES_PER_TABLE = 4


@dataclass(frozen=True)
class IndexSpec:
    """One secondary index over a table.

    ``eq_fields`` are the hash-bucketed equality fields (may be empty);
    ``range_field`` is the optional field each bucket is ordered by.
    ``range_field=None`` makes a plain hash index; a spec with an empty
    ``eq_fields`` and a range field is a single ordered index over that
    field.
    """

    eq_fields: tuple[str, ...]
    range_field: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eq_fields", tuple(self.eq_fields))
        if self.range_field is not None and self.range_field in self.eq_fields:
            raise SchemaError(
                f"index field {self.range_field!r} is both hashed and ordered"
            )
        if not self.eq_fields and self.range_field is None:
            raise SchemaError("an index must constrain at least one field")

    @property
    def kind(self) -> str:
        return "hash" if self.range_field is None else "sorted"

    def validate(self, schema: TableSchema) -> None:
        for name in self.eq_fields:
            schema.field_position(name)  # raises UnknownFieldError
        if self.range_field is not None:
            schema.field_position(self.range_field)

    def label(self) -> str:
        fields = ", ".join(self.eq_fields)
        if self.range_field is None:
            return f"hash({fields})"
        return f"sorted({fields}; {self.range_field})" if fields else (
            f"sorted({self.range_field})"
        )

    def __repr__(self) -> str:
        return f"<IndexSpec {self.label()}>"


@dataclass(frozen=True)
class AccessPattern:
    """One query shape a rule performs against a table."""

    table: str
    eq_fields: tuple[str, ...]
    range_fields: tuple[str, ...]
    source: str = "?"  # rule name, for diagnostics

    def __repr__(self) -> str:
        return (
            f"<{self.table} eq={set(self.eq_fields) or '{}'} "
            f"range={set(self.range_fields) or '{}'} via {self.source}>"
        )


_PROBE_PREFIX = "__ixplan__."
_NUMERIC = ("int", "float", "bool")


def _pattern_of_symquery(query, rule_name: str) -> AccessPattern:
    """Lower one :class:`~repro.solver.obligations.SymQuery` to an
    access pattern.  Equality fields are the query's bound fields; range
    fields are discovered by probing the symbolic constraints callback
    with marked variables and seeing which fields it relates."""
    from repro.solver.terms import Rel, var

    eq = set(query.bound)
    rng: set[str] = set()
    if query.constraints is not None:
        probe = {
            f.name: var(_PROBE_PREFIX + f.name)
            for f in query.schema.fields
            if f.type in _NUMERIC
        }
        # bound fields keep their bound terms, exactly like the
        # obligation generator's q_fields — their constraints then never
        # mention a probe variable and stay classified as equality
        probe.update(query.bound)
        try:
            atoms = list(query.constraints(probe))
        except Exception:  # constraints outside the probe's fragment
            atoms = []
        for atom in atoms:
            for v in atom.variables():
                if v.startswith(_PROBE_PREFIX):
                    name = v[len(_PROBE_PREFIX):]
                    (eq if atom.rel == Rel.EQ else rng).add(name)
    rng -= eq
    return AccessPattern(
        query.schema.name, tuple(sorted(eq)), tuple(sorted(rng)), rule_name
    )


def collect_access_patterns(program: "Program") -> list[AccessPattern]:
    """Every distinct query access pattern in the program's rules (a
    rule whose body analysis refuses contributes none)."""
    from repro.solver.obligations import RuleMeta

    seen: set[tuple] = set()
    out: list[AccessPattern] = []
    for rule in program.rules:
        meta = rule.meta
        if not isinstance(meta, RuleMeta):
            continue
        for branch in meta.branches:
            for q in branch.queries:
                pat = _pattern_of_symquery(q, rule.name)
                key = (pat.table, pat.eq_fields, pat.range_fields)
                if key not in seen:
                    seen.add(key)
                    out.append(pat)
    return out


def _key_names(schema: TableSchema) -> frozenset[str]:
    return frozenset(schema.field_names[i] for i in schema.key_indexes)


def spec_for_pattern(
    schema: TableSchema,
    eq_fields: Iterable[str],
    range_fields: Iterable[str] = (),
) -> IndexSpec | None:
    """The index (if any) that would serve one access pattern.

    ``None`` when no index helps: full scans have nothing to hash on,
    and patterns whose equality fields cover the whole primary key are
    already served by the keyed fast path
    (:meth:`~repro.core.query.Query.key_if_fully_bound`).
    """
    eq = tuple(sorted(set(eq_fields)))
    rng = tuple(sorted(set(range_fields)))
    if schema.has_key and _key_names(schema) <= set(eq):
        return None
    if rng:
        # one range field becomes the bucket ordering; further range
        # fields are residually filtered by Query.matches
        return IndexSpec(eq, rng[0])
    if eq:
        return IndexSpec(eq)
    return None


def plan_indexes(
    program: "Program",
    max_per_table: int = MAX_INDEXES_PER_TABLE,
) -> dict[str, tuple[IndexSpec, ...]]:
    """The automatic index plan for a program: walk the compiled rules'
    access patterns and emit per-table index specs.

    A hash index whose fields are covered by a sorted index's equality
    fields is *not* elided — equality probes on the hash index are
    cheaper than bucket scans — but exact duplicates are.  Tables whose
    patterns produce more than ``max_per_table`` distinct indexes keep
    only the first ``max_per_table`` in deterministic (sorted) order.
    """
    schemas = program.schemas()
    plan: dict[str, list[IndexSpec]] = {}
    for pat in collect_access_patterns(program):
        schema = schemas.get(pat.table)
        if schema is None:  # pragma: no cover - rules query own tables
            continue
        spec = spec_for_pattern(schema, pat.eq_fields, pat.range_fields)
        if spec is None:
            continue
        specs = plan.setdefault(pat.table, [])
        if spec not in specs:
            specs.append(spec)
    return {
        table: tuple(sorted(specs, key=lambda s: (s.eq_fields, s.range_field or "")))[
            :max_per_table
        ]
        for table, specs in sorted(plan.items())
    }
