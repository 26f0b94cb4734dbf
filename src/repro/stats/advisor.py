"""The data-structure advisor — closing §1.4's loop automatically.

§1.4: "we can perform static analysis on the queries that are
performed ... before deciding how to represent the data, which fields
should be indexed, what data structures to use for each index, etc.
Currently we just generate default indexes and data structures for
each relation, then allow the programmer to override those choices via
runtime flags."  §6.2 adds: "We plan to add a compiler flag that
automates the generation of these optimised 'array-of-hashsets' data
structures, in the future."

This module is that future flag: run the program once (any strategy —
the logging subsystem records every query's *shape*), feed the result
to :func:`advise`, and get back per-table store recommendations ready
to drop into ``ExecOptions.store_overrides``.  The decision ladder, for
each table that served queries:

1. every query binds the **whole primary key** → :class:`HashKeyStore`;
2. otherwise, if one equality-field set dominates (≥ ``dominance`` of
   queries) —
   a. if it is a single int field whose observed values fit a small
      dense range → :class:`ArrayOfHashSetsStore` over that field (the
      §6.2 custom structure, now derived automatically),
   b. else → :class:`HashIndexStore` over those fields;
3. tables whose queries are range-heavy keep the ordered default
   (a sorted map), which supports ordered traversals;
4. tables never queried get ``-noGamma`` *suggested* only if they also
   trigger no rules is out of scope here (that is §5.1's flag, a
   separate analysis); we simply report them as query-free.

Recommendations carry a human-readable rationale, so the advisor also
serves as the §2 stage-4 profiling report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.schema import TableSchema
from repro.gamma import ArrayOfHashSetsStore, HashIndexStore, HashKeyStore
from repro.gamma.base import StoreFactory

if TYPE_CHECKING:  # pragma: no cover — avoids a circular import with the engine
    from repro.core.kernel import RunResult

__all__ = ["Recommendation", "advise", "overrides_from"]

#: a field qualifies for the dense-array top level if its observed
#: value range is at most this wide (the paper's month array is 12)
MAX_ARRAY_SPAN = 64


@dataclass(frozen=True)
class Recommendation:
    """One table's advised representation."""

    table: str
    factory: StoreFactory | None  # None = keep the default store
    kind: str                     # "hash-key" | "array-of-hashsets" | ...
    reason: str
    coverage: float               # fraction of observed queries served

    def __repr__(self) -> str:
        return (
            f"<{self.table}: {self.kind} ({self.coverage:.0%} of queries) — "
            f"{self.reason}>"
        )


def _observed_span(result: "RunResult", table: str, field: str) -> tuple[int, int] | None:
    """(lo, hi) of an int field's values currently in Gamma, or None."""
    store = result.require_database().store(table)
    pos = store.schema.field_position(field)
    lo = hi = None
    for t in store.scan():
        v = t.values[pos]
        if not isinstance(v, int):
            return None
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    if lo is None:
        return None
    return lo, hi


def _key_names(schema: TableSchema) -> tuple[str, ...]:
    return tuple(sorted(schema.field_names[i] for i in schema.key_indexes))


def advise(
    result: "RunResult",
    dominance: float = 0.8,
    concurrent: bool = True,
) -> list[Recommendation]:
    """Analyse a finished run and recommend Gamma stores per table."""
    recs: list[Recommendation] = []
    stats = result.stats
    for name, store in sorted(result.require_database().stores.items()):
        schema = store.schema
        shapes = stats.shapes_for(name)
        total = sum(shapes.values())
        if total == 0:
            recs.append(
                Recommendation(
                    name, None, "default",
                    "never queried during the profiled run", 0.0,
                )
            )
            continue

        range_queries = sum(n for (eq, rng), n in shapes.items() if rng)
        if range_queries / total > 1 - dominance:
            recs.append(
                Recommendation(
                    name, None, "ordered-default",
                    f"{range_queries}/{total} queries use range constraints; "
                    "the ordered default supports them",
                    range_queries / total,
                )
            )
            continue

        # dominant equality signature
        eq_counts: dict[tuple[str, ...], int] = {}
        for (eq, rng), n in shapes.items():
            if not rng:
                eq_counts[eq] = eq_counts.get(eq, 0) + n
        sig, sig_n = max(eq_counts.items(), key=lambda kv: kv[1])
        coverage = sig_n / total
        if coverage < dominance:
            recs.append(
                Recommendation(
                    name, None, "default",
                    "no dominant query shape "
                    f"(best binds {set(sig) or '{}'} in {coverage:.0%})",
                    coverage,
                )
            )
            continue

        if schema.has_key and sig == _key_names(schema):
            recs.append(
                Recommendation(
                    name,
                    lambda s, c=concurrent: HashKeyStore(s, concurrent=c),
                    "hash-key",
                    f"{coverage:.0%} of queries bind the full primary key "
                    f"{sig}",
                    coverage,
                )
            )
            continue

        if not sig:
            recs.append(
                Recommendation(
                    name, None, "default",
                    "dominant queries scan the whole table", coverage,
                )
            )
            continue

        if len(sig) == 1:
            span = _observed_span(result, name, sig[0])
            if span is not None and span[1] - span[0] + 1 <= MAX_ARRAY_SPAN:
                lo, hi = span
                field = sig[0]
                recs.append(
                    Recommendation(
                        name,
                        lambda s, f=field, a=lo, b=hi, c=concurrent: ArrayOfHashSetsStore(
                            s, f, a, b, concurrent=c
                        ),
                        "array-of-hashsets",
                        f"{coverage:.0%} of queries bind {field}, whose values "
                        f"span the dense range [{lo}, {hi}] — the §6.2 custom "
                        "structure, derived automatically",
                        coverage,
                    )
                )
                continue

        recs.append(
            Recommendation(
                name,
                lambda s, f=sig, c=concurrent: HashIndexStore(s, f, concurrent=c),
                "hash-index",
                f"{coverage:.0%} of queries bind exactly {sig}",
                coverage,
            )
        )
    return recs


def overrides_from(
    recommendations: list[Recommendation],
) -> dict[str, StoreFactory]:
    """The ``ExecOptions.store_overrides`` mapping for the advised
    tables (tables advised to keep their default are omitted)."""
    return {
        r.table: r.factory for r in recommendations if r.factory is not None
    }
