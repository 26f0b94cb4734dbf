"""Secondary-index wrapper for Gamma table stores.

:class:`IndexedStore` wraps any base :class:`~repro.gamma.base.TableStore`
and maintains the secondary indexes of an index plan (see
:mod:`repro.gamma.indexplan`) on every ``insert``/``discard``:

* a **hash index** buckets tuples by the values of its equality fields
  and serves queries whose equality constraints cover those fields;
* a **sorted index** additionally orders each bucket by one range
  field, pruning the bucket with binary search for ``ranges``
  constraints on that field.

``prepare`` picks the most selective usable index for a query shape
and filters the candidates through the shape's compiled
:func:`~repro.core.query.residual` — the index only narrows the
candidate set, so residual ``where`` predicates and extra constraints
stay correct.  Shapes no index serves fall back to the base store's own
prepared select (which still exploits a fully-bound primary key).
§1.3 determinism note: every index path yields results sorted by tuple
values, the same order the default tree/skip-list stores produce, so
switching ``index_mode`` cannot perturb downstream iteration order (and
hence output bytes).

:class:`IndexingRegistry` is the :class:`~repro.gamma.base.StoreRegistry`
decorator that applies a plan when the engine builds the database.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Iterator, Mapping

from repro.core.query import Query, probe_key, residual
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.gamma.base import CostProfile, PreparedSelect, StoreRegistry, TableStore
from repro.gamma.indexplan import IndexSpec

__all__ = ["IndexedStore", "IndexingRegistry"]

#: cost of one secondary-index probe — a couple of hashes and a bisect,
#: cheaper than any tree descent and far cheaper than a scan
HASH_PROBE_COST = 1.2
SORTED_PROBE_COST = 2.0
#: per-index surcharge on every insert/discard (bucket upkeep)
MAINTENANCE_COST = 0.6

_by_values = attrgetter("values")


class _HashIndex:
    """Buckets keyed by the equality fields' values; each bucket is kept
    sorted by full tuple values so yields match tree-store order."""

    __slots__ = ("spec", "positions", "probe", "buckets")

    probe_cost = HASH_PROBE_COST

    def __init__(self, spec: IndexSpec, schema: TableSchema):
        self.spec = spec
        self.positions = tuple(schema.field_position(n) for n in spec.eq_fields)
        self.probe = probe_key(self.positions)
        self.buckets: dict[tuple, list[JTuple]] = {}

    def _key(self, tup: JTuple) -> tuple:
        values = tup.values
        return tuple(values[i] for i in self.positions)

    def add(self, tup: JTuple) -> None:
        insort(self.buckets.setdefault(self._key(tup), []), tup, key=lambda t: t.values)

    def remove(self, tup: JTuple) -> None:
        key = self._key(tup)
        bucket = self.buckets.get(key)
        if bucket is None:
            return
        i = bisect_left(bucket, tup.values, key=lambda t: t.values)
        while i < len(bucket) and bucket[i].values == tup.values:
            if bucket[i] is tup or bucket[i] == tup:
                del bucket[i]
                break
            i += 1
        if not bucket:
            del self.buckets[key]

    def clear(self) -> None:
        self.buckets.clear()

    # -- query planning ----------------------------------------------------

    def usable_for(self, query: Query) -> int | None:
        """Selectivity score if this index can serve the query, else
        ``None``.  Usable when the query's equality constraints cover
        every indexed field."""
        if query.eq_on(self.spec.eq_fields) is None:
            return None
        return len(self.spec.eq_fields)

    def candidates(self, query: Query) -> list[JTuple]:
        return self.buckets.get(self.probe(query.eq), [])


class _SortedIndex(_HashIndex):
    """A hash index whose buckets are ordered by one range field,
    allowing binary-search pruning for ``ranges`` constraints."""

    __slots__ = ("range_pos",)

    probe_cost = SORTED_PROBE_COST

    def __init__(self, spec: IndexSpec, schema: TableSchema):
        super().__init__(spec, schema)
        assert spec.range_field is not None
        self.range_pos = schema.field_position(spec.range_field)

    def _sort_key(self, tup: JTuple) -> tuple:
        # order by the range field first, full values second: range
        # pruning needs the former, dedup/removal the latter
        return (tup.values[self.range_pos], tup.values)

    def add(self, tup: JTuple) -> None:
        insort(self.buckets.setdefault(self._key(tup), []), tup, key=self._sort_key)

    def remove(self, tup: JTuple) -> None:
        key = self._key(tup)
        bucket = self.buckets.get(key)
        if bucket is None:
            return
        i = bisect_left(bucket, self._sort_key(tup), key=self._sort_key)
        while i < len(bucket) and bucket[i].values == tup.values:
            if bucket[i] is tup or bucket[i] == tup:
                del bucket[i]
                break
            i += 1
        if not bucket:
            del self.buckets[key]

    def usable_for(self, query: Query) -> int | None:
        if query.eq_on(self.spec.eq_fields) is None:
            return None
        constrained = (
            self.range_pos in query.ranges or self.range_pos in query.eq
        )
        # the ordered field adds selectivity only when constrained; an
        # unconstrained sorted index still serves the eq part
        return len(self.spec.eq_fields) + (1 if constrained else 0)

    def candidates(self, query: Query) -> list[JTuple]:
        bucket = self.buckets.get(self.probe(query.eq), [])
        if not bucket:
            return bucket
        if self.range_pos in query.eq:
            v = query.eq[self.range_pos]
            lo = bisect_left(bucket, v, key=lambda t: t.values[self.range_pos])
            hi = bisect_right(bucket, v, key=lambda t: t.values[self.range_pos])
            return bucket[lo:hi]
        if self.range_pos in query.ranges:
            lo_v, hi_v, lo_inc, hi_inc = query.ranges[self.range_pos]
            lo = 0
            hi = len(bucket)
            field = lambda t: t.values[self.range_pos]
            # a NaN bound orders against nothing: it prunes nothing, and
            # the residual applies it as Query.matches does
            if lo_v is not None and lo_v == lo_v:
                lo = (bisect_left if lo_inc else bisect_right)(bucket, lo_v, key=field)
            if hi_v is not None and hi_v == hi_v:
                hi = (bisect_right if hi_inc else bisect_left)(bucket, hi_v, key=field)
            return bucket[lo:hi]
        return bucket


class IndexedStore(TableStore):
    """A base store plus the secondary indexes of one table's plan.

    Everything the base store guarantees (set semantics, key invariant
    support, scan order) is delegated; this wrapper only adds index
    maintenance on mutation and an index-first access path.
    """

    def __init__(self, base: TableStore, specs: tuple[IndexSpec, ...]):
        super().__init__(base.schema)
        if not specs:
            raise ValueError(f"IndexedStore({base.schema.name}) needs at least one index")
        self.base = base
        self.indexes: tuple[_HashIndex, ...] = tuple(
            (_HashIndex if s.range_field is None else _SortedIndex)(s, base.schema)
            for s in specs
        )
        for s in specs:
            s.validate(base.schema)
        self.kind = f"indexed[{base.kind}]"
        # index upkeep makes every insert a bit dearer; the win comes
        # back on the lookup side
        bc = base.cost
        self.cost = CostProfile(
            insert_cost=bc.insert_cost + MAINTENANCE_COST * len(self.indexes),
            lookup_cost=bc.lookup_cost,
            result_cost=bc.result_cost,
            resource=bc.resource,
            serial_fraction=bc.serial_fraction,
        )
        # hit counters for the advisor's report (reads are racy-but-
        # monotonic; select runs under the engine's coarse lock in
        # threads mode anyway)
        self.key_hits = 0
        self.scan_fallbacks = 0
        self.index_hits: dict[IndexSpec, int] = {ix.spec: 0 for ix in self.indexes}

    # -- mutation: delegate, then maintain ---------------------------------

    def insert(self, tup: JTuple) -> bool:
        added = self.base.insert(tup)
        if added:
            for ix in self.indexes:
                ix.add(tup)
        return added

    def discard(self, tup: JTuple) -> bool:
        removed = self.base.discard(tup)
        if removed:
            for ix in self.indexes:
                ix.remove(tup)
        return removed

    def remove(self, tup: JTuple) -> bool:
        # retraction-exact: delegate to the base store's *remove* (it
        # may be stricter than its GC discard), then unwind the indexes
        removed = self.base.remove(tup)
        if removed:
            for ix in self.indexes:
                ix.remove(tup)
        return removed

    def clear(self) -> None:
        self.base.clear()
        for ix in self.indexes:
            ix.clear()

    # -- reads: delegate ----------------------------------------------------

    def __contains__(self, tup: JTuple) -> bool:
        return tup in self.base

    def __len__(self) -> int:
        return len(self.base)

    def scan(self) -> Iterator[JTuple]:
        return self.base.scan()

    def lookup_key(self, key: tuple) -> JTuple | None:
        return self.base.lookup_key(key)

    def heap_tuples(self) -> int:
        return self.base.heap_tuples()

    # -- the point of the exercise ------------------------------------------

    def _plan_query(self, query: Query) -> _HashIndex | None:
        """The most selective index able to serve this query (ties break
        towards the earliest index in plan order — deterministic)."""
        best: _HashIndex | None = None
        best_score = -1
        for ix in self.indexes:
            score = ix.usable_for(query)
            if score is not None and score > best_score:
                best, best_score = ix, score
        return best

    def prepare(self, query: Query) -> PreparedSelect:
        """Key, index or fallback, chosen per *shape*: the decision
        only reads constrained positions.  A fully bound key and a
        shape no index serves go to the base store's own prepared
        select, bound once; an index-served shape is priced as the
        cheaper ``ixlookup``.  Each runner bumps the hit counter of its
        path, which is what the advisor's report reads."""
        base = self.base
        keyed = query.key_if_fully_bound() is not None
        ix = None if keyed else self._plan_query(query)
        if ix is None:
            base_run = base.prepare(query).run

            def run(q: Query) -> list[JTuple]:
                if keyed:
                    self.key_hits += 1
                else:
                    self.scan_fallbacks += 1
                return base_run(q)

            return self._priced(run)
        hits, spec, candidates = self.index_hits, ix.spec, ix.candidates
        # a bucket shares the index's eq values; a sorted index's range
        # field, even when bound by eq, is bisected, so it stays residual
        keep = residual(query, ix.positions)

        def run(q: Query) -> list[JTuple]:
            hits[spec] += 1
            # candidates are bucket-sorted; a sorted index orders by the
            # range field first, so re-sort by values to keep the §1.3
            # deterministic yield order of the default stores
            return keep(q, sorted(candidates(q), key=_by_values))

        return self._priced(run, min(ix.probe_cost, base.cost.lookup_cost), "ixlookup")

    # -- reporting -----------------------------------------------------------

    def index_usage(self) -> dict[str, int]:
        """Per-path select counts: each index's label plus the ``key``
        fast path and the base-store ``scan`` fallback."""
        usage = {ix.spec.label(): self.index_hits[ix.spec] for ix in self.indexes}
        usage["key"] = self.key_hits
        usage["scan"] = self.scan_fallbacks
        return usage

    def __repr__(self) -> str:
        labels = ", ".join(ix.spec.label() for ix in self.indexes)
        return f"<IndexedStore {self.schema.name} over {self.base!r} [{labels}]>"


class IndexingRegistry(StoreRegistry):
    """A store registry that wraps the stores of planned tables in
    :class:`IndexedStore`.  Tables outside the plan are created exactly
    as the inner registry would."""

    def __init__(self, inner: StoreRegistry, plan: Mapping[str, tuple[IndexSpec, ...]]):
        self._inner = inner
        self._plan = {t: tuple(specs) for t, specs in plan.items() if specs}

    def override(self, table_name: str, factory) -> None:
        self._inner.override(table_name, factory)

    def has_override(self, table_name: str) -> bool:
        return self._inner.has_override(table_name)

    def create(self, schema: TableSchema) -> TableStore:
        store = self._inner.create(schema)
        specs = self._plan.get(schema.name)
        if specs:
            return IndexedStore(store, specs)
        return store

    @property
    def plan(self) -> dict[str, tuple[IndexSpec, ...]]:
        return dict(self._plan)
