"""Ordered Gamma stores: the TreeSet / ConcurrentSkipListSet analogues.

"The default data structure for tables in the Gamma database is a Java
``TreeSet`` for sequential code or a ``ConcurrentSkipListSet`` for
parallel code, which both support ordered traversals so that queries
need only traverse a subset of the table." (§6.2)

Both variants here share one skip-list implementation (see
:mod:`repro.gamma.skiplist`); they differ in their
:class:`~repro.gamma.base.CostProfile` — the concurrent variant costs
more per op and serialises a fraction of each op on a per-table shared
resource, which is how the paper's ≈35 % sequential-vs-concurrent gap
(§6.2) and its "relative vs absolute speedup" distinction enter the
virtual-time model.

Tuples are keyed by their full value tuple, so equality constraints on
a *prefix* of the fields become ordered range scans — the "queries of
any ordered subset" property above.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.gamma.base import CostProfile, PreparedSelect, TableStore
from repro.gamma.skiplist import SkipListMap

__all__ = ["TreeSetStore", "ConcurrentSkipListStore"]


class TreeSetStore(TableStore):
    """Sequential ordered store (TreeSet analogue)."""

    kind = "treeset"
    cost = CostProfile(insert_cost=3.0, lookup_cost=3.0, result_cost=0.3)

    def __init__(self, schema: TableSchema, seed: int = 0x5EED):
        super().__init__(schema)
        self._map = SkipListMap(seed)
        # Keyed tables get a direct key index so lookup_key is O(log n)
        # even when the key is not a prefix of the field order.
        self._by_key: SkipListMap | None = SkipListMap(seed ^ 0xA5) if schema.has_key else None

    def insert(self, tup: JTuple) -> bool:
        before = len(self._map)
        self._map.setdefault(tup.values, tup)
        new = len(self._map) != before
        if new and self._by_key is not None:
            self._by_key.insert(tup.key(), tup)
        return new

    def __contains__(self, tup: JTuple) -> bool:
        return tup.values in self._map

    def __len__(self) -> int:
        return len(self._map)

    def scan(self) -> Iterator[JTuple]:
        return self._map.values()

    def clear(self) -> None:
        self._map.clear()
        if self._by_key is not None:
            self._by_key.clear()

    def lookup_key(self, key: tuple) -> JTuple | None:
        if self._by_key is None:
            return super().lookup_key(key)
        return self._by_key.get(key)

    def discard(self, tup: JTuple) -> bool:
        removed = self._map.delete(tup.values)
        if removed and self._by_key is not None:
            self._by_key.delete(tup.key())
        return removed

    def remove(self, tup: JTuple) -> bool:
        # retraction-exact: discard already unwinds the key index too
        return self.discard(tup)

    def prepare(self, query: Query) -> PreparedSelect:
        """The longest all-equality prefix of the field order becomes
        an ordered range scan; a fully bound key, or no prefix at all,
        is the base store's key probe / full scan."""
        n = 0
        while n in query.eq:
            n += 1
        if n == 0 or query.key_if_fully_bound() is not None:
            return super().prepare(query)
        items_from = self._map.items_from

        def run(q: Query) -> list[JTuple]:
            prefix = tuple(q.eq[i] for i in range(n))
            out: list[JTuple] = []
            for values, tup in items_from(prefix):
                if values[:n] != prefix:
                    break
                if q.matches(tup):
                    out.append(tup)
            return out

        return self._priced(run)


class ConcurrentSkipListStore(TreeSetStore):
    """Parallel ordered store (ConcurrentSkipListSet analogue).

    Functionally identical to :class:`TreeSetStore`; its cost profile
    charges the concurrent-structure premium and serialises part of
    each op on the table's shared resource.
    """

    kind = "concurrent-skiplist"

    def __init__(self, schema: TableSchema, seed: int = 0x5EED):
        super().__init__(schema, seed)
        # Per-table contention domain named after the table.
        self.cost = CostProfile(
            insert_cost=6.0,
            lookup_cost=5.0,
            result_cost=0.5,
            resource=f"gamma:{schema.name}",
            serial_fraction=0.15,
        )
