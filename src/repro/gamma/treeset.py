"""Ordered Gamma stores: the TreeSet / ConcurrentSkipListSet analogues.

"The default data structure for tables in the Gamma database is a Java
``TreeSet`` for sequential code or a ``ConcurrentSkipListSet`` for
parallel code, which both support ordered traversals so that queries
need only traverse a subset of the table." (§6.2)

Both variants keep their rows in one ``sortedcontainers.SortedDict``:
a hash table for point probes (membership, insert, remove) beside a
chunked sorted list of the keys for ordered scans, so a probe is one
dict lookup and a prefix scan is one bisect plus a slice walk.  Its
layout depends only on the keys it holds, so every run over the same
rows is identical.  The two variants differ only in their
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

from sortedcontainers import SortedDict

from repro.core.query import Query, probe_key, residual
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.gamma.base import CostProfile, PreparedSelect, TableStore

__all__ = ["TreeSetStore", "ConcurrentSkipListStore"]


class TreeSetStore(TableStore):
    """Sequential ordered store (TreeSet analogue)."""

    kind = "treeset"
    cost = CostProfile(insert_cost=3.0, lookup_cost=3.0, result_cost=0.3)

    def __init__(self, schema: TableSchema):
        super().__init__(schema)
        self._rows: SortedDict = SortedDict()
        # Keyed tables get a direct key index so lookup_key is one probe
        # even when the key is not a prefix of the field order; it never
        # needs order, so it is a plain dict.
        self._by_key: dict | None = {} if schema.has_key else None

    def insert(self, tup: JTuple) -> bool:
        rows = self._rows
        if tup.values in rows:
            return False
        rows[tup.values] = tup
        if self._by_key is not None:
            self._by_key[tup.key()] = tup
        return True

    def __contains__(self, tup: JTuple) -> bool:
        return tup.values in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[JTuple]:
        rows = self._rows
        return map(rows.__getitem__, rows)

    def clear(self) -> None:
        self._rows.clear()
        if self._by_key is not None:
            self._by_key.clear()

    def lookup_key(self, key: tuple) -> JTuple | None:
        if self._by_key is None:
            return super().lookup_key(key)
        return self._by_key.get(key)

    def discard(self, tup: JTuple) -> bool:
        if self._rows.pop(tup.values, None) is None:
            return False
        if self._by_key is not None:
            self._by_key.pop(tup.key(), None)
        return True

    def prepare(self, query: Query) -> PreparedSelect:
        """The longest all-equality prefix of the field order becomes
        an ordered range scan, filtered by the residual; a fully bound
        key, or no prefix at all, is the base store's key probe / full
        scan."""
        n = 0
        while n in query.eq:
            n += 1
        if n == 0 or query.key_if_fully_bound() is not None:
            return super().prepare(query)
        rows, covered = self._rows, tuple(range(n))
        bisect_left, islice, row = rows.bisect_left, rows.islice, rows.__getitem__
        key, keep = probe_key(covered), residual(query, covered)

        def run(q: Query) -> list[JTuple]:
            prefix = key(q.eq)
            out: list[JTuple] = []
            for values in islice(bisect_left(prefix)):
                if values[:n] != prefix:
                    break
                out.append(row(values))
            return keep(q, out)

        return self._priced(run)


class ConcurrentSkipListStore(TreeSetStore):
    """Parallel ordered store (ConcurrentSkipListSet analogue).

    Functionally identical to :class:`TreeSetStore`; its cost profile
    charges the concurrent-structure premium and serialises part of
    each op on the table's shared resource.
    """

    kind = "concurrent-skiplist"

    def __init__(self, schema: TableSchema):
        super().__init__(schema)
        # Per-table contention domain named after the table.
        self.cost = CostProfile(
            insert_cost=6.0,
            lookup_cost=5.0,
            result_cost=0.5,
            resource=f"gamma:{schema.name}",
            serial_fraction=0.15,
        )
