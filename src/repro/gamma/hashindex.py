"""Hash-based Gamma stores: HashSet/ConcurrentHashMap analogues and the
paper's custom "array-of-hashsets" PvWatts store.

"But since this PvWatts program always queries the PvWatts table with a
known year and month, we can use a HashSet or ConcurrentHashMap, which
are considerably more efficient.  After some experimentation, we
manually implemented a custom data structure for the PvWatts Gamma
database that has an array indexed by month (1..12) at the top level,
and either a HashSet or ConcurrentHashMap within each entry of the
array." (§6.2)

Three stores:

* :class:`HashKeyStore` — for keyed tables: dict key → tuple;
* :class:`HashIndexStore` — hash index over a chosen field subset, each
  bucket a set of tuples (HashSet analogue);
* :class:`ArrayOfHashSetsStore` — a dense array over a small-int field,
  one hash bucket per slot (the custom PvWatts structure).  Because
  consumers touching *different* months touch different buckets, its
  cost profile has a much smaller serial fraction than a single shared
  map — this is what makes it the fastest parallel backend in Fig 8.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import SchemaError
from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple
from repro.gamma.base import CostProfile, PreparedSelect, TableStore

__all__ = ["HashKeyStore", "HashIndexStore", "ArrayOfHashSetsStore"]


class HashKeyStore(TableStore):
    """Keyed table as a hash map key → tuple (HashMap analogue).

    Requires a primary key.  A select is O(1) when the key is fully
    bound, otherwise a scan.
    """

    kind = "hashkey"
    cost = CostProfile(insert_cost=1.0, lookup_cost=1.0, result_cost=0.25)

    def __init__(self, schema: TableSchema, concurrent: bool = False):
        super().__init__(schema)
        if not schema.has_key:
            raise SchemaError(f"HashKeyStore needs a keyed table, {schema.name} has none")
        self._data: dict[tuple, JTuple] = {}
        if concurrent:
            self.kind = "concurrent-hashkey"
            self.cost = CostProfile(
                insert_cost=1.6,
                lookup_cost=1.3,
                result_cost=0.3,
                resource=f"gamma:{schema.name}",
                serial_fraction=0.08,
            )

    def insert(self, tup: JTuple) -> bool:
        key = tup.key()
        existing = self._data.get(key)
        if existing is not None:
            # exact dup vs key conflict is adjudicated by the Database
            return False if existing == tup else self._conflict(tup)
        self._data[key] = tup
        return True

    def _conflict(self, tup: JTuple) -> bool:
        # The Database layer raises KeyInvariantError before we get here;
        # direct store users get a best-effort rejection.
        raise SchemaError(
            f"key conflict in {self.schema.name}: {tup.key()!r} already bound"
        )

    def __contains__(self, tup: JTuple) -> bool:
        return self._data.get(tup.key()) == tup

    def __len__(self) -> int:
        return len(self._data)

    def scan(self) -> Iterator[JTuple]:
        return iter(self._data.values())

    def clear(self) -> None:
        self._data.clear()

    def lookup_key(self, key: tuple) -> JTuple | None:
        return self._data.get(key)

    def discard(self, tup: JTuple) -> bool:
        if self._data.get(tup.key()) == tup:
            del self._data[tup.key()]
            return True
        return False

    def remove(self, tup: JTuple) -> bool:
        # retraction-exact: the key map is the whole representation
        return self.discard(tup)

    def prepare(self, query: Query) -> PreparedSelect:
        """Fully-bound key shapes become a single dict probe; when the
        shape binds *exactly* the key (no ranges), every hit matches by
        construction and only the residual ``where`` runs."""
        if query.key_if_fully_bound() is not None:
            key_idx = self.schema.key_indexes
            data = self._data
            if len(query.eq) == len(key_idx) and not query.ranges:

                def run(q: Query) -> list[JTuple]:
                    t = data.get(tuple(q.eq[i] for i in key_idx))
                    if t is None:
                        return []
                    w = q.where
                    return [t] if w is None or w(t) else []

            else:

                def run(q: Query) -> list[JTuple]:
                    t = data.get(tuple(q.eq[i] for i in key_idx))
                    if t is not None and q.matches(t):
                        return [t]
                    return []

            return self._priced(run)
        return super().prepare(query)


class HashIndexStore(TableStore):
    """Hash index over a field subset; buckets are sets of tuples.

    ``index_fields`` defaults to the primary key, or the first field if
    the table is unkeyed.  Queries binding exactly those fields hit one
    bucket; anything else scans.
    """

    kind = "hashindex"
    cost = CostProfile(insert_cost=1.2, lookup_cost=1.1, result_cost=0.25)

    def __init__(
        self,
        schema: TableSchema,
        index_fields: tuple[str, ...] | None = None,
        concurrent: bool = False,
    ):
        super().__init__(schema)
        if index_fields is None:
            if schema.has_key:
                index_fields = tuple(schema.field_names[i] for i in schema.key_indexes)
            else:
                index_fields = (schema.field_names[0],)
        self.index_fields = index_fields
        self._positions = tuple(schema.field_position(n) for n in index_fields)
        self._buckets: dict[tuple, set[JTuple]] = {}
        self._size = 0
        if concurrent:
            self.kind = "concurrent-hashindex"
            self.cost = CostProfile(
                insert_cost=1.9,
                lookup_cost=1.5,
                result_cost=0.3,
                resource=f"gamma:{schema.name}",
                serial_fraction=0.08,
            )

    def _bucket_key(self, tup: JTuple) -> tuple:
        values = tup.values
        return tuple(values[i] for i in self._positions)

    def insert(self, tup: JTuple) -> bool:
        bucket = self._buckets.setdefault(self._bucket_key(tup), set())
        if tup in bucket:
            return False
        bucket.add(tup)
        self._size += 1
        return True

    def __contains__(self, tup: JTuple) -> bool:
        bucket = self._buckets.get(self._bucket_key(tup))
        return bucket is not None and tup in bucket

    def __len__(self) -> int:
        return self._size

    def scan(self) -> Iterator[JTuple]:
        for bucket in self._buckets.values():
            yield from bucket

    def clear(self) -> None:
        self._buckets.clear()
        self._size = 0

    def discard(self, tup: JTuple) -> bool:
        bucket = self._buckets.get(self._bucket_key(tup))
        if bucket is not None and tup in bucket:
            bucket.remove(tup)
            self._size -= 1
            return True
        return False

    def remove(self, tup: JTuple) -> bool:
        # retraction-exact: bucket membership and size stay consistent
        return self.discard(tup)

    def prepare(self, query: Query) -> PreparedSelect:
        """Index-covered shapes resolve to their bucket probe once.  A
        shape binding exactly the index fields (no ranges) skips the
        per-tuple eq re-check entirely: bucket members share those
        values by construction.  Anything else is the base store's key
        probe or scan."""
        pos = self._positions
        eq = query.eq
        if all(p in eq for p in pos):
            buckets = self._buckets
            if len(eq) == len(pos) and not query.ranges:

                def run(q: Query) -> list[JTuple]:
                    bucket = buckets.get(tuple(q.eq[i] for i in pos))
                    if not bucket:
                        return []
                    w = q.where
                    if w is None:
                        return list(bucket)
                    return [t for t in bucket if w(t)]

            else:

                def run(q: Query) -> list[JTuple]:
                    bucket = buckets.get(tuple(q.eq[i] for i in pos))
                    if not bucket:
                        return []
                    return [t for t in bucket if q.matches(t)]

            return self._priced(run)
        return super().prepare(query)


class ArrayOfHashSetsStore(TableStore):
    """The paper's custom PvWatts store: dense array over a small-int
    field, a hash set per slot.

    Different slots are *independent* contention domains — a consumer
    per month never contends — so the serial fraction is tiny compared
    to one shared concurrent map.
    """

    kind = "array-of-hashsets"

    def __init__(
        self,
        schema: TableSchema,
        slot_field: str,
        lo: int,
        hi: int,
        concurrent: bool = False,
    ):
        super().__init__(schema)
        if hi < lo:
            raise SchemaError(f"bad slot range [{lo}, {hi}]")
        self.slot_field = slot_field
        self._pos = schema.field_position(slot_field)
        self.lo = lo
        self.hi = hi
        self._slots: list[set[JTuple]] = [set() for _ in range(hi - lo + 1)]
        self._size = 0
        if concurrent:
            self.cost = CostProfile(
                insert_cost=1.1,
                lookup_cost=1.0,
                result_cost=0.25,
                resource=f"gamma:{schema.name}",
                serial_fraction=0.01,
            )
        else:
            self.cost = CostProfile(insert_cost=0.9, lookup_cost=0.9, result_cost=0.25)

    def _slot(self, value: int) -> set[JTuple]:
        idx = value - self.lo
        if not (0 <= idx < len(self._slots)):
            raise SchemaError(
                f"{self.schema.name}.{self.slot_field}={value} outside "
                f"array range [{self.lo}, {self.hi}]"
            )
        return self._slots[idx]

    def insert(self, tup: JTuple) -> bool:
        slot = self._slot(tup.values[self._pos])
        if tup in slot:
            return False
        slot.add(tup)
        self._size += 1
        return True

    def __contains__(self, tup: JTuple) -> bool:
        return tup in self._slot(tup.values[self._pos])

    def __len__(self) -> int:
        return self._size

    def scan(self) -> Iterator[JTuple]:
        for slot in self._slots:
            yield from slot

    def clear(self) -> None:
        for slot in self._slots:
            slot.clear()
        self._size = 0

    def discard(self, tup: JTuple) -> bool:
        slot = self._slot(tup.values[self._pos])
        if tup in slot:
            slot.remove(tup)
            self._size -= 1
            return True
        return False

    def prepare(self, query: Query) -> PreparedSelect:
        """Slot-covered shapes resolve to the array probe once; a shape
        binding only the slot field (no ranges) needs just the residual
        ``where`` — slot members share the slot value by construction."""
        pos = self._pos
        if pos in query.eq:
            if len(query.eq) == 1 and not query.ranges:

                def run(q: Query) -> list[JTuple]:
                    slot = self._slot(q.eq[pos])
                    if not slot:
                        return []
                    w = q.where
                    if w is None:
                        return list(slot)
                    return [t for t in slot if w(t)]

            else:

                def run(q: Query) -> list[JTuple]:
                    slot = self._slot(q.eq[pos])
                    return [t for t in slot if q.matches(t)]

            return self._priced(run)
        return super().prepare(query)
