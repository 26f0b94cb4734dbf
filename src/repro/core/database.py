"""The Gamma database: all tuples generated by the program.

"(conceptually) stores all tuples generated by the program" (§5,
Fig 3).  One :class:`~repro.gamma.base.TableStore` per table, created
through the :class:`~repro.gamma.base.StoreRegistry` so representations
can be swapped without touching the program (§1.4).

The database also owns timestamp evaluation (it holds the program's
frozen :class:`~repro.core.ordering.OrderDecls`) and enforces the
primary-key invariant: inserting a tuple whose key already maps to a
*different* dependent value raises
:class:`~repro.core.errors.KeyInvariantError` ("the ShipTable class has
an invariant that only one Ship can exist within each frame value",
§3).
"""

from __future__ import annotations

import enum

from repro.core.errors import KeyInvariantError, UnknownTableError
from repro.core.ordering import OrderDecls, Timestamp
from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple, TableHandle, _set_ts
from repro.gamma.base import StoreRegistry, TableStore
from repro.plan.timestamps import CompiledTimestamper

__all__ = ["InsertOutcome", "Database"]


class InsertOutcome(enum.Enum):
    NEW = "new"
    DUPLICATE = "duplicate"


class Database:
    """Gamma: per-table stores + timestamp evaluation."""

    def __init__(self, schemas: dict[str, TableSchema], registry: StoreRegistry, decls: OrderDecls):
        self.decls = decls
        self.stores: dict[str, TableStore] = {
            name: registry.create(schema) for name, schema in schemas.items()
        }
        self._schemas = schemas
        # per-schema compiled orderby evaluators, built lazily so a
        # Database can be constructed before the decls freeze (ranks
        # are only needed once a timestamp is actually evaluated)
        self._timestampers: dict[TableSchema, CompiledTimestamper] = {}

    # -- timestamps -----------------------------------------------------------

    def timestamp(self, tup: JTuple) -> Timestamp:
        """The tuple's timestamp, evaluated once per tuple object and
        cached on it: the engine asks up to three times (put causality
        check, Delta enqueue, rule trigger), and a schema's orderby and
        the program's frozen order declarations never change under it."""
        ts = tup._ts
        if ts is None:
            schema = tup.schema
            compiled = self._timestampers.get(schema)
            if compiled is None:
                compiled = self._timestampers[schema] = CompiledTimestamper(
                    schema, self.decls
                )
            ts = compiled.timestamp(tup.values)
            _set_ts(tup, ts)
        return ts

    # -- store access -----------------------------------------------------------

    def store(self, table: TableHandle | TableSchema | str) -> TableStore:
        if isinstance(table, str):
            name = table
        elif isinstance(table, TableHandle):
            name = table.schema.name
        else:
            name = table.name
        try:
            return self.stores[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r} in this program") from None

    # -- mutation -----------------------------------------------------------

    def insert(self, tup: JTuple) -> InsertOutcome:
        """Insert with set semantics and key-invariant enforcement."""
        return self._insert_into(self.store(tup.schema.name), tup)

    @staticmethod
    def _insert_into(store: TableStore, tup: JTuple) -> InsertOutcome:
        if tup.schema.has_key:
            existing = store.lookup_key(tup.key())
            if existing is not None:
                if existing == tup:
                    return InsertOutcome.DUPLICATE
                raise KeyInvariantError(
                    f"table {tup.schema.name}: key {tup.key()!r} already bound to "
                    f"{existing!r}, cannot also bind {tup!r}"
                )
        if store.insert(tup):
            return InsertOutcome.NEW
        return InsertOutcome.DUPLICATE

    def insert_batch(
        self, tups: list[JTuple], skip: frozenset[str] = frozenset()
    ) -> list[InsertOutcome | None]:
        """Phase-A batching: insert a step's whole equivalence class,
        resolving each store once per *run* of same-table tuples instead
        of once per tuple (classes are usually single-table).  Outcomes
        are positionally aligned with ``tups``; tables in ``skip`` (the
        engine's -noGamma set) get ``None``.  Semantics per tuple are
        exactly :meth:`insert`, in order."""
        out: list[InsertOutcome | None] = []
        insert_into = self._insert_into
        stores = self.stores
        last_name: str | None = None
        store: TableStore | None = None
        for tup in tups:
            name = tup.schema.name
            if name in skip:
                out.append(None)
                continue
            if name != last_name:
                store = stores.get(name)
                if store is None:
                    raise UnknownTableError(f"no table {name!r} in this program")
                last_name = name
            assert store is not None
            out.append(insert_into(store, tup))
        return out

    def discard(self, tup: JTuple) -> bool:
        """Lifetime-hint garbage collection (§5 step 4)."""
        return self.store(tup.schema.name).discard(tup)

    def remove(self, tup: JTuple) -> bool:
        """Retraction-exact removal (incremental maintenance): the tuple
        and every secondary-index entry for it disappear from Gamma."""
        return self.store(tup.schema.name).remove(tup)

    # -- queries -----------------------------------------------------------

    def select(self, query: Query) -> list[JTuple]:
        """One-off read for tests and tools (see
        :meth:`~repro.gamma.base.TableStore.select`); rules read through
        the plan cache's prepared selects."""
        return self.store(query.schema.name).select(query)

    def __contains__(self, tup: JTuple) -> bool:
        return tup in self.store(tup.schema.name)

    def size(self, table: TableHandle | str) -> int:
        return len(self.store(table))

    def total_tuples(self) -> int:
        return sum(len(s) for s in self.stores.values())

    def heap_tuples(self) -> int:
        """Objects retained on the heap — drives the GC-pressure model
        (§6.2 observed up to 60 % of elapsed time in the collector)."""
        return sum(s.heap_tuples() for s in self.stores.values())

    def table_sizes(self) -> dict[str, int]:
        return {name: len(s) for name, s in self.stores.items()}

    # -- checkpointing ----------------------------------------------------------

    def dump_tables(self) -> dict[str, list]:
        """Serialisable Gamma contents for a session snapshot: table
        name -> value rows in each store's scan order (see
        :meth:`~repro.gamma.base.TableStore.dump_rows`).  Raises
        :class:`~repro.core.errors.SchemaError` if any store opts out of
        checkpointing."""
        from repro.core.errors import SchemaError

        for name, store in self.stores.items():
            if not store.supports_checkpoint():
                raise SchemaError(
                    f"table {name!r} uses a {store.kind!r} store that does "
                    "not support checkpointing; snapshot is unavailable "
                    "for this run's store configuration"
                )
        return {
            name: [list(row) for row in store.dump_rows()]
            for name, store in self.stores.items()
        }

    def load_tables(self, tables: dict[str, list[JTuple]]) -> None:
        """Rebuild Gamma from the tuples of :meth:`dump_tables` output,
        in its order (stores must be empty — i.e. a freshly constructed
        database)."""
        for name, rows in tables.items():
            insert = self.store(name).insert
            for tup in rows:
                insert(tup)
