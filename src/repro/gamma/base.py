"""Gamma table-store interface and the data-structure factory registry.

§1.4 of the paper ("late commitment to data structures") is the reason
this module exists: programs are written against neutral relations, and
the *representation* of each Gamma table is chosen afterwards — by
default from the execution mode (sequential → tree store, parallel →
concurrent skip list), or overridden per table via runtime flags /
factory overrides ("we manually implemented a custom data structure for
the PvWatts Gamma database ... by using inheritance to override one
factory method", §6.2).

A :class:`TableStore`'s contract is ``insert`` (exact-duplicate
detection: ``False`` for duplicates — set semantics), ``__contains__``,
``__len__``, ``scan`` and ``clear``, and optionally :meth:`~TableStore.prepare`
— the store's one read: given a :class:`~repro.core.query.Query`'s
*shape* it resolves the access path (key probe, prefix range, bucket,
index, scan) once and hands back a :class:`PreparedSelect` whose
``run`` serves every query of that shape.  A prepared select is a probe
plus the shape's compiled :func:`~repro.core.query.residual` filter,
which checks only what the probe does not guarantee and keeps exactly
the rows :meth:`Query.matches` — the reference — keeps.  The base
``prepare`` probes a fully bound key through
:meth:`~TableStore.lookup_key` and otherwise scans; a store overrides
it to exploit whatever indexes it has.
:meth:`~TableStore.select` is derived from it and is never overridden.

Each store also carries a :class:`CostProfile` used by the virtual-time
machine: the op-cost weights and, for "concurrent" stores, the shared
resource they serialise on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.errors import SchemaError
from repro.core.query import Query, probe_key, residual
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple

__all__ = [
    "CostProfile",
    "PreparedSelect",
    "TableStore",
    "StoreFactory",
    "StoreRegistry",
]


@dataclass(frozen=True)
class CostProfile:
    """Abstract cost of one store operation, in work units, plus the
    shared resource its parallel variant serialises on.

    ``insert_cost`` / ``lookup_cost`` are charged per operation;
    ``result_cost`` per tuple yielded by a select.  ``resource`` names
    the contention domain (``None`` = uncontended, e.g. per-consumer
    local stores); ``serial_fraction`` is the fraction of each op that
    must serialise when the structure is shared between cores.
    """

    insert_cost: float = 1.0
    lookup_cost: float = 1.0
    result_cost: float = 0.25
    resource: str | None = None
    serial_fraction: float = 0.0


class PreparedSelect:
    """A select path resolved once per query *shape* (see
    :mod:`repro.plan`): ``run`` materialises results for one concrete
    query of that shape, and the precomputed cost fields let
    :meth:`~repro.exec.metering.CostMeter.charge_planned` charge the
    lookup and its results without re-deriving anything.  ``lookup_shared`` / ``result_shared`` are the
    serialisable work units per lookup / per result (0.0 when the store
    is uncontended)."""

    __slots__ = (
        "run",
        "lookup_cost",
        "lookup_counter",
        "lookup_shared",
        "result_cost",
        "result_counter",
        "result_shared",
        "resource",
    )

    def __init__(
        self,
        run: Callable[["Query"], list[JTuple]],
        lookup_cost: float,
        profile: CostProfile,
        table_name: str,
    ):
        self.run = run
        sf = profile.serial_fraction if profile.resource is not None else 0.0
        self.lookup_cost = lookup_cost
        self.lookup_counter = f"gamma_lookup:{table_name}"
        self.lookup_shared = lookup_cost * sf
        self.result_cost = profile.result_cost
        self.result_counter = f"gamma_result:{table_name}"
        self.result_shared = profile.result_cost * sf
        self.resource = profile.resource


class TableStore(ABC):
    """Backing store for one Gamma table."""

    #: human-readable backend name, used in benchmark reports
    kind: str = "abstract"
    #: default cost profile; factories may replace per instance
    cost: CostProfile = CostProfile()

    def __init__(self, schema: TableSchema):
        self.schema = schema

    # -- required API -------------------------------------------------------

    @abstractmethod
    def insert(self, tup: JTuple) -> bool:
        """Add a tuple; return False if this exact tuple was present."""

    @abstractmethod
    def __contains__(self, tup: JTuple) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def scan(self) -> Iterator[JTuple]:
        """Iterate all tuples (order is store-specific)."""

    @abstractmethod
    def clear(self) -> None: ...

    # -- overridable API -----------------------------------------------------

    def lookup_key(self, key: tuple) -> JTuple | None:
        """Primary-key lookup; default linear scan (keyed stores override)."""
        if not self.schema.has_key:
            raise SchemaError(f"table {self.schema.name} has no primary key")
        for t in self.scan():
            if t.key() == key:
                return t
        return None

    def select(self, query: Query) -> list[JTuple]:
        """The tuples matching one query — a convenience for one-off
        reads (tests, tools): resolve the shape, run it once.  Derived
        from :meth:`prepare`, never overridden; no rule's query comes
        through here (the plan cache keeps the resolved path)."""
        return self.prepare(query).run(query)

    def discard(self, tup: JTuple) -> bool:
        """Remove a tuple (used only by lifetime-hint GC, §5 step 4).
        Stores that cannot delete raise."""
        raise SchemaError(f"{self.kind} store cannot discard tuples")

    def remove(self, tup: JTuple) -> bool:
        """Remove a tuple for *retraction* (incremental maintenance):
        the same exact removal as :meth:`discard`, under the name the
        retraction layer calls."""
        return self.discard(tup)

    def prepare(self, query: Query) -> PreparedSelect:
        """Resolve the select path for this query's *shape* once (plan
        cache, §5's compiled-query advantage).  Every query later run
        through the result constrains the same field positions, so any
        decision that depends only on positions — key coverage, index
        choice, prefix length — is made here and nowhere else.  The
        default exploits a fully bound key if present, else filters a
        full scan; stores with shape-dependent paths override this and
        fall back to it for the shapes they do not serve.  Every path is
        a probe plus the shape's compiled :func:`~repro.core.query.residual`."""
        if query.key_if_fully_bound() is not None:
            key_idx = self.schema.key_indexes
            lookup_key, key, keep = self.lookup_key, probe_key(key_idx), residual(query, key_idx)

            def run(q: Query) -> list[JTuple]:
                t = lookup_key(key(q.eq))
                return [] if t is None else keep(q, (t,))

        else:
            scan, keep = self.scan, residual(query)

            def run(q: Query) -> list[JTuple]:
                return keep(q, scan())

        return self._priced(run)

    def _priced(self, run: Callable[[Query], list[JTuple]]) -> PreparedSelect:
        """Price an access path of this store at its flat profile cost."""
        return PreparedSelect(run, self.cost.lookup_cost, self.cost, self.schema.name)

    def heap_tuples(self) -> int:
        """Number of tuples retained on the heap — feeds the GC-pressure
        model.  Native-array stores override this to reflect their much
        smaller object count."""
        return len(self)

    # -- checkpoint hooks ----------------------------------------------------

    def supports_checkpoint(self) -> bool:
        """Whether this store round-trips through :meth:`dump_rows` and
        the re-insertion of those rows (a snapshot's restore).  True for
        every store whose full contents are reachable by :meth:`scan`
        and reinsertable by :meth:`insert`; stores backed by bulk-loaded
        native planes (the Median ``double[2][N]`` specialisation)
        override this to opt out, which makes sessions over them refuse
        to snapshot with a clear error instead of silently losing data."""
        return True

    def dump_rows(self) -> list[tuple]:
        """Value rows for a session snapshot, in :meth:`scan` order —
        re-inserting them in this order reproduces an insertion-ordered
        store exactly."""
        return [t.values for t in self.scan()]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.schema.name} n={len(self)}>"


StoreFactory = Callable[[TableSchema], TableStore]


class StoreRegistry:
    """Maps table name → store factory, with a mode-dependent default.

    This is the runtime-flag mechanism of §1.4/§5: ``registry.override``
    replaces the representation of one table without touching the
    program, exactly like the paper's factory-method override.
    """

    def __init__(self, default: StoreFactory):
        self._default = default
        self._overrides: dict[str, StoreFactory] = {}

    def override(self, table_name: str, factory: StoreFactory) -> None:
        self._overrides[table_name] = factory

    def create(self, schema: TableSchema) -> TableStore:
        factory = self._overrides.get(schema.name, self._default)
        return factory(schema)

    def has_override(self, table_name: str) -> bool:
        return table_name in self._overrides
