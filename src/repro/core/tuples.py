"""Immutable tuple instances and builders.

Each JStar tuple is an immutable record with a fixed set of named fields
(§3: "Each tuple in a table is typically implemented as an immutable
Java object with a fixed set of named fields"): here an instance of its
table's own :class:`JTuple` subclass, generated when the table is
declared (:func:`repro.core.schema.table_class`).  The paper's
construction styles — positional, by-name, by-name with defaults — and
its generated *builder*::

    ship = Ship.new(0, 10, 10, 150, 0)          # by position
    ship = Ship.new(frame=0, x=10, dx=150, y=10, dy=0)   # by name
    ship = Ship.new(x=10, dx=150, y=10)         # defaults for the rest
    ship2 = ship.copy(frame=1, x=160)           # builder / copy method

Tuples compare by (schema, values) and hash by (stable table key,
values): the set semantics the engine deduplicates by (§6.2: "JStar has
a set-oriented semantics, so duplicate SumMonth tuples are discarded").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.core.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - schema.py imports this module
    from repro.core.schema import TableSchema

__all__ = ["JTuple", "TableHandle", "shadowed"]


class JTuple:
    """One immutable tuple.  Field access by attribute (``t.frame``) or
    position (``t[0]``); ``copy(**updates)`` is the builder."""

    #: ``_ts`` caches the tuple's timestamp, filled on first use by
    #: :meth:`repro.core.database.Database.timestamp` — so it lives and
    #: dies with the tuple, wherever the engine holds it
    __slots__ = ("values", "_hash", "_ts")
    #: a class attribute of each table's class, as is ``_build``, its
    #: unchecked constructor (:func:`repro.core.schema.table_class`)
    schema: TableSchema

    def __new__(cls, schema: TableSchema, values: tuple) -> JTuple:
        """The generic entry point (snapshots, serve, dist, gamma): an
        instance of ``schema``'s class; the values are not type-checked."""
        return schema.tuple_class._build(values)

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"JStar tuples are immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("JStar tuples are immutable")

    def __copy__(self) -> JTuple:
        return self

    def __deepcopy__(self, memo: dict) -> JTuple:
        return self

    # -- field access -----------------------------------------------------

    def __getitem__(self, i: int) -> Any:
        return self.values[i]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def field(self, name: str) -> Any:
        """Field access by name with a proper error for unknown names."""
        return self.values[self.schema.field_position(name)]

    def asdict(self) -> dict[str, Any]:
        return dict(zip(self.schema.field_names, self.values))

    def key(self) -> tuple:
        """Primary-key projection (empty tuple if the table has no key)."""
        return self.schema.key_of(self.values)

    # -- builder ----------------------------------------------------------

    def copy(self, **updates: Any) -> JTuple:
        """Builder-style copy: a new tuple with some fields replaced."""
        if not updates:
            return self
        vals = list(self.values)
        for name, value in updates.items():
            vals[self.schema.field_position(name)] = value
        return self.schema.make_tuple(tuple(vals))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JTuple):
            return NotImplemented
        return self.schema is other.schema and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(self.schema.field_names, self.values)
        )
        return f"{self.schema.name}({pairs})"


# the ``_ts`` slot's own descriptor: the timestamp cache's one way past
# ``__setattr__``
_set_ts = JTuple.__dict__["_ts"].__set__
_MEMBERS = frozenset(n for n in dir(JTuple) if not n.startswith("_")) | {"schema"}


def shadowed(name: str) -> bool:
    """Whether a field called ``name`` has no attribute: a member every
    tuple has (``values``, ``schema``, ``key``, ``copy``, ``field``,
    ``asdict``) or any ``_`` name wins; ``t.field(name)`` reads it."""
    return name.startswith("_") or name in _MEMBERS


class TableHandle:
    """User-facing handle for a declared table: the ``new`` constructor,
    and what rules pass to queries (``get``, ``foreach``) — a thin
    façade over the schema so application code reads like the paper."""

    __slots__ = ("schema",)

    def __init__(self, schema: TableSchema):
        self.schema = schema

    @property
    def name(self) -> str:
        return self.schema.name

    def new(self, *args: Any, **kwargs: Any) -> JTuple:
        """Construct a tuple positionally, by name, or mixed; omitted
        fields take their type's default value."""
        schema = self.schema
        n = len(schema.fields)
        if len(args) == n and not kwargs:
            return schema.make_tuple(args)
        if len(args) > n:
            raise SchemaError(f"{schema.name} has {n} fields, got {len(args)} positional values")
        vals = list(schema.defaults())
        vals[: len(args)] = args
        for name, value in kwargs.items():
            idx = schema.field_position(name)
            if idx < len(args):
                raise SchemaError(f"{schema.name}.{name} given both positionally and by name")
            vals[idx] = value
        return schema.make_tuple(tuple(vals))

    def __call__(self, *args: Any, **kwargs: Any) -> JTuple:
        """``Ship(0, 10, ...)`` is sugar for ``Ship.new(0, 10, ...)``,
        mirroring the paper's ``new Ship(...)`` expressions."""
        return self.new(*args, **kwargs)

    def __repr__(self) -> str:
        return f"<table {self.schema.name}>"

    def __hash__(self) -> int:
        return hash(self.schema)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TableHandle):
            return self.schema is other.schema
        return NotImplemented
