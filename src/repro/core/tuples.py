"""Immutable tuple instances and builders.

Each JStar tuple is an immutable record with a fixed set of named fields
(§3: "Each tuple in a table is typically implemented as an immutable
Java object with a fixed set of named fields").  The paper offers three
construction styles — positional, by-name, and by-name with defaults —
plus a generated *builder* that copies an existing tuple while updating
a few fields.  All three map onto :meth:`TableSchema`-driven
construction here::

    ship = Ship.new(0, 10, 10, 150, 0)          # by position
    ship = Ship.new(frame=0, x=10, dx=150, y=10, dy=0)   # by name
    ship = Ship.new(x=10, dx=150, y=10)         # defaults for the rest
    ship2 = ship.copy(frame=1, x=160)           # builder / copy method

Tuples hash and compare by (schema, values), giving the set semantics
the engine relies on for deduplication (§6.2: "JStar has a set-oriented
semantics, so duplicate SumMonth tuples are discarded").
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.errors import SchemaError
from repro.core.schema import TableSchema

__all__ = ["JTuple", "TableHandle"]


class JTuple:
    """One immutable tuple.  Field access by attribute (``t.frame``) or
    position (``t[0]``); ``copy(**updates)`` is the builder."""

    #: ``_ts`` caches the tuple's timestamp, filled on first use by
    #: :meth:`repro.core.database.Database.timestamp` — so it lives and
    #: dies with the tuple, wherever the engine holds it
    __slots__ = ("schema", "values", "_hash", "_ts")

    def __init__(self, schema: TableSchema, values: tuple):
        _set_schema(self, schema)
        _set_values(self, values)
        _set_hash(self, hash((id(schema), values)))
        _set_ts(self, None)

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"JStar tuples are immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("JStar tuples are immutable")

    # -- field access -----------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails, i.e. for field
        # names.  __slots__ attributes resolve before reaching here.
        schema: TableSchema = object.__getattribute__(self, "schema")
        idx = schema.index.get(name)
        if idx is None:
            raise AttributeError(f"{schema.name} tuple has no field {name!r}")
        return object.__getattribute__(self, "values")[idx]

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

    def copy(self, **updates: Any) -> "JTuple":
        """Builder-style copy: a new tuple with some fields replaced."""
        if not updates:
            return self
        vals = list(self.values)
        for name, value in updates.items():
            vals[self.schema.field_position(name)] = value
        new_values = tuple(vals)
        self.schema.check_types(new_values)
        return JTuple(self.schema, new_values)

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


# the slots' own descriptors: the one way past ``__setattr__``, for
# ``__init__`` and for the timestamp cache
_set_schema, _set_values, _set_hash, _set_ts = (
    JTuple.__dict__[slot].__set__ for slot in JTuple.__slots__
)


class TableHandle:
    """User-facing handle for a declared table.

    Returned by :meth:`repro.core.program.Program.table`; provides the
    ``new`` constructor and is what rules pass to queries (``get``,
    ``foreach``).  The handle is a thin façade over the schema so that
    application code reads like the paper's listings.
    """

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
        if len(args) > n:
            raise SchemaError(
                f"{schema.name} has {n} fields, got {len(args)} positional values"
            )
        if len(args) == n and not kwargs:
            values = tuple(args)
        else:
            vals = list(schema.defaults())
            for i, a in enumerate(args):
                vals[i] = a
            for name, value in kwargs.items():
                idx = schema.field_position(name)
                if idx < len(args):
                    raise SchemaError(
                        f"{schema.name}.{name} given both positionally and by name"
                    )
                vals[idx] = value
            values = tuple(vals)
        schema.check_types(values)
        return JTuple(schema, values)

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
