"""Table declarations: schemas, fields, primary keys.

The paper declares tables with a concise one-line notation::

    table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)

``->`` separates the primary-key fields from the dependent fields; the
generated table carries the invariant that at most one tuple exists per
key value (§3).  Tables with no ``->`` are plain sets of tuples.

This module parses that notation (:func:`parse_fields`) and represents
the result as a :class:`TableSchema`, which also owns the table's
``orderby`` specification.  Actual tuple instances live in
:mod:`repro.core.tuples`; :func:`table_class` generates each table's
:class:`~repro.core.tuples.JTuple` subclass when its schema is built.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, Iterable

from repro.core.errors import SchemaError, UnknownFieldError
from repro.core.ordering import Lit, OrderByEntry, Par, Seq, parse_orderby
from repro.core.tuples import JTuple, shadowed

__all__ = ["Field", "TableSchema", "parse_fields", "table_class", "TYPE_DEFAULTS"]

# Java-style type names from the paper mapped to Python checkers.
_TYPE_ALIASES = {
    "int": "int",
    "long": "int",
    "double": "float",
    "float": "float",
    "String": "str",
    "str": "str",
    "boolean": "bool",
    "bool": "bool",
    "any": "any",
}

_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "any": lambda v: True,
}

#: Default values used when a field is omitted at construction time
#: ("use default values for frame and dy", §3).
TYPE_DEFAULTS = {"int": 0, "float": 0.0, "str": "", "bool": False, "any": None}


@dataclass(frozen=True, slots=True)
class Field:
    """One column of a table."""

    name: str
    type: str  # normalised: int/float/str/bool/any
    is_key: bool

    def check(self, value: Any) -> bool:
        return _TYPE_CHECKS[self.type](value)

    @property
    def default(self) -> Any:
        return TYPE_DEFAULTS[self.type]


def _parse_one_field(text: str, is_key: bool, prev_type: str | None) -> Field:
    parts = text.split()
    if len(parts) == 2:
        tname, fname = parts
    elif len(parts) == 1 and prev_type is not None:
        # "int x, y" style: y inherits the preceding type
        tname, fname = prev_type, parts[0]
    else:
        raise SchemaError(f"cannot parse field declaration {text!r}")
    if tname not in _TYPE_ALIASES:
        raise SchemaError(f"unknown field type {tname!r} in {text!r}")
    if not fname.isidentifier():
        raise SchemaError(f"bad field name {fname!r}")
    return Field(fname, _TYPE_ALIASES[tname], is_key)


def parse_fields(decl: str) -> tuple[Field, ...]:
    """Parse ``"int frame -> int x, int y"`` into Field objects.

    Everything before ``->`` is key, everything after is dependent.  If
    there is no ``->`` all fields are ordinary (whole-tuple set
    semantics).
    """
    decl = decl.strip()
    if not decl:
        raise SchemaError("empty field declaration")
    if "->" in decl:
        key_part, _, dep_part = decl.partition("->")
        key_texts = [t.strip() for t in key_part.split(",") if t.strip()]
        dep_texts = [t.strip() for t in dep_part.split(",") if t.strip()]
        if not key_texts or not dep_texts:
            raise SchemaError(f"'->' needs fields on both sides: {decl!r}")
    else:
        key_texts = []
        dep_texts = [t.strip() for t in decl.split(",") if t.strip()]

    fields: list[Field] = []
    prev_type: str | None = None
    for text in key_texts:
        f = _parse_one_field(text, True, prev_type)
        prev_type = f.type if len(text.split()) == 2 else prev_type
        fields.append(f)
    prev_type = None
    for text in dep_texts:
        f = _parse_one_field(text, "->" in decl, prev_type)  # placeholder, fixed below
        f = Field(f.name, f.type, False)
        prev_type = f.type if len(text.split()) == 2 else prev_type
        fields.append(f)

    names = [f.name for f in fields]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate field names in {decl!r}")
    return tuple(fields)


class TableSchema:
    """Schema of one relational table: named typed fields, optional
    primary key, and the table's orderby specification.

    Parameters
    ----------
    name:
        Table name (also the default literal tag used in orderby lists).
    fields:
        Either the paper's one-line string notation or an iterable of
        :class:`Field`.
    orderby:
        The orderby list — entries may be :class:`Lit`/:class:`Seq`/
        :class:`Par` objects or strings (``"Int"``, ``"seq frame"``).
        An empty orderby is legal: all tuples of the table are mutually
        equivalent.

    Schemas compare and hash by identity (``object``'s own): a program
    declares each table name once, and its tuple class holds the schema
    itself.
    """

    __slots__ = (
        "name",
        "fields",
        "orderby",
        "index",
        "key_indexes",
        "dep_indexes",
        "field_names",
        "_defaults",
        "_checks",
        "_all_int",
        "_exact",
        "tuple_class",
        "make_tuple",
    )

    def __init__(
        self,
        name: str,
        fields: str | Iterable[Field],
        orderby: Iterable[OrderByEntry | str] = (),
    ):
        if not name.isidentifier() or not name[0].isupper():
            raise SchemaError(f"table names must be capitalised identifiers: {name!r}")
        self.name = name
        if isinstance(fields, str):
            self.fields = parse_fields(fields)
        else:
            self.fields = tuple(fields)
            if not all(isinstance(f, Field) for f in self.fields):
                raise SchemaError("fields must be Field instances")
        if not self.fields:
            raise SchemaError(f"table {name} has no fields")
        self.field_names = tuple(f.name for f in self.fields)
        self.index = {f.name: i for i, f in enumerate(self.fields)}
        if len(self.index) != len(self.fields):
            raise SchemaError(f"duplicate field names in table {name}")
        self.key_indexes = tuple(i for i, f in enumerate(self.fields) if f.is_key)
        self.dep_indexes = tuple(i for i, f in enumerate(self.fields) if not f.is_key)
        self.orderby = parse_orderby(orderby)
        for entry in self.orderby:
            if isinstance(entry, (Seq, Par)) and entry.field not in self.index:
                raise UnknownFieldError(
                    f"orderby of {name} references unknown field {entry.field!r}"
                )
        self._defaults = tuple(f.default for f in self.fields)
        self._checks = tuple(_TYPE_CHECKS[f.type] for f in self.fields)
        self._all_int = all(f.type == "int" for f in self.fields)
        # exact runtime type per field (None for "any"): a value of
        # exactly its declared type always passes its checker
        self._exact = tuple(
            {"int": int, "float": float, "str": str, "bool": bool}.get(f.type)
            for f in self.fields
        )
        # the table's own tuple class and its checked constructor
        self.tuple_class, self.make_tuple = table_class(self)

    # -- helpers used by tuples/engine -----------------------------------

    @property
    def has_key(self) -> bool:
        return bool(self.key_indexes)

    def literal_names(self) -> tuple[str, ...]:
        """Literal tags appearing in this table's orderby list."""
        return tuple(e.name for e in self.orderby if isinstance(e, Lit))

    def field_position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownFieldError(f"table {self.name} has no field {name!r}") from None

    def defaults(self) -> tuple:
        return self._defaults

    def check_types(self, values: tuple) -> None:
        if self._all_int:
            # exact-type scan for the dominant all-int case; anything
            # else (bool, int subclass, wrong type) takes the slow loop
            # below for the per-field verdict and error message
            for v in values:
                if type(v) is not int:
                    break
            else:
                return
        else:
            # mixed schemas: a value of exactly its declared runtime
            # type always passes; widenings (int in a float field) and
            # failures fall through to the per-field loop
            for v, tp in zip(values, self._exact):
                if tp is not None and type(v) is not tp:
                    break
            else:
                return
        for f, chk, v in zip(self.fields, self._checks, values):
            if not chk(v):
                raise SchemaError(
                    f"{self.name}.{f.name} expects {f.type}, got {type(v).__name__} ({v!r})"
                )

    def key_of(self, values: tuple) -> tuple:
        """Primary-key projection of a value tuple."""
        return tuple(values[i] for i in self.key_indexes)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.type} {f.name}{'*' if f.is_key else ''}" for f in self.fields)
        ob = ", ".join(repr(e) for e in self.orderby)
        return f"table {self.name}({cols}) orderby ({ob})"


#: how a tuple is built, the one place that writes its slots: plain
#: stores into the table's writable twin class, then the switch to the
#: immutable class (a descriptor call per slot costs more than all four)
_BUILD = """    t = new(twin)
    t.values = values
    t._hash = hash((KEY, values))
    t._ts = None
    t.__class__ = cls
    return t
"""


@functools.lru_cache(maxsize=None)
def _compiled(src: str) -> CodeType:
    """Tables of one shape (arity, exact-type tests) share one code
    object; each table execs it into its own globals."""
    return compile(src, "<table class>", "exec")


def table_class(schema: TableSchema) -> tuple[type[JTuple], Callable[[tuple], JTuple]]:
    """``schema``'s tuple class and checked constructor, over a values
    tuple of the table's arity.  A value of exactly its field's runtime
    type passes inline; a widening or a wrong type goes to
    ``schema.check_types`` for the verdict and its error text.  The
    class's ``_build`` skips the check (``JTuple(schema, values)``).
    The hash key is the table name's CRC-32: a tuple of numbers hashes
    alike in every process and under every hash seed."""
    n, exact = len(schema.fields), schema._exact
    test = " and ".join(f"type(v{i}) is T{i}" for i in range(n) if exact[i] is not None)
    src = "def build(values):\n" + _BUILD + "def make(values):\n"
    src += f"    {''.join(f'v{i}, ' for i in range(n))}= values\n"
    src += f"    if not ({test or 'True'}):\n        check(values)\n" + _BUILD
    src += "".join(f"def f{i}(self):\n    return self.values[{i}]\n" for i in range(n))
    env: dict[str, Any] = {f"T{i}": tp for i, tp in enumerate(exact)}
    env.update(new=object.__new__, check=schema.check_types, KEY=zlib.crc32(schema.name.encode()))
    exec(_compiled(src), env)
    ns = {"__slots__": (), "schema": schema, "_build": staticmethod(env["build"])}
    for i, name in enumerate(schema.field_names):
        if not shadowed(name):
            ns[name] = property(env[f"f{i}"])
    env["cls"] = cls = type(schema.name, (JTuple,), ns)
    # both hooks back to object's, or stores still dispatch through Python
    env["twin"] = type(schema.name, (cls,), {
        "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
    })
    return cls, env["make"]
