"""AST for the JStar concrete syntax (see :mod:`repro.lang.parser`).

Nodes carry their source line for diagnostics.  Expression nodes are
plain data; :mod:`repro.lang.compile` lowers them to Python source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "Expr",
    "Literal",
    "Name",
    "FieldAccess",
    "Unary",
    "Binary",
    "NewTuple",
    "GetQuery",
    "Stmt",
    "ValDecl",
    "PutStmt",
    "AddAssign",
    "IfStmt",
    "ForStmt",
    "PrintlnStmt",
    "ExprStmt",
    "TableDecl",
    "OrderDecl",
    "TopPut",
    "RuleDecl",
    "ProgramAst",
]


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Literal:
    value: int | float | str | bool | None
    line: int = 0


@dataclass(frozen=True, slots=True)
class Name:
    name: str
    line: int = 0


@dataclass(frozen=True, slots=True)
class FieldAccess:
    obj: "Expr"
    field: str
    line: int = 0


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "-" | "!"
    operand: "Expr"
    line: int = 0


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # + - * / % < <= > >= == != && ||
    left: "Expr"
    right: "Expr"
    line: int = 0


@dataclass(frozen=True, slots=True)
class NewTuple:
    """``new Ship(0, 10, ...)`` or ``new Ship() [frame=0; x=10]`` or
    ``new Statistics()`` (a builtin reducer box)."""

    table: str
    args: tuple["Expr", ...]
    named: tuple[tuple[str, "Expr"], ...] = ()
    line: int = 0


@dataclass(frozen=True, slots=True)
class GetQuery:
    """``get [uniq? | min] Name(args..., [pred]*)``.

    ``args`` constrain leading fields positionally; each ``pred`` is a
    bracketed constraint ``[field op expr]`` on a named field.
    """

    table: str
    mode: str  # "all" | "uniq" | "min"
    args: tuple["Expr", ...]
    preds: tuple[tuple[str, str, "Expr"], ...] = ()  # (field, op, expr)
    line: int = 0


Expr = Union[Literal, Name, FieldAccess, Unary, Binary, NewTuple, GetQuery]


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ValDecl:
    name: str
    value: Expr
    line: int = 0


@dataclass(frozen=True, slots=True)
class PutStmt:
    value: Expr  # must evaluate to a tuple
    line: int = 0


@dataclass(frozen=True, slots=True)
class AddAssign:
    """``stats += expr`` — feeding a reducer box (Fig 4)."""

    name: str
    value: Expr
    line: int = 0


@dataclass(frozen=True, slots=True)
class IfStmt:
    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()
    line: int = 0


@dataclass(frozen=True, slots=True)
class ForStmt:
    """``for (x : get T(...)) { ... }``"""

    var: str
    query: GetQuery
    body: tuple["Stmt", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class PrintlnStmt:
    value: Expr
    line: int = 0


@dataclass(frozen=True, slots=True)
class ExprStmt:
    value: Expr
    line: int = 0


Stmt = Union[ValDecl, PutStmt, AddAssign, IfStmt, ForStmt, PrintlnStmt, ExprStmt]


# --------------------------------------------------------------------------
# top-level declarations
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TableDecl:
    name: str
    fields_text: str          # handed to repro.core.schema.parse_fields
    orderby: tuple[str, ...]  # entries in string shorthand ("Int", "seq frame")
    line: int = 0


@dataclass(frozen=True, slots=True)
class OrderDecl:
    names: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class TopPut:
    value: NewTuple
    line: int = 0


@dataclass(frozen=True, slots=True)
class RuleDecl:
    trigger_table: str
    trigger_var: str
    body: tuple[Stmt, ...]
    unsafe: bool = False
    name: str = ""
    line: int = 0


@dataclass(frozen=True, slots=True)
class ProgramAst:
    tables: tuple[TableDecl, ...] = ()
    orders: tuple[OrderDecl, ...] = ()
    puts: tuple[TopPut, ...] = ()
    rules: tuple[RuleDecl, ...] = ()
    extras: tuple = field(default=())
