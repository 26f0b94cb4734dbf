"""Compile a parsed JStar program into an executable
:class:`repro.core.Program`.

This compiler generates Python, as the paper's generates Java: each
textual ``foreach`` is lowered to the source of one ``def rule(ctx, t)``
— the same shape a hand-written DSL rule has — registered in
:mod:`linecache` and compiled once.  A lowered body is therefore read
exactly as a hand-written one is: :mod:`repro.plan.analyse` derives its
causality metadata, index shapes and locality from the source, and the
codegen tier compiles it further into a driver.  There is no second
evaluator.

Lowering is typed from the schemas where Java's semantics need it:
``+`` concatenates when either operand is a ``String``, ``int / int``
truncates toward zero; operands of unknown type go through small
run-time helpers that decide as Java would.  Queries lower onto
``ctx.get`` / ``ctx.get_uniq`` / ``ctx.get_min`` with bracketed
predicates becoming keyword or ``ranges=`` constraints (so the dynamic
causality checker and the data-structure advisor both see them — exactly
the visibility the paper's compiler has).  Errors that depend on run-time
values or paths (a field of ``null``, ``+=`` on a non-reducer, a variable
read outside its scope) stay :class:`CompileError` raised where the
statement executes.

``new Statistics()`` builds a :class:`ReducerBox` — the mutable local
accumulator of Fig 4's ``stats += record.power`` idiom; boxes expose
the accumulator's fields (``.mean``, ``.count``, ...) as attributes.
"""

from __future__ import annotations

import keyword
import linecache
from typing import Any, Callable, Mapping

from repro.core import Program
from repro.core.errors import JStarError
from repro.core.ordering import Seq
from repro.core.reducers import Reducer, Statistics
from repro.core.tuples import TableHandle
from repro.lang import ast as A
from repro.lang.lexer import LangSyntaxError
from repro.lang.parser import parse_program
from repro.plan.analyse import JTUPLE_ATTRS

__all__ = [
    "CompileError",
    "ReducerBox",
    "compile_program",
    "compile_source",
    "lowered_sources",
]

#: reducer constructors available to ``new Name()`` besides tables
BUILTIN_REDUCERS: dict[str, Callable[[], Reducer]] = {
    "Statistics": Statistics,
}


class CompileError(JStarError):
    """Semantic error while compiling a textual program."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ReducerBox:
    """Mutable local accumulator for ``val stats = new Statistics()``.

    ``+=`` steps it; attribute access reads the accumulator (so
    ``stats.mean`` works like the paper's).  Lives only inside one rule
    firing — no shared mutable state escapes (§1.2).
    """

    __slots__ = ("reducer", "acc")

    def __init__(self, reducer: Reducer):
        self.reducer = reducer
        self.acc = reducer.zero()

    def step(self, value: Any) -> None:
        self.acc = self.reducer.step(self.acc, value)

    def read(self, field: str) -> Any:
        try:
            return getattr(self.acc, field)
        except AttributeError:
            raise CompileError(f"reducer result has no field {field!r}") from None

    def __repr__(self) -> str:
        return f"ReducerBox({self.acc!r})"


# -- run-time support of the generated code -----------------------------------

def _raise(message: str, line: int):
    raise CompileError(message, line)


def _field(obj: Any, field: str, line: int) -> Any:
    """``obj.field`` when ``obj`` is not statically a non-null tuple."""
    if isinstance(obj, ReducerBox):
        return obj.read(field)
    if obj is None:
        raise CompileError(f"field access .{field} on null", line)
    try:
        return obj.field(field)  # JTuple
    except AttributeError:
        raise CompileError(f".{field} on a non-tuple value {obj!r}", line) from None


def _box(value: Any, name: str, line: int) -> ReducerBox:
    if not isinstance(value, ReducerBox):
        raise CompileError(
            f"'{name} +=' needs a reducer (val {name} = new Statistics())", line
        )
    return value


def _add(left: Any, right: Any) -> Any:
    if isinstance(left, str) or isinstance(right, str):
        return f"{left}{right}"  # Java-style string concatenation
    return left + right


def _idiv(left: int, right: int) -> int:
    """Java ``int / int``: truncates toward zero."""
    q = abs(left) // abs(right)
    return q if (left >= 0) == (right >= 0) else -q


def _div(left: Any, right: Any) -> Any:
    if isinstance(left, int) and isinstance(right, int):
        return _idiv(left, right)
    return left / right


_SUPPORT = {
    "_js_raise": _raise,
    "_js_field": _field,
    "_js_box": _box,
    "_js_add": _add,
    "_js_idiv": _idiv,
    "_js_div": _div,
    "_js_ReducerBox": ReducerBox,
    **{f"_js_new_{name}": ctor for name, ctor in BUILTIN_REDUCERS.items()},
}

# -- lowering -------------------------------------------------------------------

#: names the generated code uses unqualified; a table called one of
#: these is reached through an alias
_TAKEN = frozenset(("ctx", "str", "bool", "float"))

# static types: "int" | "float" | "bool" | "str" | "box" | "list" |
# ("tuple", schema, nullable) | None (unknown)
_NUM = ("int", "float", "bool")
_RANGE_KW = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _plain(name: str) -> bool:
    """Usable verbatim as a Python attribute, keyword or local name."""
    return name.isascii() and name.isidentifier() and not keyword.iskeyword(name)


def _num_type(left, right):
    if left in _NUM and right in _NUM:
        return "float" if "float" in (left, right) else "int"
    return None


class _Lowering:
    """Lowers expressions and statements of one rule (or one top-level
    put) to Python source.  ``bound`` maps each JStar variable in scope
    to its static type: a ``val`` is visible from its declaration to
    the end of its block, and past an ``if``/``else`` that declares it
    on both paths."""

    def __init__(
        self,
        tables: Mapping[str, TableHandle],
        table_py: Mapping[str, str],
        bound: dict[str, Any] | None = None,
    ):
        self.tables = tables
        self.table_py = table_py
        #: None marks a top-level put: no variables, and no queries
        self.top_level = bound is None
        self.bound: dict[str, Any] = bound or {}
        self.py: dict[str, str] = {}  # JStar variable -> Python local
        self.lines: list[str] = []

    def local(self, name: str) -> str:
        py = self.py.get(name)
        if py is None:
            taken = set(self.py.values()) | set(self.table_py.values()) | {"ctx"}
            py = name if _plain(name) else f"v{len(self.py)}"
            while py in taken or py.startswith(("_js_", "_cg")):
                py += "_"
            self.py[name] = py
        return py

    # -- expressions --------------------------------------------------------

    def expr(self, e: A.Expr) -> tuple[str, Any]:
        if isinstance(e, A.Literal):
            v = e.value
            kind = {bool: "bool", int: "int", float: "float", str: "str"}.get(type(v))
            return repr(v), kind
        if isinstance(e, A.Name):
            if e.name in self.bound:
                return self.local(e.name), self.bound[e.name]
            return f"_js_raise({'unknown variable ' + repr(e.name)!r}, {e.line})", None
        if isinstance(e, A.FieldAccess):
            return self._field_access(e)
        if isinstance(e, A.Unary):
            src, kind = self.expr(e.operand)
            return (f"(not {src})", "bool") if e.op == "!" else (f"(-{src})", kind)
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.NewTuple):
            return self._new(e)
        return self._query(e)

    def _field_access(self, e: A.FieldAccess) -> tuple[str, Any]:
        src, kind = self.expr(e.obj)
        if kind == "box":
            return f"{src}.read({e.field!r})", None
        if isinstance(kind, tuple):
            _, schema, nullable = kind
            pos = schema.index.get(e.field)
            ftype = schema.fields[pos].type if pos is not None else None
            if pos is not None and not nullable and e.field not in JTUPLE_ATTRS and _plain(e.field):
                return f"{src}.{e.field}", ftype
            if not nullable:
                return f"{src}.field({e.field!r})", ftype
            return f"_js_field({src}, {e.field!r}, {e.line})", ftype
        return f"_js_field({src}, {e.field!r}, {e.line})", None

    def _binary(self, e: A.Binary) -> tuple[str, Any]:
        op = e.op
        left, lt = self.expr(e.left)
        right, rt = self.expr(e.right)
        if op in ("&&", "||"):
            if lt != "bool":
                left = f"bool({left})"
            if rt != "bool":
                right = f"bool({right})"
            return f"({left} {'and' if op == '&&' else 'or'} {right})", "bool"
        if op == "+":
            if "str" in (lt, rt):  # Java-style string concatenation
                left = left if lt == "str" else f"str({left})"
                right = right if rt == "str" else f"str({right})"
                return f"({left} + {right})", "str"
            if _num_type(lt, rt):
                return f"({left} + {right})", _num_type(lt, rt)
            return f"_js_add({left}, {right})", None
        if op == "/":
            # Java semantics: int/int divides truncating toward zero
            if lt in ("int", "bool") and rt in ("int", "bool"):
                return f"_js_idiv({left}, {right})", "int"
            if "float" in (lt, rt):
                return f"({left} / {right})", "float" if _num_type(lt, rt) else None
            return f"_js_div({left}, {right})", None
        if op in ("-", "*", "%"):
            return f"({left} {op} {right})", _num_type(lt, rt)
        return f"({left} {op} {right})", "bool"  # == != < <= > >=

    def _call_args(self, positional, named) -> str:
        """``a, b, f=v`` — a field that is no Python keyword argument
        goes through ``**{...}``."""
        parts = list(positional)
        parts += [f"{f}={v}" for f, v in named if _plain(f)]
        odd = [f"{f!r}: {v}" for f, v in named if not _plain(f)]
        if odd:
            parts.append("**{" + ", ".join(odd) + "}")
        return ", ".join(parts)

    def _new(self, e: A.NewTuple) -> tuple[str, Any]:
        if e.table in BUILTIN_REDUCERS:
            if e.args or e.named:
                return f"_js_raise({f'new {e.table}() takes no arguments'!r}, {e.line})", None
            return f"_js_ReducerBox(_js_new_{e.table}())", "box"
        handle = self.tables.get(e.table)
        if handle is None:
            return f"_js_raise({f'unknown table {e.table!r}'!r}, {e.line})", None
        args = self._call_args(
            [self.expr(a)[0] for a in e.args],
            [(f, self.expr(v)[0]) for f, v in e.named],
        )
        return f"{self.table_py[e.table]}.new({args})", ("tuple", handle.schema, False)

    def _query(self, e: A.GetQuery) -> tuple[str, Any]:
        if self.top_level:
            raise CompileError("queries are not allowed in top-level puts")
        handle = self.tables.get(e.table)
        if handle is None:
            return f"_js_raise({f'unknown queried table {e.table!r}'!r}, {e.line})", None
        args = [self.table_py[e.table]] + [self.expr(a)[0] for a in e.args]
        eq: dict[str, str] = {}
        ranges: dict[str, dict[str, str]] = {}
        for field, op, value in e.preds:
            src = self.expr(value)[0]
            if op == "==":
                eq[field] = src
            elif op in _RANGE_KW:
                ranges.setdefault(field, {})[_RANGE_KW[op]] = src
            else:
                return f"_js_raise({f'[{field} {op} ...] is not a query predicate'!r}, {e.line})", None
        named = list(eq.items())
        if ranges:
            spec = ", ".join(
                f"{f!r}: {{" + ", ".join(f"{k!r}: {v}" for k, v in ops.items()) + "}"
                for f, ops in ranges.items()
            )
            named.append(("ranges", "{" + spec + "}"))
        kind = ("tuple", handle.schema, True)
        if e.mode == "uniq":
            return f"ctx.get_uniq({self._call_args(args, named)})", kind
        if e.mode == "min":
            # ``get min T(...)`` minimises T's first ``seq`` orderby field
            by = next((e.field for e in handle.schema.orderby if isinstance(e, Seq)), None)
            if by is None:
                return (
                    f"_js_raise({f'get min {handle.name}: table has no seq orderby field to minimise'!r}, 0)",
                    None,
                )
            return f"ctx.get_min({self._call_args(args, [('by', repr(by))] + named)})", kind
        return f"ctx.get({self._call_args(args, named)})", "list"

    # -- statements -----------------------------------------------------------

    def block(self, stmts: tuple[A.Stmt, ...], indent: str) -> None:
        if not stmts:
            self.lines.append(f"{indent}pass")
        for stmt in stmts:
            self.stmt(stmt, indent)

    def _scoped(self, stmts, indent: str, extra: Mapping[str, Any] = {}) -> dict:
        """Lower a nested block; returns the scope at its end and
        restores the enclosing one."""
        outer = dict(self.bound)
        self.bound.update(extra)
        self.block(stmts, indent)
        inner, self.bound = self.bound, outer
        return inner

    def stmt(self, stmt: A.Stmt, indent: str) -> None:
        emit = lambda text: self.lines.append(indent + text)  # noqa: E731
        if isinstance(stmt, A.ValDecl):
            src, kind = self.expr(stmt.value)
            emit(f"{self.local(stmt.name)} = {src}")
            self.bound[stmt.name] = kind
        elif isinstance(stmt, A.PutStmt):
            emit(f"ctx.put({self.expr(stmt.value)[0]})")
        elif isinstance(stmt, A.AddAssign):
            name = stmt.name
            box = self.local(name) if name in self.bound else "None"
            if self.bound.get(name) != "box":
                box = f"_js_box({box}, {name!r}, {stmt.line})"
            emit(f"{box}.step({self.expr(stmt.value)[0]})")
            emit("ctx.charge(0.3, 'reduce_op')")
        elif isinstance(stmt, A.IfStmt):
            emit(f"if {self.expr(stmt.cond)[0]}:")
            then, orelse = self._scoped(stmt.then, indent + "    "), self.bound
            if stmt.orelse:
                emit("else:")
                orelse = self._scoped(stmt.orelse, indent + "    ")
            self._join(then, orelse)
        elif isinstance(stmt, A.ForStmt):
            rows, _ = self._query(stmt.query)
            handle = self.tables.get(stmt.query.table)
            emit(f"for {self.local(stmt.var)} in {rows}:")
            kind = ("tuple", handle.schema, False) if handle is not None else None
            body = self._scoped(stmt.body, indent + "    ", {stmt.var: kind})
            # zero or more iterations; the loop variable dies with the loop
            self._join(body, self.bound)
            self.bound.pop(stmt.var, None)
        elif isinstance(stmt, A.PrintlnStmt):
            emit(f"ctx.println({self.expr(stmt.value)[0]})")
        else:  # ExprStmt
            emit(self.expr(stmt.value)[0])

    def _join(self, a: dict, b: dict) -> None:
        """Scope after two alternative paths: what both declare."""
        self.bound = {k: a[k] if a[k] == b[k] else None for k in a.keys() & b.keys()}


def _install(source: str, fn_name: str, label: str, namespace: dict, line: int = 0) -> Callable:
    """Compile one generated ``def`` from source registered in
    :mod:`linecache` — so the body analyser and the codegen tier read it
    exactly as they read a hand-written rule."""
    # keyed by content: equal labels with equal sources may share a file
    filename = f"<jstar:{label}:{hash(source) & (2**64 - 1):x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = dict(namespace)
    try:
        exec(compile(source, filename, "exec"), scope)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise CompileError(f"rule {label} is nested too deeply: {exc}", line) from None
    return scope[fn_name]


def lowered_sources() -> dict[str, str]:
    """Every lowered rule of this process, by its linecache file name —
    what the codegen CI job uploads beside the generated drivers."""
    return {
        name: "".join(entry[2])
        for name, entry in linecache.cache.items()
        if name.startswith("<jstar:")
    }


def _lower_rule(rule: A.RuleDecl, name: str, low: _Lowering, namespace: dict) -> Callable:
    """One ``foreach`` as one ``def rule(ctx, t)``."""
    param = low.local(rule.trigger_var)
    low.block(rule.body, "    ")
    fn_name = name if _plain(name) and name not in namespace else "rule"
    source = "\n".join([f"def {fn_name}(ctx, {param}):"] + low.lines) + "\n"
    return _install(source, fn_name, name, namespace, rule.line)


def _read_loop(data_py: str, data_table: TableHandle, namespace: dict) -> Callable:
    """The paper's automatically generated CSV read-loop (§6.2): a
    ``FooRequest(String filename)`` tuple triggers an unsafe system rule
    that parses the file's rows straight into ``Foo``, using the
    byte-oriented reader; int fields parse, string fields decode."""
    fields = data_table.schema.fields
    ints = tuple(i for i, f in enumerate(fields) if f.type in ("int", "bool"))
    convert = {"float": "float(rec[{}])", "str": "rec[{}].decode('ascii')"}
    values = ", ".join(
        convert.get(f.type, "rec[{}]").format(i) for i, f in enumerate(fields)
    )
    missing = "'no file %r supplied to compile_source(files=...)' % (req.filename,)"
    source = f"""\
def read_loop(ctx, req):
    ctx.io_allowed()
    if req.filename not in _js_files:
        _js_raise({missing}, 0)
    records = _js_read_records(_js_files[req.filename], {ints!r}, {len(fields)})
    for rec in records:
        ctx.put({data_py}.new({values}))
    ctx.charge(0.6 * len(records), 'csv_parse')
    ctx.charge(0.2 * len(records), 'io_record')
"""
    return _install(source, "read_loop", f"read_loop_{data_table.name}", namespace)


def compile_program(
    tree: A.ProgramAst,
    name: str = "jstar-program",
    files: Mapping[str, bytes] | None = None,
) -> Program:
    """Lower a parsed AST into an executable Program.

    ``files`` is the in-memory file registry for auto-generated read
    loops: any table ``FooRequest(String filename)`` whose companion
    table ``Foo`` exists gets the paper's generated reader rule (§6.2).
    """
    from repro.csvio.reader import read_records_bytes

    program = Program(name)
    tables: dict[str, TableHandle] = {}
    for t in tree.tables:
        try:
            tables[t.name] = program.table(t.name, t.fields_text, orderby=t.orderby)
        except JStarError as exc:
            raise CompileError(f"table {t.name}: {exc}", t.line) from exc
    for o in tree.orders:
        program.order(*o.names)

    # what generated code may name: every table by its own name where
    # Python allows it, and the run-time support
    table_py = {
        t: t
        if _plain(t) and t not in _TAKEN and not t.startswith(("_js_", "_cg"))
        else f"_js_table{i}"
        for i, t in enumerate(tables)
    }
    namespace = {
        **_SUPPORT,
        "_js_files": files or {},
        "_js_read_records": read_records_bytes,
        **{table_py[t]: handle for t, handle in tables.items()},
    }

    # the paper's auto-generated read-loop rules
    for tname, handle in tables.items():
        data_table = tables.get(tname[: -len("Request")]) if tname.endswith("Request") else None
        schema = handle.schema
        if data_table is not None and len(schema.fields) == 1 and schema.fields[0].type == "str":
            program.rule(handle, name=f"read_loop_{data_table.name}", unsafe=True)(
                _read_loop(table_py[data_table.name], data_table, namespace)
            )

    for i, decl in enumerate(tree.rules):
        handle = tables.get(decl.trigger_table)
        if handle is None:
            raise CompileError(
                f"foreach over unknown table {decl.trigger_table!r}", decl.line
            )
        rule_name = decl.name or f"foreach_{decl.trigger_table}_{i}"
        low = _Lowering(tables, table_py, {decl.trigger_var: ("tuple", handle.schema, False)})
        rule = program.rule(handle, name=rule_name, unsafe=decl.unsafe)(
            _lower_rule(decl, rule_name, low, namespace)
        )
        # a body the analyser refuses (and only that — a defect in the
        # analyser propagates) is the programmer's to vouch for, as a
        # DSL rule's is: the dynamic negative-query check steps aside
        rule.assume_stratified = rule.analysis().meta is None

    # initial puts evaluate in an empty environment (literals only in
    # practice — the paper's `put new Estimate(0, 0)`)
    for p in tree.puts:
        src, _ = _Lowering(tables, table_py).expr(p.value)
        program.put(eval(src, dict(namespace)))
    return program


def compile_source(
    source: str,
    name: str = "jstar-program",
    files: Mapping[str, bytes] | None = None,
) -> Program:
    """Parse + compile a textual JStar program in one call.  ``files``
    feeds the auto-generated read loops (see :func:`compile_program`)."""
    return compile_program(parse_program(source), name, files=files)
