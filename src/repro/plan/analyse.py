"""The one reading of a rule body.

The paper's compiler "sends each rule's puts and queries to the solvers
automatically" (§4) because it sees the source.  So does this module: it
parses a rule body's Python source once — a hand-written DSL rule and a
textual rule lowered by :mod:`repro.lang.compile` alike — and resolves
every ``ctx.*`` call into a *site record*: the table handle, the query
flavour and causality kind, the prefix / equality / range positions, the
put constructor.  Two consumers read the records and nothing else:

* :mod:`repro.plan.codegen` emits the generated drivers from them;
* :attr:`repro.core.rules.Rule.meta` is the
  :class:`~repro.solver.obligations.RuleMeta` built beside them — every
  bound and put field as a linear :class:`~repro.solver.terms.Term`
  (single-assignment locals inlined, numeric closure constants
  resolved, anything else a fresh variable), under the ``if``/``else``
  path conditions and loop-variable bindings in force at the site.

Analysis is more permissive than emission.  A missed *hypothesis* only
makes an obligation harder to prove, so opaque conditions are dropped,
``ctx.native(T)`` is an unconstrained positive read of ``T``, and a
nested function using ``ctx`` is walked with its locals opaque.  A
missed *site* would be unsound, so a context that escapes the body, a
table argument that is not a static handle and a put whose table cannot
be read off its constructor *refuse*: the rule then has no derived
metadata and the refusal reason says why.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections import Counter
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.query import QueryKind
from repro.core.tuples import TableHandle, shadowed
from repro.solver.obligations import Branch, RuleMeta, SymPut, SymQuery, _field_vars
from repro.solver.terms import Constraint, Term, var

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rules import Rule

__all__ = ["BodyAnalysis", "QuerySite", "PutSite", "analyse_rule"]


QUERY_KINDS = {
    "get": QueryKind.POSITIVE,
    "exists": QueryKind.POSITIVE,
    "native": QueryKind.POSITIVE,
    "get_uniq": QueryKind.NEGATIVE,
    "absent": QueryKind.NEGATIVE,
    "count": QueryKind.AGGREGATE,
    "get_min": QueryKind.AGGREGATE,
    "reduce": QueryKind.AGGREGATE,
}

#: context methods that neither read Gamma nor put
_INERT = ("println", "charge", "charge_shared", "io_allowed", "par_reduce", "par_loop")
_NUMERIC = ("int", "float", "bool")
_BAD_RANGES = "ranges= must be a literal dict of literal specs"


class QuerySite:
    """One ``ctx.<query>(...)`` call, resolved."""

    __slots__ = (
        "i", "lineno", "flavor", "handle", "kind", "prefix_arity", "eq_names",
        "ranges",  # tuple[(field_name, form)]; form = "pair" | tuple[op,...]
        "key_args",  # arg indices in schema.key_indexes order, or None
        "min_pos",  # get_min: position of the `by` field
        "refuse",  # why generated code cannot serve this site, or None
    )

    def eq_fields(self) -> tuple[str, ...]:
        names = self.handle.schema.field_names
        return tuple(sorted(names[: self.prefix_arity] + self.eq_names))


class PutSite:
    """One ``ctx.put(...)`` call.  ``schema`` is None when the argument
    is not a constructor call on a static handle (generated code then
    guards with ``isinstance``; analysis refuses); ``typed`` means the
    constructor takes no starred arguments, ``inline`` that it names
    every field positionally."""

    __slots__ = ("i", "lineno", "schema", "typed", "inline")


class BodyAnalysis:
    """What one rule body says.  ``source is None`` when the body could
    not be read at all; ``meta is None`` exactly when ``refusal`` says
    why the sites could not all be resolved."""

    __slots__ = ("source", "ctx_name", "trig_name", "env", "elem", "sites",
                 "query_sites", "put_sites", "meta", "refusal")

    def __init__(self, refusal: str | None = None):
        self.source = None
        self.sites: dict[tuple, Any] = {}  # site_key(call) -> record
        self.query_sites: list[QuerySite] = []  # those with a known table
        self.put_sites: list[PutSite] = []
        self.meta: RuleMeta | None = None
        self.refusal = refusal


def site_key(node: ast.AST) -> tuple:
    """Identifies a call node across two parses of the same source."""
    return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def range_values(node: ast.Dict) -> list[ast.expr]:
    """The value expressions of a literal ``ranges=`` dict, in the order
    :attr:`QuerySite.ranges` lists their forms."""
    out: list[ast.expr] = []
    for v in node.values:
        out.extend(v.values if isinstance(v, ast.Dict) else v.elts)
    return out


def ctx_method(node: ast.AST, ctx_name: str) -> str | None:
    """``m`` when ``node`` is a direct ``ctx.m(...)`` call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == ctx_name
    ):
        return node.func.attr
    return None


# -- variable tracking prepass -----------------------------------------------


def _bound_in(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """Every ``(name, binding node)`` under ``node``: assignment, loop,
    ``with`` and ``del`` targets, nested definitions and their
    parameters, exception handlers, imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            yield n.id, n
        elif isinstance(n, ast.arg):
            yield n.arg, n
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield n.name, n
        elif isinstance(n, ast.ExceptHandler) and n.name:
            yield n.name, n
        elif isinstance(n, ast.alias):
            yield (n.asname or n.name).split(".")[0], n


def _collect_tracking(
    fn: ast.FunctionDef, ctx_name: str, trig_name: str, env: dict, trigger_schema
) -> dict:
    """Names provably bound to JTuples of one schema throughout the
    body: the trigger parameter (when never rebound) and for-loop
    targets iterating a ``ctx.get`` result (directly or via a variable
    that only ever holds such a result).  Conservative: any other
    binding of a name untracks it everywhere."""

    def got(node):  # the schema a ``ctx.get(Table, ...)`` yields elements of
        if ctx_method(node, ctx_name) == "get" and node.args:
            h = env.get(getattr(node.args[0], "id", None))
            return h.schema if isinstance(h, TableHandle) else None

    how: dict[int, tuple] = {}  # id(target Name) -> how a tracked form binds it
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and got(node.value):
            how[id(node.targets[0])] = ("list", got(node.value))
        elif isinstance(node, ast.For) and got(node.iter):
            how[id(node.target)] = ("elem", got(node.iter))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
            how[id(node.target)] = ("elem_of", node.iter.id)
    bindings: dict[str, list] = {}
    for stmt in fn.body:
        for name, node in _bound_in(stmt):
            bindings.setdefault(name, []).append(how.get(id(node), ("other",)))

    def one_schema(srcs, schema_of):
        schemas = [schema_of(s) for s in srcs]
        return schemas[0] if all(s is not None and s is schemas[0] for s in schemas) else None

    lists = {
        n: one_schema(srcs, lambda s: s[1] if s[0] == "list" else None)
        for n, srcs in bindings.items()
    }
    elem = {
        n: one_schema(
            srcs,
            lambda s: s[1] if s[0] == "elem" else lists.get(s[1]) if s[0] == "elem_of" else None,
        )
        for n, srcs in bindings.items()
    }
    elem = {n: sch for n, sch in elem.items() if sch is not None}
    if trig_name in bindings:
        # rebound somewhere (even by a loop over its own table): which
        # tuple the name holds depends on where it is read
        elem.pop(trig_name, None)
    else:
        elem[trig_name] = trigger_schema
    return elem


# -- the analyser -------------------------------------------------------------


class _Opaque(Exception):
    """An expression with no linear translation (not an error)."""


_COMPARE = {
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Eq: lambda a, b: a.eq(b),
}
_NEGATED = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt}
_RANGE_REL = {"lt": ast.Lt, "le": ast.LtE, "gt": ast.Gt, "ge": ast.GtE}


class _Analyser(ast.NodeVisitor):
    """Walks one body in program order, keeping the symbolic state that
    holds at each site: path conditions (``when``), in-scope loop
    variables (``bindings`` / ``fields``) and the single-assignment
    locals whose value is a known Term or ``ctx.get`` result (``vals``)."""

    def __init__(self, rule: "Rule", out: BodyAnalysis, fn: ast.FunctionDef):
        self.out = out
        self.meta = RuleMeta(rule.trigger)
        #: how many places bind each local; only once-bound ones inline
        self.stores = Counter(n for stmt in fn.body for n, _ in _bound_in(stmt))
        self.stores.update((out.ctx_name, out.trig_name))
        self.when: list[Constraint] = []
        self.bindings: list = []
        self.vals: dict[str, Term | SymQuery] = {}
        #: tuple variables in scope -> {numeric field: Term}
        self.fields: dict[str, dict[str, Term]] = {}
        if out.trig_name in out.elem:
            self.fields[out.trig_name] = self.meta.trigger
        self._fresh = 0

    def _refuse(self, reason: str) -> None:
        if self.out.refusal is None:
            self.out.refusal = reason

    # -- the one expression -> Term translation -----------------------------

    def term(self, node: ast.AST) -> Term:
        if isinstance(node, ast.Constant):
            v = node.value
        elif isinstance(node, ast.Name):
            v = self.vals.get(node.id)
            if isinstance(v, Term):
                return v
            # a numeric closure or module constant
            v = None if node.id in self.stores else self.out.env.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            t = self.fields.get(node.value.id, {}).get(node.attr)
            if t is None or shadowed(node.attr):
                raise _Opaque()
            return t
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            t = self.term(node.operand)
            return -t if isinstance(node.op, ast.USub) else t
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            left, right = self.term(node.left), self.term(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if left.is_constant():
                return right * left.constant
            if right.is_constant():
                return left * right.constant
            raise _Opaque()
        else:
            raise _Opaque()
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _Opaque()
        return Term({}, v)

    def term_or_fresh(self, node: ast.AST) -> Term:
        try:
            return self.term(node)
        except _Opaque:
            self._fresh += 1
            return var(f"opaque{self._fresh}")

    def atoms(self, test: ast.AST, negate: bool = False) -> list[Constraint]:
        """Linear constraints implied by ``test`` (by ``not test`` when
        ``negate``); what has no linear reading is dropped — sound
        weakening.  A negated conjunction or equality is a disjunction
        and is dropped whole."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self.atoms(test.operand, not negate)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and not negate:
            return [a for v in test.values for a in self.atoms(v)]
        if not isinstance(test, ast.Compare) or (negate and len(test.ops) > 1):
            return []
        out = []
        for left, op, right in zip([test.left] + test.comparators, test.ops, test.comparators):
            rel = _NEGATED.get(type(op)) if negate else type(op)
            if rel in _COMPARE:
                try:
                    out.append(_COMPARE[rel](self.term(left), self.term(right)))
                except _Opaque:
                    pass
        return out

    # -- names and statements ------------------------------------------------

    def visit_Name(self, node):
        if node.id == self.out.ctx_name:
            self._refuse(
                "the rule context escapes the body (used outside a "
                "direct ctx.<method>(...) call)"
            )

    def walk(self, stmts, conds: list[Constraint] = ()) -> None:
        """Visit a block under extra path conditions."""
        when = self.when
        self.when = when + list(conds)
        for stmt in stmts:
            self.visit(stmt)
        self.when = when

    def visit_Assign(self, node):
        got = self.visit(node.value)
        for t in node.targets:
            self.visit(t)
        t = node.targets[0]
        if len(node.targets) == 1 and isinstance(t, ast.Name) and self.stores[t.id] == 1:
            if isinstance(got, SymQuery) and ctx_method(node.value, self.out.ctx_name) == "get":
                self.vals[t.id] = got
            else:
                try:
                    self.vals[t.id] = self.term(node.value)
                except _Opaque:
                    pass

    def visit_If(self, node):
        self.visit(node.test)
        self.walk(node.body, self.atoms(node.test))
        self.walk(node.orelse, self.atoms(node.test, negate=True))

    def visit_While(self, node):
        self.visit(node.test)
        self.walk(node.body, self.atoms(node.test))
        self.walk(node.orelse)

    def visit_For(self, node):
        q = self.visit(node.iter)
        if isinstance(node.iter, ast.Name):
            q = self.vals.get(node.iter.id)
        self.visit(node.target)
        target = getattr(node.target, "id", None)
        schema = self.out.elem.get(target)
        if schema is None:
            self.walk(node.body)
        else:
            # the loop variable's fields become fresh symbolic variables,
            # constrained by the iterated query and by the table invariant
            self._fresh += 1
            fields = _field_vars(schema, f"{target}{self._fresh}")
            conds: list[Constraint] = []
            if isinstance(q, SymQuery) and q.schema is schema:
                conds = [fields[f].eq(t) for f, t in q.bound.items() if f in fields]
                if q.constraints is not None:
                    conds.extend(q.constraints(fields))
            outer = self.fields
            self.fields = {**outer, target: fields}
            self.bindings.append((schema, fields))
            self.walk(node.body, conds)
            self.bindings.pop()
            self.fields = outer
        self.walk(node.orelse)

    def _nested_scope(self, node):
        """A nested function, lambda or comprehension: runs at an
        unknown time with locals of its own, so only the immutable
        trigger is known inside."""
        saved = self.when, self.bindings, self.vals, self.fields
        self.when, self.bindings, self.vals = [], [], {}
        self.fields = {k: v for k, v in self.fields.items() if v is self.meta.trigger}
        self.generic_visit(node)
        self.when, self.bindings, self.vals, self.fields = saved

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _nested_scope
    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _nested_scope

    # -- ctx.* calls ---------------------------------------------------------

    def visit_Call(self, node):
        m = ctx_method(node, self.out.ctx_name)
        if m is None:
            return self.generic_visit(node)
        for sub in node.args + [kw.value for kw in node.keywords]:
            self.visit(sub)
        if m in QUERY_KINDS:
            return self._query_site(m, node)
        if m == "put":
            return self._put_site(node)
        if m not in _INERT:
            self._refuse(f"unsupported context method ctx.{m}(...)")
        return None

    def _branch(self) -> Branch:
        b = Branch(when=list(self.when), bindings=list(self.bindings))
        self.meta.branches.append(b)
        return b

    def _query_site(self, flavor: str, node: ast.Call) -> SymQuery | None:
        s = QuerySite()
        s.i = len(self.out.query_sites)
        s.lineno, s.flavor, s.kind = node.lineno, flavor, QUERY_KINDS[flavor]
        s.refuse = s.min_pos = s.key_args = None
        s.prefix_arity, s.eq_names, s.ranges = 0, (), ()
        self.out.sites[site_key(node)] = s

        def no_emit(reason: str) -> None:
            if s.refuse is None:
                s.refuse = reason

        if flavor == "native":
            no_emit("unsupported context method ctx.native(...)")
        s.handle = self.out.env.get(getattr(node.args[0], "id", None)) if node.args else None
        if not isinstance(s.handle, TableHandle):
            no_emit("query table argument is not a statically-known table handle")
            return self._refuse(s.refuse)
        self.out.query_sites.append(s)
        schema = s.handle.schema
        prefix = node.args[1:]
        if any(isinstance(a, ast.Starred) for a in node.args):
            no_emit("starred query arguments")
            prefix = []
        eq: list[tuple[str, ast.expr]] = []
        ranges: list[tuple[str, Any, list]] = []  # (field, form, value exprs)
        kwargs = {kw.arg: kw.value for kw in node.keywords}
        for name, value in kwargs.items():
            if name is None:
                no_emit("**kwargs in a query call")
            elif name == "where":
                if not (isinstance(value, ast.Constant) and value.value is None):
                    no_emit("where= lambdas are opaque to generated code")
            elif name == "ranges":
                ranges = self._parse_ranges(value, schema, no_emit)
            elif flavor == "get_min" and name == "by":
                s.min_pos = schema.index.get(getattr(value, "value", None))
                if s.min_pos is None:
                    no_emit("get_min by= must be a literal field name")
            elif flavor == "reduce" and name in ("reducer", "value"):
                pass  # emitted after the constraints, in signature order
            elif name in schema.index:
                eq.append((name, value))
            else:
                no_emit(f"{schema.name} has no field {name!r}")
        if flavor == "reduce" and not {"reducer", "value"} <= kwargs.keys():
            no_emit("ctx.reduce(...) without reducer=/value=")
        if flavor == "get_min" and "by" not in kwargs:
            no_emit("ctx.get_min(...) without by=")
        s.prefix_arity = len(prefix)
        s.eq_names = tuple(n for n, _ in eq)
        s.ranges = tuple((f, form) for f, form, _ in ranges)
        positions = list(range(len(prefix))) + [schema.index[n] for n in s.eq_names]
        if len(set(positions)) != len(positions):
            no_emit("a query field is constrained twice")
        elif (
            flavor in ("get_uniq", "absent")
            and not ranges
            and schema.has_key
            and sorted(positions) == sorted(schema.key_indexes)
        ):
            pos2arg = {p: j for j, p in enumerate(positions)}
            s.key_args = tuple(pos2arg[p] for p in schema.key_indexes)

        bound = {
            name: self.term_or_fresh(value)
            for name, value in list(zip(schema.field_names, prefix)) + eq
        }
        limits = tuple(
            (field, _RANGE_REL[op], self.term_or_fresh(e))
            for field, form, exprs in ranges
            for op, e in zip(("ge", "le") if form == "pair" else form, exprs)
        )

        def constraints(qf):
            return [_COMPARE[rel](qf[f], t) for f, rel, t in limits if f in qf]

        q = SymQuery(schema, s.kind, bound, constraints if limits else None)
        self._branch().queries.append(q)
        return q

    def _parse_ranges(self, node: ast.AST, schema, no_emit) -> list:
        """``(field, form, value exprs)`` per entry of a literal
        ``ranges=`` dict; anything else leaves the range fields unknown
        to both consumers."""
        out = []
        for k, v in zip(node.keys, node.values) if isinstance(node, ast.Dict) else [(None, None)]:
            ops = None
            if isinstance(v, ast.Dict):
                ops = tuple(getattr(o, "value", None) for o in v.keys)
                ops = ops if all(o in _RANGE_REL for o in ops) else None
            elif isinstance(v, ast.Tuple) and len(v.elts) == 2:
                ops = "pair"
            if ops is None or getattr(k, "value", None) not in schema.index:
                no_emit(_BAD_RANGES)
                return []
            out.append((k.value, ops, v.values if ops != "pair" else v.elts))
        return out

    def _put_site(self, node: ast.Call) -> None:
        p = PutSite()
        p.i, p.lineno = len(self.out.put_sites), node.lineno
        p.schema, p.typed, p.inline = None, False, False
        self.out.sites[site_key(node)] = p
        self.out.put_sites.append(p)
        arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
        f = arg.func if isinstance(arg, ast.Call) else None
        if isinstance(f, ast.Attribute) and f.attr == "new":
            f = f.value
        handle = self.out.env.get(f.id) if isinstance(f, ast.Name) else None
        if not isinstance(handle, TableHandle):
            return self._refuse(
                "ctx.put(...) of something other than a constructor call "
                "on a statically-known table handle"
            )
        schema = p.schema = handle.schema
        p.typed = not any(isinstance(a, ast.Starred) for a in arg.args)
        p.inline = p.typed and len(arg.args) == len(schema.fields) and not arg.keywords
        fields: dict[str, Term] = {}
        if p.typed and all(k.arg in schema.index for k in arg.keywords):
            given = dict(zip(schema.field_names, arg.args))
            given.update((k.arg, k.value) for k in arg.keywords)
            for name, value in given.items():
                try:
                    fields[name] = self.term(value)
                except _Opaque:
                    pass
            # omitted fields take their type defaults at run time — the
            # prover sees e.g. frame = 0 for a defaulted int
            for fld in schema.fields:
                if fld.name not in given and fld.type in _NUMERIC:
                    fields[fld.name] = Term({}, int(fld.default))
        self._branch().puts.append(SymPut(schema, fields))


# -- entry points -------------------------------------------------------------


def analyse_rule(rule: "Rule") -> BodyAnalysis:
    """Read ``rule``'s body (see module docstring).  Never raises for a
    body it cannot read — the refusal is the result — and never swallows
    a defect of its own: an unexpected exception propagates."""
    body = rule.body
    if inspect.unwrap(body) is not body:
        # getsource follows __wrapped__, globals and closure would not:
        # the source read is not the code that runs
        return BodyAnalysis("rule body wraps another function (__wrapped__)")
    try:
        src = textwrap.dedent(inspect.getsource(body))
    except (OSError, TypeError):
        return BodyAnalysis("rule body source is unavailable")
    try:
        tree = ast.parse(src)
    except SyntaxError:
        return BodyAnalysis("rule body source does not parse standalone")
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return BodyAnalysis("rule body is not a plain function")
    fn = tree.body[0]
    args = fn.args
    if (
        args.vararg
        or args.kwarg
        or args.kwonlyargs
        or args.defaults
        or args.kw_defaults
        or len(args.posonlyargs) + len(args.args) != 2
    ):
        return BodyAnalysis("rule body signature is not (ctx, trigger)")
    env = dict(body.__globals__)
    for name, cell in zip(body.__code__.co_freevars, body.__closure__ or ()):
        try:
            env[name] = cell.cell_contents
        except ValueError:
            return BodyAnalysis(f"closure cell {name!r} is empty")

    out = BodyAnalysis()
    out.source = src
    out.ctx_name, out.trig_name = (a.arg for a in args.posonlyargs + args.args)
    out.env = env
    out.elem = _collect_tracking(fn, out.ctx_name, out.trig_name, env, rule.trigger.schema)
    walker = _Analyser(rule, out, fn)
    walker.walk(fn.body)
    if out.refusal is None:
        out.meta = walker.meta
    return out
