"""freeze()-time rule-body compilation for the codegen execution tier.

The scalar tier interprets every rule firing through a
:class:`~repro.core.rules.RuleContext`: each ``ctx.get`` re-enters the
plan cache through keyword dicts, each ``ctx.put`` re-derives the §4
causality comparison, and every tuple field read goes through
``JTuple.__getattr__``.  This module removes that interpretation layer
once per program: it takes the rule body's source and the site records
:mod:`repro.plan.analyse` resolved for its ``ctx.*`` calls — this module
re-derives nothing about a site — intercepts only those calls, and emits
the whole query-and-put loop as straight-line Python with

* field reads pre-resolved to ``values[i]`` tuple indexing,
* query sites compiled to a prebound ``PreparedSelect.run`` call on an
  inline :class:`~repro.core.query.Query` (or a direct primary-key
  ``lookup_key`` when the store provides one and the site binds the
  whole key),
* put sites that inline the positional ``TableHandle.new`` fast path and
  skip the causality comparison when the orderby structure decides it
  statically (:func:`~repro.plan.timestamps.put_always_causal`) or by
  one seq-value compare (:func:`~repro.plan.timestamps.put_fast_compare`),
* the trigger timestamp, output list, and put buffer passed as plain
  arguments — the generated driver holds no per-firing state, so
  -noDelta cascades may re-enter it freely.

Everything outside ``ctx.*`` — closure variables, helper calls, user
lambdas — resolves against the rule body's own globals and closure
cells, snapshotted when the driver is compiled (kernel init).  Bodies
the compiler cannot prove equivalent *refuse* with a reason string and
keep the scalar path; refusal is per rule, never per firing.

Known, documented divergences from the scalar tier (both gated by the
registry so they cannot be observed): generated bodies emit no trace
events (``trace=True`` downgrades the whole run to scalar) and carry no
cost meter (the codegen executor forces metering off).
``ctx.charge`` arguments that are statically side-effect-free are
dropped entirely; impure arguments are still evaluated for their
effects.
"""

from __future__ import annotations

import ast
import linecache
import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import CausalityError, RuleError
from repro.core.ordering import compare_timestamps
from repro.core.query import Query, QueryKind
from repro.core.reducers import reduce_all
from repro.core.rules import Rule
from repro.core.tuples import JTuple
from repro.gamma.base import TableStore
from repro.plan.analyse import (
    JTUPLE_ATTRS,
    QUERY_KINDS,
    BodyAnalysis,
    PutSite,
    QuerySite,
    ctx_method,
    range_values,
    site_key,
)
from repro.plan.timestamps import put_always_causal, put_fast_compare

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepKernel
    from repro.core.program import Program

__all__ = [
    "CodegenRefusal",
    "CompiledRuleBody",
    "compile_rule",
    "compiled_for",
    "bind_driver",
    "dump_generated_source",
    "all_generated_sources",
]

#: generated source by rule body function, for post-mortem inspection
_SOURCE_BY_BODY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class CodegenRefusal(Exception):
    """Raised (internally) when a rule body cannot be compiled; the
    reason string surfaces as a ``codegen: rule ... kept scalar: ...``
    stats note and the rule fires through the scalar path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _strjoin(vals: tuple) -> str:
    return " ".join(str(a) for a in vals)


def _make_put_check(rule_name: str, db) -> Callable:
    """The full dynamic §4 put comparison, bound once per rule; the
    error message is byte-identical to :meth:`RuleContext.put`'s."""
    timestamp = db.timestamp

    def check(tup, trigger, trigger_ts):
        ts = timestamp(tup)
        if compare_timestamps(ts, trigger_ts) < 0:
            raise CausalityError(
                f"rule {rule_name} put {tup!r} (ts {ts}) into the "
                f"past of its trigger {trigger!r} (ts {trigger_ts})"
            )

    return check


class CompiledRuleBody:
    """One rule body compiled to a driver factory.

    ``make(bindings)`` returns ``driver(trigger, ts, puts, out)``;
    ``bindings`` is the dict :func:`bind_driver` assembles against one
    kernel (plan runs, stores, hit counters, the put check)."""

    __slots__ = (
        "rule_name",
        "source",
        "make",
        "query_sites",
        "put_sites",
        "has_neg_agg",
    )


# -- purity (for dropping ctx.charge argument evaluation) --------------------


def _is_pure(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return _is_pure(node.value)
    if isinstance(node, ast.Subscript):
        return _is_pure(node.value) and _is_pure(node.slice)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_is_pure(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _is_pure(node.left) and _is_pure(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_pure(node.operand)
    if isinstance(node, ast.BoolOp):
        return all(_is_pure(v) for v in node.values)
    if isinstance(node, ast.Compare):
        return _is_pure(node.left) and all(_is_pure(c) for c in node.comparators)
    if isinstance(node, ast.JoinedStr):
        return all(_is_pure(v) for v in node.values)
    if isinstance(node, ast.FormattedValue):
        return _is_pure(node.value)
    if isinstance(node, ast.Call):
        # len() on pure arguments: the dominant ctx.charge shape
        # (``ctx.charge(0.4 * len(neighbours), ...)``)
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and not node.keywords
            and len(node.args) == 1
            and _is_pure(node.args[0])
        )
    return False


# -- the body transformer ----------------------------------------------------


def _name(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Load())


def _call(func: ast.expr, *args: ast.expr, at: ast.AST) -> ast.Call:
    return ast.copy_location(ast.Call(func=func, args=list(args), keywords=[]), at)


class _BodyTransformer(ast.NodeTransformer):
    """Rewrites one body around the site records of its analysis; a
    construct generated code cannot reproduce raises
    :class:`CodegenRefusal`."""

    def __init__(self, rule: Rule, analysis: BodyAnalysis):
        self.rule = rule
        self.ctx_name = analysis.ctx_name
        self.trig_name = analysis.trig_name
        self.elem = analysis.elem  # name -> TableSchema
        self.sites = analysis.sites
        self.uses_tv = False
        self.uses: set[str] = set()  # helper bindings the module needs

    # -- helpers -------------------------------------------------------------

    def _refuse(self, reason: str):
        raise CodegenRefusal(reason)

    # -- names / attributes --------------------------------------------------

    def visit_Name(self, node):
        if node.id == self.ctx_name:
            self._refuse(
                "the rule context escapes the body (used outside a "
                "direct ctx.<method>(...) call)"
            )
        if node.id.startswith("_cg"):
            self._refuse("identifiers starting with '_cg' collide with generated code")
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.elem
            and node.attr not in JTUPLE_ATTRS
        ):
            schema = self.elem[node.value.id]
            pos = schema.index.get(node.attr)
            if pos is not None:
                if node.value.id == self.trig_name:
                    self.uses_tv = True
                    base = _name("_cg_tv")
                else:
                    base = ast.Attribute(value=node.value, attr="values", ctx=ast.Load())
                return ast.copy_location(
                    ast.Subscript(value=base, slice=ast.Constant(value=pos), ctx=ast.Load()),
                    node,
                )
        return node

    # -- constructs that refuse ----------------------------------------------

    def visit_Global(self, node):
        self._refuse("global declarations")

    def visit_Nonlocal(self, node):
        self._refuse("nonlocal declarations")

    def visit_Await(self, node):
        self._refuse("async constructs")

    visit_AsyncFor = visit_AsyncWith = visit_AsyncFunctionDef = visit_Await

    def visit_Yield(self, node):
        self._refuse("generator constructs")

    visit_YieldFrom = visit_Yield

    def _uses_ctx(self, node) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == self.ctx_name
            for n in ast.walk(node)
        )

    def visit_FunctionDef(self, node):
        if self._uses_ctx(node):
            self._refuse(
                f"nested function {node.name!r} uses the rule context"
            )
        return node  # opaque helper: leave untouched

    def visit_Lambda(self, node):
        if self._uses_ctx(node):
            self._refuse("a lambda uses the rule context")
        return self.generic_visit(node)

    # -- statements ----------------------------------------------------------

    def visit_Expr(self, node):
        m = ctx_method(node.value, self.ctx_name)
        if m == "charge":
            call = node.value
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                self._refuse("ctx.charge(...) with starred arguments")
            args = [a for a in call.args] + [k.value for k in call.keywords]
            if all(_is_pure(a) for a in args):
                # metering is off under codegen; pure cost expressions
                # need not be evaluated at all
                return ast.copy_location(ast.Pass(), node)
            vals = [self.visit(a) for a in args]
            keep = vals[0] if len(vals) == 1 else ast.Tuple(
                elts=vals, ctx=ast.Load()
            )
            return ast.copy_location(ast.Expr(value=keep), node)
        if m == "io_allowed":
            if not self.rule.unsafe:
                self._refuse(
                    "ctx.io_allowed() in a rule not declared unsafe"
                )
            return ast.copy_location(ast.Pass(), node)
        return self.generic_visit(node)

    # -- ctx.* calls ---------------------------------------------------------

    def visit_Call(self, node):
        m = ctx_method(node, self.ctx_name)
        if m is None:
            return self.generic_visit(node)
        if m in QUERY_KINDS:
            return self._query_site(self.sites[site_key(node)], node)
        if m == "put":
            return self._put_site(self.sites[site_key(node)], node)
        if m == "println":
            args = [self.visit(a) for a in node.args]
            if any(isinstance(a, ast.Starred) for a in node.args) or node.keywords:
                self._refuse("ctx.println(...) with starred arguments")
            if not args:
                payload = ast.Constant(value="")
            elif len(args) == 1:
                self.uses.add("str")
                payload = _call(_name("_cg_str"), *args, at=node)
            else:
                self.uses.add("strjoin")
                payload = _call(
                    _name("_cg_strjoin"), ast.Tuple(elts=args, ctx=ast.Load()), at=node
                )
            out_append = ast.Attribute(value=_name("_cg_out"), attr="append", ctx=ast.Load())
            return _call(out_append, payload, at=node)
        if m == "io_allowed":
            if not self.rule.unsafe:
                self._refuse("ctx.io_allowed() in a rule not declared unsafe")
            return ast.copy_location(ast.Constant(value=None), node)
        if m == "charge":
            self._refuse("ctx.charge(...) used outside statement position")
        self._refuse(f"unsupported context method ctx.{m}(...)")

    def _query_site(self, s: QuerySite, node: ast.Call) -> ast.Call:
        if s.refuse is not None:
            self._refuse(s.refuse)
        kw = {k.arg: k.value for k in node.keywords}
        args = node.args[1:] + [kw[n] for n in s.eq_names]
        if s.ranges:
            args += range_values(kw["ranges"])
        if s.flavor == "reduce":
            args += [kw["reducer"], kw["value"]]
        return _call(_name(f"_cg_s{s.i}"), *[self.visit(a) for a in args], at=node)

    def _put_site(self, p: PutSite, node: ast.Call) -> ast.Call:
        if len(node.args) != 1 or node.keywords or isinstance(node.args[0], ast.Starred):
            self._refuse("ctx.put(...) must take exactly one tuple argument")
        arg = node.args[0]
        if p.inline:
            payload = ast.Tuple(elts=[self.visit(a) for a in arg.args], ctx=ast.Load())
        else:
            payload = self.visit(arg)
        return _call(
            _name(f"_cg_p{p.i}"), _name("_cg_puts"), _name("_cg_trig"), _name("_cg_ts"),
            payload, at=node,
        )


# -- module assembly ---------------------------------------------------------


def _quad_src(form, syms: list[str]) -> str:
    """Source text of the normalised ``(lo, hi, lo_inc, hi_inc)``
    quadruple — :func:`repro.core.query._normalise_range` replayed at
    compile time over symbolic values."""
    if form == "pair":
        return f"({syms[0]}, {syms[1]}, True, True)"
    lo, hi = "None", "None"
    lo_inc, hi_inc = "True", "True"
    for op, sym in zip(form, syms):
        if op == "gt":
            lo, lo_inc = sym, "False"
        elif op == "ge":
            lo, lo_inc = sym, "True"
        elif op == "lt":
            hi, hi_inc = sym, "False"
        else:  # "le"
            hi, hi_inc = sym, "True"
    return f"({lo}, {hi}, {lo_inc}, {hi_inc})"


def _emit_query_site(s: QuerySite, a) -> None:
    i = s.i
    schema = s.handle.schema
    n_eq = s.prefix_arity + len(s.eq_names)
    eq_syms = [f"_cg_a{j}" for j in range(n_eq)]
    rng_syms: list[str] = []
    rng_parts: list[str] = []
    j = 0
    for field, form in s.ranges:
        n = 2 if form == "pair" else len(form)
        syms = [f"_cg_r{j + k}" for k in range(n)]
        j += n
        rng_syms.extend(syms)
        rng_parts.append(
            f"{schema.field_position(field)}: {_quad_src(form, syms)}"
        )
    positions = list(range(s.prefix_arity)) + [
        schema.field_position(n) for n in s.eq_names
    ]
    eq_src = "{" + ", ".join(f"{p}: {v}" for p, v in zip(positions, eq_syms)) + "}"
    rng_src = "{" + ", ".join(rng_parts) + "}"
    params = eq_syms + rng_syms
    if s.flavor == "reduce":
        params += ["_cg_red", "_cg_val"]
    sig = ", ".join(params)

    a(f"    _s{i}_run = _cg['s{i}_run']")
    a(f"    _s{i}_hits = _cg['s{i}_hits']")
    a(f"    _s{i}_schema = _cg['s{i}_schema']")
    a(f"    _s{i}_kind = _cg['s{i}_kind']")

    def planned_body(emit, indent):
        p = " " * indent
        emit(f"{p}_s{i}_hits[0] += 1")
        emit(
            f"{p}_cg_r = _s{i}_run(_cg_Query(_s{i}_schema, {eq_src}, "
            f"{rng_src}, None, _s{i}_kind))"
        )
        emit(f"{p}_cg_n = _cg_len(_cg_r)")
        emit(f"{p}_s{i}_hits[1] += _cg_n")
        if s.flavor == "get":
            emit(f"{p}return _cg_r")
        elif s.flavor == "exists":
            emit(f"{p}return _cg_bool(_cg_r)")
        elif s.flavor == "absent":
            emit(f"{p}return not _cg_r")
        elif s.flavor == "count":
            emit(f"{p}return _cg_n")
        elif s.flavor == "get_uniq":
            emit(f"{p}if _cg_n > 1:")
            emit(
                f"{p}    raise _cg_RuleError('get uniq? {schema.name} "
                "matched %d tuples' % _cg_n)"
            )
            emit(f"{p}return _cg_r[0] if _cg_r else None")
        elif s.flavor == "get_min":
            emit(f"{p}if not _cg_r:")
            emit(f"{p}    return None")
            emit(f"{p}return _cg_min(_cg_r, key=_cg_s{i}_key)")
        elif s.flavor == "reduce":
            emit(
                f"{p}return _cg_reduce_all(_cg_red, "
                "(_cg_val(_cg_t) for _cg_t in _cg_r))"
            )

    if s.flavor == "get_min":
        a(f"    def _cg_s{i}_key(_cg_t):")
        a(f"        return _cg_t.values[{s.min_pos}]")

    if s.key_args is not None:
        # the binder supplies the store's lookup_key when it overrides
        # the base linear scan; otherwise the planned path runs
        key_src = ", ".join(f"_cg_a{k}" for k in s.key_args)
        if len(s.key_args) == 1:
            key_src += ","
        a(f"    _s{i}_lookup = _cg['s{i}_lookup']")
        a(f"    if _s{i}_lookup is not None:")
        a(f"        def _cg_s{i}({sig}):")
        a(f"            _s{i}_hits[0] += 1")
        a(f"            _cg_t = _s{i}_lookup(({key_src}))")
        a("            if _cg_t is None:")
        a(f"                return {'True' if s.flavor == 'absent' else 'None'}")
        a(f"            _s{i}_hits[1] += 1")
        a(f"            return {'False' if s.flavor == 'absent' else '_cg_t'}")
        a("    else:")
        a(f"        def _cg_s{i}({sig}):")
        planned_body(a, 12)
    else:
        a(f"    def _cg_s{i}({sig}):")
        planned_body(a, 8)


def _emit_put_site(p: PutSite, a, trig_schema, decls) -> None:
    i = p.i
    # "always": statically causal; "ge": one seq compare short-circuits
    # the check; "dyn": the full check (always, for an untyped put)
    mode, pp, tp = "dyn", -1, -1
    if p.typed:
        a(f"    _p{i}_schema = _cg['p{i}_schema']")
        if p.inline:
            a(f"    _p{i}_types = _cg['p{i}_types']")
        if put_always_causal(p.schema, trig_schema, decls):
            mode = "always"
        else:
            fc = put_fast_compare(p.schema, trig_schema)
            if fc is not None:
                mode, (pp, tp) = "ge", fc

    def mk(value_lines, check_lines):
        arg = "_cg_v" if p.inline else "_cg_t"
        a(f"    def _cg_p{i}(_puts, _trig, _ts, {arg}):")
        for ln in value_lines + check_lines:
            a("        " + ln)
        a("        _puts.append(_cg_t)")

    if p.inline:
        build = [
            f"_p{i}_types(_cg_v)",
            f"_cg_t = _cg_JTuple(_p{i}_schema, _cg_v)",
        ]
    elif p.typed:
        build = []
    else:
        build = [
            "if not _cg_isinstance(_cg_t, _cg_JTuple):",
            "    raise _cg_RuleError('put expects a tuple, got %s'"
            " % _cg_type(_cg_t).__name__)",
        ]

    if mode == "always":
        # statically causal: the §4 comparison is decided by the orderby
        # structure alone, with or without a checker
        mk(build, [])
        return
    if mode == "ge":
        # skip the §4 comparison iff the put's seq value strictly
        # exceeds the trigger's (put_fast_compare contract)
        check = [
            f"if _cg_pchk is not None and not _cg_t.values[{pp}]"
            f" > _trig.values[{tp}]:",
            "    _cg_pchk(_cg_t, _trig, _ts)",
        ]
        if p.inline:
            check[0] = (
                f"if _cg_pchk is not None and not _cg_v[{pp}]"
                f" > _trig.values[{tp}]:"
            )
        mk(build, check)
        return
    mk(build, ["if _cg_pchk is not None:", "    _cg_pchk(_cg_t, _trig, _ts)"])


def _assemble(rule, decls, analysis, body_stmts, tr: _BodyTransformer) -> str:
    qsites, psites = analysis.query_sites, analysis.put_sites
    trig_name = analysis.trig_name
    lines: list[str] = []
    a = lines.append
    a(f"# generated rule driver for {rule.name!r}")
    a("def _cg_make(_cg):")
    a("    _cg_Query = _cg['Query']")
    a("    _cg_JTuple = _cg['JTuple']")
    a("    _cg_RuleError = _cg['RuleError']")
    a("    _cg_len = _cg['len']")
    a("    _cg_pchk = _cg['put_check']")
    if any(s.flavor == "exists" for s in qsites):
        a("    _cg_bool = _cg['bool']")
    if any(s.flavor == "get_min" for s in qsites):
        a("    _cg_min = _cg['min']")
    if any(s.flavor == "reduce" for s in qsites):
        a("    _cg_reduce_all = _cg['reduce_all']")
    if not all(p.typed for p in psites):
        a("    _cg_isinstance = _cg['isinstance']")
        a("    _cg_type = _cg['type']")
    if "str" in tr.uses:
        a("    _cg_str = _cg['str']")
    if "strjoin" in tr.uses:
        a("    _cg_strjoin = _cg['strjoin']")
    for s in qsites:
        _emit_query_site(s, a)
    for p in psites:
        _emit_put_site(p, a, rule.trigger.schema, decls)
    a(f"    def _cg_driver({trig_name}, _cg_ts, _cg_puts, _cg_out):")
    if psites:
        a(f"        _cg_trig = {trig_name}")
    if tr.uses_tv:
        a(f"        _cg_tv = {trig_name}.values")
    body_src = "\n".join(ast.unparse(stmt) for stmt in body_stmts)
    for ln in body_src.splitlines():
        a("        " + ln)
    a("    return _cg_driver")
    return "\n".join(lines) + "\n"


# -- compile -----------------------------------------------------------------


def _compile(rule: Rule, program: "Program", analysis: BodyAnalysis) -> CompiledRuleBody:
    body = rule.body
    if analysis.source is None:
        raise CodegenRefusal(analysis.refusal)
    if analysis.ctx_name.startswith("_cg") or analysis.trig_name.startswith("_cg"):
        raise CodegenRefusal(
            "identifiers starting with '_cg' collide with generated code"
        )
    # the analysis keeps positions, not nodes: the transformer rewrites
    # this tree in place and finds each site again by source position
    fn = ast.parse(analysis.source).body[0]
    tr = _BodyTransformer(rule, analysis)
    body_stmts = [tr.visit(stmt) for stmt in fn.body]
    for stmt in body_stmts:
        ast.fix_missing_locations(stmt)

    source = _assemble(rule, program.decls, analysis, body_stmts, tr)
    filename = f"<codegen:{rule.name}:{id(body):x}>"
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(True),
        filename,
    )
    ns = analysis.env.copy()
    code = compile(source, filename, "exec")
    exec(code, ns)

    compiled = CompiledRuleBody()
    compiled.rule_name = rule.name
    compiled.source = source
    compiled.make = ns["_cg_make"]
    compiled.query_sites = tuple(analysis.query_sites)
    compiled.put_sites = tuple(analysis.put_sites)
    compiled.has_neg_agg = any(
        s.kind is not QueryKind.POSITIVE for s in analysis.query_sites
    )
    _SOURCE_BY_BODY[body] = source
    return compiled


def compile_rule(rule: Rule, program: "Program") -> CompiledRuleBody:
    """Compile one rule body, raising :class:`CodegenRefusal` (with a
    human-readable reason) when the body cannot be proven equivalent.
    Reading the body is the analyser's job and its defects are loud;
    only emission failures turn into refusals."""
    analysis = rule.analysis()
    try:
        return _compile(rule, program, analysis)
    except CodegenRefusal:
        raise
    except Exception as e:  # defensive: refusal, never a crash
        raise CodegenRefusal(f"compilation error: {e!r}")


def compiled_for(program: "Program", rule: Rule):
    """``(compiled, None)`` or ``(None, reason)`` for one rule, cached
    on the program — source analysis runs once however many kernels the
    program freezes into."""
    cache = getattr(program, "_codegen_cache", None)
    if cache is None:
        cache = program._codegen_cache = {}
    ent = cache.get(id(rule))
    if ent is None:
        try:
            ent = (compile_rule(rule, program), None)
        except CodegenRefusal as r:
            ent = (None, r.reason)
        cache[id(rule)] = ent
    return ent


# -- bind --------------------------------------------------------------------


def bind_driver(compiled: CompiledRuleBody, kernel: "StepKernel", rule: Rule) -> Callable:
    """Resolve one compiled body against a kernel: register every query
    site's shape in the shared plan cache (the same plans the scalar
    path would hit), hand each site the plan's own ``[n_queries,
    n_results]`` cell for this rule — the collector zeroes it in place
    at settle time — and build the driver."""
    cg: dict[str, Any] = {
        "Query": Query,
        "JTuple": JTuple,
        "RuleError": RuleError,
        "len": len,
        "str": str,
        "min": min,
        "bool": bool,
        "isinstance": isinstance,
        "type": type,
        "strjoin": _strjoin,
        "reduce_all": reduce_all,
        "put_check": (
            None
            if kernel._check_mode == "off"
            else _make_put_check(rule.name, kernel.db)
        ),
    }
    plans = kernel._plans
    for s in compiled.query_sites:
        # shape registration with placeholder values: plan compilation
        # depends only on the constrained positions
        dummy_ranges = {
            f: ((None, None) if form == "pair" else {op: None for op in form})
            for f, form in s.ranges
        } or None
        plan, _probe = plans.lookup(
            s.handle,
            (None,) * s.prefix_arity,
            None,
            dummy_ranges,
            {n: None for n in s.eq_names},
            s.kind,
        )
        cg[f"s{s.i}_run"] = plan.prepared.run
        cg[f"s{s.i}_hits"] = plan.rule_hits.setdefault(rule.name, [0, 0])
        cg[f"s{s.i}_schema"] = s.handle.schema
        cg[f"s{s.i}_kind"] = s.kind
        if s.key_args is not None:
            store = kernel.db.store(s.handle.schema.name)
            cg[f"s{s.i}_lookup"] = (
                store.lookup_key
                if type(store).lookup_key is not TableStore.lookup_key
                else None
            )
    for p in compiled.put_sites:
        if p.typed:
            cg[f"p{p.i}_schema"] = p.schema
            if p.inline:
                cg[f"p{p.i}_types"] = p.schema.check_types
    return compiled.make(cg)


# -- debugging ---------------------------------------------------------------


def dump_generated_source(rule) -> str | None:
    """The generated driver module for ``rule`` (a :class:`Rule` or its
    body function), or ``None`` when the rule refused codegen or was
    never compiled.  Surfaced through the run report's stats notes."""
    body = rule.body if isinstance(rule, Rule) else rule
    try:
        return _SOURCE_BY_BODY.get(body)
    except TypeError:  # unhashable/unweakrefable body
        return None


def all_generated_sources() -> dict[str, str]:
    """Every generated driver module still alive, keyed by the body
    function's qualified name.  The codegen CI job dumps this as a
    failure artifact so a differential break ships the exact code that
    diverged."""
    return {
        f"{body.__module__}.{body.__qualname__}": src
        for body, src in _SOURCE_BY_BODY.items()
    }
