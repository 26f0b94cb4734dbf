"""Unit tests for the compiled-plan layer (:mod:`repro.plan`).

The contract under test: for every call shape and every store kind, the
planned path is observationally identical to its function-level
references — the query :func:`~repro.core.query.build_query` builds,
filtered by :meth:`Query.matches` over a full scan — with the same
validation errors and the pinned meter charges of the interpreter it
replaced, while compiling each shape exactly once.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecOptions, Program
from repro.core.errors import SchemaError
from repro.core.ordering import evaluate_orderby
from repro.core.query import QueryKind, build_query
from repro.core.reducers import SumReducer


def plan_program():
    """One program exercising every query style the context offers."""
    p = Program("plans")
    Edge = p.table("Edge", "int src, int dst, int w", orderby=("Init", "par src"))
    Dist = p.table("Dist", "int v, int d", orderby=("Run", "seq d", "par v"))
    Done = p.table("Done", "int v", orderby=("End",))
    p.order("Init", "Run", "End")

    @p.foreach(Dist)
    def relax(ctx, dist):
        # positional-prefix positive query
        for e in ctx.get(Edge, dist.v):
            # named-eq + where
            better = ctx.get(Dist, v=e.dst, where=lambda t: t.d <= dist.d + e.w)
            if not better:
                ctx.put(Dist.new(e.dst, dist.d + e.w))
        # negative query on an Init-ordered table: statically past-bounded
        if ctx.absent(Edge, src=dist.v, where=lambda t: t.w < 0):
            ctx.put(Done.new(dist.v))

    @p.foreach(Done, assume_stratified=True)
    def summarise(ctx, done):
        # pair-form range + aggregate reduce
        total = ctx.reduce(
            Dist,
            reducer=SumReducer(),
            value=lambda t: t.d,
            ranges={"d": (0, 100)},
        )
        # op-dict range form
        n_far = ctx.count(Dist, ranges={"d": {"ge": 2, "lt": 100}})
        # get_min aggregate
        best = ctx.get_min(Dist, by="d")
        # get_uniq on a fully-constrained shape
        me = ctx.get_uniq(Edge, src=0, dst=1)
        assert me is not None
        ctx.println(f"v={done.v} total={total} far={n_far} min={best.d}")

    for (s, d, w) in [(0, 1, 1), (0, 2, 4), (1, 2, 1), (2, 3, 2)]:
        p.put(Edge.new(s, d, w))
    p.put(Dist.new(0, 0))
    return p


#: ``plan_program()`` ledgers as the generic build_query-per-firing
#: interpreter produced them at the last commit that had one (21ca2de,
#: ``plan_cache=False``).  The compiled-plan path replaced it; these
#: literals are what is left of it as a reference.
_OUTPUT = [f"v={v} total=11 far=3 min=0" for v in range(4)]
_COUNTERS = {
    "delta_insert": 13, "delta_pop": 13, "rule_fire": 9, "tuple_put": 14,
    "reduce_op": 20, "gamma_insert:Dist": 5, "gamma_insert:Done": 4,
    "gamma_insert:Edge": 4, "gamma_lookup:Dist": 17, "gamma_lookup:Edge": 14,
    "gamma_result:Dist": 53, "gamma_result:Edge": 9,
}
_COSTS = {
    "delta_insert": 91.0, "delta_pop": 71.5, "rule_fire": 4.5, "tuple_put": 14.0,
    "reduce_op": 6.0, "gamma_insert:Dist": 15.0, "gamma_insert:Done": 12.0,
    "gamma_insert:Edge": 12.0, "gamma_lookup:Dist": 51.0, "gamma_lookup:Edge": 42.0,
    "gamma_result:Dist": 15.9, "gamma_result:Edge": 2.7,
}


def _swap(d: dict, old: str, **new) -> dict:
    return {**{k: v for k, v in d.items() if k != old}, **new}


#: (options, counters, costs, shared, virtual_time)
PINNED = {
    "off": (dict(), _COUNTERS, _COSTS, {"delta": 27.3}, 342.36045778460755),
    # the planner reads every query site off the rule bodies: hash(src)
    # and hash(dst, src) on Edge, hash(v) and sorted(d) on Dist serve
    # every query at probe cost and charge their maintenance on insert
    # (re-pinned when metas became derived: the hand meta this program
    # used to carry declared one of its five access patterns)
    "auto": (
        dict(index_mode="auto"),
        _swap(
            _swap(_COUNTERS, "gamma_lookup:Edge", **{"gamma_ixlookup:Edge": 14}),
            "gamma_lookup:Dist",
            **{"gamma_ixlookup:Dist": 17},
        ),
        _swap(
            _swap(
                _COSTS,
                "gamma_lookup:Edge",
                **{"gamma_ixlookup:Edge": 16.8, "gamma_insert:Edge": 16.8},
            ),
            "gamma_lookup:Dist",
            **{"gamma_ixlookup:Dist": 30.0, "gamma_insert:Dist": 21.0},
        ),
        {"delta": 27.3},
        306.96045778460757,
    ),
    # concurrent stores: dearer ops, a serialised fraction per table
    "forkjoin": (
        dict(strategy="forkjoin", threads=4),
        _COUNTERS,
        {
            **_COSTS,
            "gamma_insert:Dist": 30.0, "gamma_insert:Done": 24.0,
            "gamma_insert:Edge": 24.0, "gamma_lookup:Dist": 85.0,
            "gamma_lookup:Edge": 70.0, "gamma_result:Dist": 26.5,
            "gamma_result:Edge": 4.5,
        },
        {"delta": 27.3, "gamma:Dist": 21.225, "gamma:Done": 3.6, "gamma:Edge": 14.775},
        297.36045778460755,
    ),
}


@pytest.mark.parametrize("leg", sorted(PINNED))
def test_planned_ledger_matches_pinned_reference(leg):
    """Output, table sizes, meter counters, per-counter costs, shared
    fractions and virtual time of the planned path, for plain, indexed
    and concurrent stores."""
    options, counters, costs, shared, virtual_time = PINNED[leg]
    got = plan_program().run(ExecOptions(**options))
    assert got.output == _OUTPUT
    assert got.table_sizes == {"Edge": 4, "Dist": 5, "Done": 4}
    assert got.meter.counters == counters
    assert got.meter.costs == pytest.approx(costs)
    assert got.meter.shared == pytest.approx(shared)
    assert got.virtual_time == pytest.approx(virtual_time)


# -- plans.lookup -> prepared.run against function-level references ----------

_FIELDS = ("a", "b", "c")
_ROWS = [
    (a, b, c) for a in range(4) for b in range(3) for c in range(4) if (a + 2 * b + c) % 3
]
_WHERES = [None, lambda t: t.c % 2 == 0]
_val = st.integers(min_value=0, max_value=3)
_range_spec = st.one_of(
    st.tuples(st.none() | _val, st.none() | _val),  # pair form, open ends
    # op-dict form: the key *order* is part of the shape
    st.lists(st.sampled_from(["gt", "ge", "lt", "le"]), min_size=1, unique=True).flatmap(
        lambda ops: st.fixed_dictionaries({op: _val for op in ops})
    ),
)


@st.composite
def _call(draw):
    """One ``ctx.get``-family call: positional prefix, named eq fields
    (in any kwarg order), range specs, residual ``where``, kind."""
    n_prefix = draw(st.integers(0, 3))
    prefix = tuple(draw(_val) for _ in range(n_prefix))
    rest = draw(st.permutations(_FIELDS[n_prefix:]))
    n_eq = draw(st.integers(0, len(rest)))
    eq = {name: draw(_val) for name in rest[:n_eq]}
    n_rng = draw(st.integers(0, len(rest) - n_eq))
    ranges = {name: draw(_range_spec) for name in rest[n_eq : n_eq + n_rng]}
    return prefix, eq, ranges or None, draw(st.sampled_from(_WHERES)), draw(
        st.sampled_from(list(QueryKind))
    )


@functools.lru_cache(maxsize=None)
def _populated_kernel(index_mode: str):
    from repro.core.kernel import StepKernel
    from repro.solver import RuleMeta

    p = Program("shapes")
    T = p.table("T", "int a, int b, int c", orderby=("T",))
    Probe = p.table("Probe", "int b", orderby=("Z",))
    p.order("T", "Z")
    meta = RuleMeta(Probe)
    meta.branch().query(T, b=meta.trigger["b"])  # auto mode: hash(b) on T

    @p.foreach(Probe, meta=meta)
    def probe(ctx, t):
        ctx.get(T, b=t.b)

    kernel = StepKernel(p, ExecOptions(index_mode=index_mode))
    kernel.feed([T.new(*row) for row in _ROWS])
    kernel.drain()
    return kernel, T


@pytest.mark.parametrize("index_mode", ["off", "auto"])
@settings(max_examples=150, deadline=None)
@given(call=_call())
def test_planned_select_equals_brute_force(index_mode, call):
    """``plans.lookup`` builds the query ``build_query`` would, field
    for field, and its prepared select returns exactly the value-sorted
    brute-force filter of the table — on first compile and from cache."""
    kernel, T = _populated_kernel(index_mode)
    store = kernel.db.store("T")
    assert (type(store).__name__ == "IndexedStore") == (index_mode == "auto")
    prefix, eq, ranges, where, kind = call
    ref = build_query(T, *prefix, where=where, ranges=ranges, kind=kind, **eq)
    brute = sorted((t for t in store.scan() if ref.matches(t)), key=lambda t: t.values)
    for _ in range(2):
        plan, q = kernel._plans.lookup(T, prefix, where, ranges, eq, kind)
        assert q.schema is ref.schema and q.kind is ref.kind and q.where is ref.where
        assert list(q.eq.items()) == list(ref.eq.items())
        assert list(q.ranges.items()) == list(ref.ranges.items())
        assert plan.prepared.run(q) == brute


def test_shapes_compile_once():
    from repro.core.engine import Engine

    p = plan_program()
    e = Engine(p, ExecOptions())
    assert e._plans is not None
    assert len(e._plans) == 0  # a shape compiles when a rule first asks for it
    e.run()
    n_plans = len(e._plans)
    assert n_plans > 0
    # a second engine over the same program compiles the same shapes
    e2 = Engine(p, ExecOptions())
    e2.run()
    assert len(e2._plans) == n_plans


def test_validation_errors_survive_planning():
    p = Program("bad")
    T = p.table("T", "int a, int b", orderby=("T",))
    boom: list[Exception] = []

    @p.foreach(T)
    def r(ctx, t):
        try:
            ctx.get(T, nosuch=1)
        except SchemaError as e:
            boom.append(e)
        try:
            ctx.get(T, nosuch=1)  # second call: same error, not a cached plan
        except SchemaError as e:
            boom.append(e)

    p.put(T.new(1, 2))
    p.run()
    assert len(boom) == 2


def test_bad_range_spec_rejected():
    p = Program("badrange")
    T = p.table("T", "int a", orderby=("T", "seq a"))
    errs: list[Exception] = []

    @p.foreach(T, assume_stratified=True)
    def r(ctx, t):
        try:
            ctx.count(T, ranges={"a": [1, 2, 3]})
        except SchemaError as e:
            errs.append(e)

    p.put(T.new(1))
    p.run()
    assert len(errs) == 1


def test_compiled_timestamper_matches_evaluate_orderby():
    from repro.plan.timestamps import CompiledTimestamper

    p = Program("ts")
    A = p.table("A", "int x, int y", orderby=("Lit1", "seq x", "par y"))
    B = p.table("B", "int x", orderby=("OnlyLit",))
    p.order("Lit1", "OnlyLit")
    p.freeze()
    for handle, values in [(A, (3, 7)), (A, (0, 0)), (B, (5,))]:
        schema = handle.schema
        compiled = CompiledTimestamper(schema, p.decls)
        tup = handle.new(*values)
        fields = dict(zip(schema.field_names, tup.values))
        expect = evaluate_orderby(schema.orderby, fields, p.decls)
        got = compiled.timestamp(tup.values)
        assert got.key == expect.key
        assert got.display == expect.display


def test_all_literal_orderby_is_constant():
    from repro.plan.timestamps import CompiledTimestamper

    p = Program("const")
    B = p.table("B", "int x", orderby=("OnlyLit",))
    p.freeze()
    c = CompiledTimestamper(B.schema, p.decls)
    t1 = c.timestamp((1,))
    t2 = c.timestamp((2,))
    assert t1 is t2  # one shared Timestamp for the whole table


def test_compiled_bound_matches_query_upper_bound():
    from repro.core.query import QueryKind, build_query
    from repro.core.rules import query_upper_bound
    from repro.plan.compile import compile_bound

    p = Program("bounds")
    T = p.table("T", "int a, int b", orderby=("L", "seq a", "par b"))
    p.freeze()

    cases = [
        dict(eq={"a": 3}),
        dict(ranges={"a": (0, 9)}),
        dict(ranges={"a": {"lt": 9}}),
        dict(ranges={"a": {"ge": 1}}),  # no upper bound -> None at runtime
        dict(eq={"b": 1}),  # seq level unconstrained -> no static bound
    ]
    for kw in cases:
        q = build_query(T, kind=QueryKind.NEGATIVE, **kw.get("eq", {}), ranges=kw.get("ranges"))
        expect = query_upper_bound(q, p.decls)
        cb = compile_bound(T.schema, q, p.decls)
        if cb is None:
            assert expect is None
        else:
            assert cb.evaluate(q) == expect
