"""The Delta map's structure check and its footprint.

A literal level never orders against a ``seq`` level: the tree refuses
the insert whose class would sit next to one of the other kind after
equal levels.  Only tables whose orderby lists can clash are checked,
and checking the new class's neighbours finds every clash, because any
key between two clashing keys clashes with one of them.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.matmul import build_matmul_program
from repro.apps.median import build_median_program
from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program, run_shortestpath
from repro.core import delta as delta_module
from repro.core.delta import DeltaTree, can_clash
from repro.core.errors import OrderingError
from repro.core.ordering import OrderDecls, compare_timestamps, evaluate_orderby
from repro.core.program import ExecOptions, Program
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle


def three_tables():
    """``Head`` and ``Tail`` clash at their third level (literal against
    seq); every ``Mid`` key extends a ``Head`` key, so it sorts between
    the two and clashes only with ``Tail``.  ``Free`` clashes with
    nothing."""
    decls = OrderDecls()
    decls.declare("A", "B")
    decls.freeze()
    tables = tuple(
        TableHandle(TableSchema(name, fields, orderby=orderby))
        for name, fields, orderby in (
            ("Head", "int y", ("A", "par y", "B")),
            ("Mid", "int y, int z", ("A", "par y", "B", "seq z")),
            ("Tail", "int y, int x", ("A", "par y", "seq x")),
            ("Free", "int x", ("B", "seq x")),
        )
    )

    def ts(tup):
        return evaluate_orderby(tup.schema.orderby, tup.asdict(), decls)

    return tables, ts


def test_screen_names_only_the_clashing_pairs():
    (head, mid, tail, free), _ = three_tables()
    order = {h.name: h.schema.orderby for h in (head, mid, tail, free)}
    assert can_clash(order["Head"], order["Tail"])
    assert can_clash(order["Mid"], order["Tail"])
    assert not can_clash(order["Head"], order["Mid"])  # a prefix
    assert not any(can_clash(order["Free"], o) for o in order.values())


@pytest.mark.parametrize("screened", [False, True])
def test_refusal_reaches_a_clash_that_is_not_adjacent(screened):
    tables, ts = three_tables()
    head, mid, tail, free = tables
    d = DeltaTree([t.schema for t in tables] if screened else None)
    pending = [head.new(0), mid.new(0, 5), free.new(1)]
    for t in pending:
        assert d.insert(t, ts(t))
    # Tail's key sorts after Mid's, not next to Head's: its neighbour
    # Mid clashes with it too, which is what the check sees
    late = tail.new(0, 1)
    assert compare_timestamps(ts(head.new(0)), ts(mid.new(0, 5))) < 0
    with pytest.raises(OrderingError):
        d.insert(late, ts(late))
    with pytest.raises(OrderingError):
        d.insert_batch([(free.new(2), ts(free.new(2))), (late, ts(late))])
    assert late not in d
    assert d.dump() == [pending[0], pending[1], pending[2], free.new(2)]
    # once the clashing classes are gone, the same key is welcome
    assert d.pop_min_class() == [pending[0]]
    assert d.pop_min_class() == [pending[1]]
    assert d.insert(late, ts(late))


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 2)),
            st.just("pop"),
        ),
        max_size=30,
    ),
    screened=st.booleans(),
)
def test_refusal_matches_pairwise_comparison(ops, screened):
    """An insert is refused exactly when its timestamp is structurally
    incomparable with a pending one (``compare_timestamps`` raises)."""
    tables, ts = three_tables()
    d = DeltaTree([t.schema for t in tables] if screened else None)
    pending: list = []
    for op in ops:
        if op == "pop":
            for t in d.pop_min_class():
                pending.remove(t)
            continue
        which, y, v = op
        tup = tables[which].new(*((y,), (y, v), (y, v), (v,))[which])
        clash = False
        for p in pending:
            try:
                compare_timestamps(ts(tup), ts(p))
            except OrderingError:
                clash = True
        if clash:
            with pytest.raises(OrderingError):
                d.insert(tup, ts(tup))
        elif d.insert(tup, ts(tup)):
            pending.append(tup)
        assert len(d) == len(pending)


def test_a_program_that_cannot_clash_runs_without_the_check(monkeypatch):
    checked: list = []
    clash = delta_module._clash
    monkeypatch.setattr(
        delta_module, "_clash", lambda a, b: checked.append(a) or clash(a, b)
    )
    result = run_shortestpath(GraphSpec(60, 150, seed=3), ExecOptions())
    assert result.steps > 0 and checked == []
    # a program that can clash checks, and refuses the clash it meets
    p = Program()
    P = p.table("P", "int x", orderby=("A", "seq x"))
    Q = p.table("Q", "int x", orderby=("A", "B"))
    p.put(P.new(1))
    p.put(Q.new(1))
    with pytest.raises(OrderingError):
        p.run(ExecOptions())
    assert checked


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ship_program()[0],
        lambda: build_shortestpath_program(GraphSpec(10, 20, seed=1)).program,
        lambda: build_sensor_program().program,
        lambda: build_median_program(np.arange(40.0), n_regions=4).program,
        lambda: build_matmul_program(np.eye(2), np.eye(2)).program,
    ],
    ids=["ship", "shortestpath", "sensors", "median", "matmul"],
)
def test_shipped_apps_cannot_clash(build):
    schemas = list(build().schemas().values())
    assert not any(can_clash(a.orderby, b.orderby) for a in schemas for b in schemas)


def test_insert_remove_cycles_leave_nothing_behind():
    """Retracting pending tuples (a pending base fact's delete, an
    over-deleted derived tuple) leaves no empty class behind: memory
    returns to where it started."""
    p = Program()
    T = p.table("T", "int d, int v", orderby=("Int", "seq d", "T"))
    p.freeze()
    d = DeltaTree(p.schemas().values())

    def cycle(i: int) -> None:
        t = T.new(i, 0)
        ts = evaluate_orderby(T.schema.orderby, t.asdict(), p.decls)
        assert d.insert(t, ts)
        assert d.remove(t, ts)

    cycle(-1)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(5000):
            cycle(i)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes left behind by 5000 cycles"
    assert d.snapshot() == [] and d.peek_min_node() is None and not d
