"""Model check of the ordered stores against a sorted list.

Hypothesis runs interleavings of ``insert`` / ``discard`` / ``remove`` /
``in`` / ``lookup_key`` / prefix ``prepare(q).run`` / ``scan`` on
:class:`TreeSetStore` and :class:`ConcurrentSkipListStore`, over a keyed
and an unkeyed table, and checks every answer against a model: the set
of stored rows, read in sorted order.  Each query shape is prepared once,
before the first operation, and run after every mutation — as the plan
cache runs it — so a prepared path that kept a stale view of its store
fails here.  Shapes cover the empty prefix (full scan), every partial
prefix, a fully bound key (the key probe) and a prefix with a residual
on a later field.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import build_query
from repro.core.schema import TableSchema
from repro.gamma import ConcurrentSkipListStore, TreeSetStore

STORES = [
    pytest.param(TreeSetStore, id="treeset"),
    pytest.param(ConcurrentSkipListStore, id="concurrent-skiplist"),
]

A = st.integers(0, 3)
B = st.sampled_from(["", "x", "y"])
C = st.integers(-1, 1)


def keyed_schema() -> TableSchema:
    return TableSchema("Kv", "int a, str b -> int c", orderby=("Kv",))


def plain_schema() -> TableSchema:
    return TableSchema("Ev", "int a, str b, int c", orderby=("Ev",))


def shapes(schema: TableSchema, row: tuple) -> list:
    """The query shapes checked after each operation, bound to ``row``'s
    values: every prefix length, plus a prefix with a residual on ``c``."""
    a, b, c = row
    return [
        build_query(schema),
        build_query(schema, a),
        build_query(schema, a, b),
        build_query(schema, a, c=c),
    ] + ([build_query(schema, a, b, c)] if not schema.has_key else [])


ops = st.lists(
    st.tuples(st.sampled_from(["insert", "discard", "remove", "in", "probe"]), A, B, C),
    max_size=60,
)


def check(store, schema: TableSchema, operations: list, keyed: bool) -> None:
    model: dict[tuple, object] = {}  # values -> the tuple object stored
    prepared = [store.prepare(q) for q in shapes(schema, (0, "", 0))]
    for op, a, b, c in operations:
        if keyed:
            c = a - len(b)  # one row per key: the database keeps keys unique
        values = (a, b, c)
        tup = schema.make_tuple(values)
        if op == "insert":
            assert store.insert(tup) == (values not in model)
            model.setdefault(values, tup)
        elif op in ("discard", "remove"):
            assert getattr(store, op)(tup) == (values in model)
            model.pop(values, None)
        elif op == "in":
            assert (tup in store) == (values in model)
        if keyed:
            got = store.lookup_key((a, b))
            assert got is model.get(values)
        rows = sorted(model)
        assert [t.values for t in store.scan()] == rows
        assert len(store) == len(model)
        for prep, q in zip(prepared, shapes(schema, values)):
            expected = [model[r] for r in rows if q.matches(model[r])]
            assert [t.values for t in prep.run(q)] == [t.values for t in expected]
            assert all(map(operator.is_, prep.run(q), expected))


@pytest.mark.parametrize("store_cls", STORES)
@settings(max_examples=150, deadline=None)
@given(operations=ops)
def test_keyed_store_matches_sorted_model(store_cls, operations):
    schema = keyed_schema()
    check(store_cls(schema), schema, operations, keyed=True)


@pytest.mark.parametrize("store_cls", STORES)
@settings(max_examples=150, deadline=None)
@given(operations=ops)
def test_plain_store_matches_sorted_model(store_cls, operations):
    schema = plain_schema()
    check(store_cls(schema), schema, operations, keyed=False)


@pytest.mark.parametrize("store_cls", STORES)
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(A, B, C), max_size=40), data=st.data())
def test_layout_depends_only_on_the_rows(store_cls, rows, data):
    """Two stores fed the same rows in different orders scan alike and
    answer every prefix alike: nothing but the keys shapes the map."""
    schema = plain_schema()
    first, second = store_cls(schema), store_cls(schema)
    for values in rows:
        first.insert(schema.make_tuple(values))
    for values in data.draw(st.permutations(rows)):
        second.insert(schema.make_tuple(values))
    assert [t.values for t in first.scan()] == [t.values for t in second.scan()]
    for q in shapes(schema, data.draw(st.tuples(A, B, C))):
        assert [t.values for t in first.select(q)] == [t.values for t in second.select(q)]
