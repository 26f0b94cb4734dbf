"""Property-based equivalence: ``IndexedStore.select`` ≡ full scan.

Hypothesis generates random tuple populations and random queries (any
combination of equality, range, and residual ``where`` constraints) and
asserts the indexed select returns *exactly* the same tuples — as a
multiset and, because §1.3 determinism rides on iteration order, in the
same sorted-by-values order the default stores yield — as filtering a
full scan through :meth:`Query.matches`, over every base store type and
every index shape, through inserts and discards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import QueryKind, build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.gamma import (
    ConcurrentSkipListStore,
    HashIndexStore,
    HashKeyStore,
    IndexSpec,
    IndexedStore,
    TreeSetStore,
)


def plain_schema() -> TableSchema:
    return TableSchema("Ev", "int a, int b, float c, str s", orderby=("Ev",))


def keyed_schema() -> TableSchema:
    return TableSchema("Kv", "int a, int b -> float c", orderby=("Kv",))


# every index shape: single/multi-field hash, sorted with and without
# a hash prefix
PLAIN_SPECS = (
    IndexSpec(("a",)),
    IndexSpec(("a", "b")),
    IndexSpec(("b",), "c"),
    IndexSpec((), "c"),
)
KEYED_SPECS = (IndexSpec(("a",)), IndexSpec(("b",), "c"))

PLAIN_BASES = [
    pytest.param((lambda s: TreeSetStore(s), True), id="treeset"),
    pytest.param((lambda s: ConcurrentSkipListStore(s), True), id="skiplist"),
    pytest.param((lambda s: HashIndexStore(s, ("a",)), False), id="hashindex"),
]
KEYED_BASES = [
    pytest.param((lambda s: TreeSetStore(s), True), id="treeset"),
    pytest.param((lambda s: HashKeyStore(s), False), id="hashkey"),
]

small_int = st.integers(min_value=0, max_value=4)  # small domain → collisions
small_float = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
small_str = st.sampled_from(["x", "y"])

plain_rows = st.lists(
    st.tuples(small_int, small_int, small_float, small_str), max_size=40
)
keyed_rows = st.lists(st.tuples(small_int, small_int, small_float), max_size=30)

# a range spec over a numeric field: None bounds are open
range_spec = st.fixed_dictionaries(
    {},
    optional={
        "ge": small_float,
        "gt": small_float,
        "le": small_float,
        "lt": small_float,
    },
).filter(bool)


def _queries(schema: TableSchema, draw):
    """Draw one random query against the schema: equality on a random
    field subset, ranges on numeric fields not equality-bound, and an
    optional residual predicate."""
    eq: dict[str, object] = {}
    for f in schema.fields:
        if draw(st.booleans()):
            if f.type == "int":
                eq[f.name] = draw(small_int)
            elif f.type == "float":
                eq[f.name] = draw(small_float)
            else:
                eq[f.name] = draw(small_str)
    ranges: dict[str, dict] = {}
    for f in schema.fields:
        if f.name not in eq and f.type in ("int", "float") and draw(st.booleans()):
            ranges[f.name] = draw(range_spec)
    where = None
    if draw(st.booleans()):
        parity = draw(st.integers(min_value=0, max_value=1))
        where = lambda t: t.values[0] % 2 == parity  # noqa: E731
    return build_query(
        schema, where=where, ranges=ranges or None, kind=QueryKind.POSITIVE, **eq
    )


def _check_equivalence(
    store: IndexedStore, handle: TableHandle, query, sorted_base: bool = True
) -> None:
    """Indexed select ≡ full-scan filter as a multiset always; for the
    sorted default stores also in the exact sorted-by-values order the
    §1.3 determinism argument relies on.  (Hash-based bases scan in
    insertion order, so their *fallback* path legitimately differs in
    order — they are only ever indexed by explicit request.)"""
    expected = sorted(
        (t for t in store.scan() if query.matches(t)), key=lambda t: t.values
    )
    got = list(store.select(query))
    if sorted_base:
        assert got == expected, f"{query!r}: {got} != {expected}"
    else:
        assert sorted(got, key=lambda t: t.values) == expected, (
            f"{query!r}: {got} != {expected}"
        )


class TestPlainSchema:
    @pytest.mark.parametrize("base", PLAIN_BASES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_select_matches_full_scan(self, base, data):
        factory, sorted_base = base
        schema = plain_schema()
        handle = TableHandle(schema)
        store = IndexedStore(factory(schema), PLAIN_SPECS)
        for row in data.draw(plain_rows):
            store.insert(handle.new(*row))
        for _ in range(3):
            _check_equivalence(
                store, handle, _queries(schema, data.draw), sorted_base
            )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_discard_maintains_indexes(self, data):
        schema = plain_schema()
        handle = TableHandle(schema)
        store = IndexedStore(TreeSetStore(schema), PLAIN_SPECS)
        rows = data.draw(plain_rows)
        tuples = [handle.new(*row) for row in rows]
        for t in tuples:
            store.insert(t)
        for t in tuples:
            if data.draw(st.booleans()):
                store.discard(t)
        for _ in range(3):
            _check_equivalence(store, handle, _queries(schema, data.draw))


class TestKeyedSchema:
    @pytest.mark.parametrize("base", KEYED_BASES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_select_matches_full_scan(self, base, data):
        factory, sorted_base = base
        schema = keyed_schema()
        handle = TableHandle(schema)
        store = IndexedStore(factory(schema), KEYED_SPECS)
        seen_keys = set()
        for row in data.draw(keyed_rows):
            t = handle.new(*row)
            if t.key() in seen_keys:
                continue  # the engine's key invariant: one tuple per key
            seen_keys.add(t.key())
            store.insert(t)
        for _ in range(3):
            _check_equivalence(
                store, handle, _queries(schema, data.draw), sorted_base
            )


class TestIndexedStoreBasics:
    """Non-property sanity checks on the wrapper itself."""

    def test_duplicate_insert_not_double_indexed(self):
        schema = plain_schema()
        handle = TableHandle(schema)
        store = IndexedStore(TreeSetStore(schema), (IndexSpec(("a",)),))
        t = handle.new(1, 2, 0.5, "x")
        assert store.insert(t)
        assert not store.insert(handle.new(1, 2, 0.5, "x"))
        assert len(list(store.select(build_query(schema, a=1)))) == 1

    def test_cost_profile_charges_maintenance(self):
        schema = plain_schema()
        base = TreeSetStore(schema)
        store = IndexedStore(base, PLAIN_SPECS)
        assert store.cost.insert_cost > base.cost.insert_cost
        assert store.cost.lookup_cost == base.cost.lookup_cost

    def test_lookup_cost_cheaper_when_index_serves(self):
        schema = plain_schema()
        base = TreeSetStore(schema)
        store = IndexedStore(base, (IndexSpec(("b",)),))
        served = build_query(schema, b=1)
        unserved = build_query(schema, where=lambda t: True)
        ix, scan = store.prepare(served), store.prepare(unserved)
        assert ix.lookup_tag == "ixlookup" and scan.lookup_tag == "lookup"
        assert ix.lookup_cost < scan.lookup_cost == base.cost.lookup_cost

    def test_usage_counters(self):
        schema = keyed_schema()
        handle = TableHandle(schema)
        store = IndexedStore(TreeSetStore(schema), KEYED_SPECS)
        store.insert(handle.new(1, 2, 0.5))
        list(store.select(build_query(schema, a=1, b=2)))  # key path
        list(store.select(build_query(schema, a=1)))       # hash(a)
        list(store.select(build_query(schema, where=lambda t: True)))  # scan
        usage = store.index_usage()
        assert usage["key"] == 1
        assert usage["hash(a)"] == 1
        assert usage["scan"] == 1
