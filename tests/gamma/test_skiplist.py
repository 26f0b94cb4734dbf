"""The ordered stores' sorted map, operation by operation.

The paper's ``TreeSet`` / ``ConcurrentSkipListSet`` analogues
(:class:`TreeSetStore`, :class:`ConcurrentSkipListStore`) keep their rows
in one sorted map: a hash table for point probes beside a sorted key
list for ordered scans.  These are its example-level cases — the keyed
map (rows plus the key index) and the set view of the concurrent
variant; ``test_ordered_store_model.py`` checks random interleavings of
the same operations against a model.
"""

from __future__ import annotations

from repro.core.query import build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.gamma import ConcurrentSkipListStore, TreeSetStore


def keyed() -> tuple[TableHandle, TreeSetStore]:
    schema = TableSchema("Kv", "int k -> str v", orderby=("Kv",))
    return TableHandle(schema), TreeSetStore(schema)


def pairs() -> tuple[TableHandle, TreeSetStore]:
    schema = TableSchema("Pair", "int a, int b", orderby=("Pair",))
    return TableHandle(schema), TreeSetStore(schema)


def ints() -> tuple[TableHandle, ConcurrentSkipListStore]:
    schema = TableSchema("Num", "int n", orderby=("Num",))
    return TableHandle(schema), ConcurrentSkipListStore(schema)


def values(store) -> list[tuple]:
    return [t.values for t in store.scan()]


class TestMapBasics:
    def test_insert_get(self):
        T, s = keyed()
        assert s.insert(T.new(3, "c"))
        assert s.insert(T.new(1, "a"))
        assert not s.insert(T.new(3, "c"))  # present: not new
        assert s.lookup_key((3,)).v == "c"
        assert s.lookup_key((1,)).v == "a"
        assert s.lookup_key((9,)) is None
        assert len(s) == 2

    def test_ordered_iteration(self):
        T, s = pairs()
        for k in (5, 1, 4, 2, 3):
            s.insert(T.new(k, k))
        assert values(s) == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]

    def test_items_from(self):
        T, s = pairs()
        for a in range(0, 10, 2):
            for b in (1, 0):
                s.insert(T.new(a, b))
        assert [t.values for t in s.select(build_query(T, 4))] == [(4, 0), (4, 1)]
        assert s.select(build_query(T, 3)) == []  # between keys
        assert s.select(build_query(T, 99)) == []  # past the last key

    def test_min_max(self):
        T, s = pairs()
        assert values(s) == []
        for k in (2, 7, 4):
            s.insert(T.new(k, 0))
        assert values(s)[0] == (2, 0) and values(s)[-1] == (7, 0)

    def test_ceiling(self):
        T, s = pairs()
        for a in (10, 20):
            s.insert(T.new(a, 0))
        # a prefix scan starts at the first row >= the prefix and stops
        # at the first row past it
        assert [t.values for t in s.select(build_query(T, 10))] == [(10, 0)]
        assert s.select(build_query(T, 5)) == []
        assert s.select(build_query(T, 15)) == []
        assert s.select(build_query(T, 25)) == []

    def test_delete(self):
        T, s = pairs()
        for k in range(10):
            s.insert(T.new(k, k))
        assert s.discard(T.new(5, 5))
        assert not s.discard(T.new(5, 5))
        assert T.new(5, 5) not in s
        assert [a for a, _ in values(s)] == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    def test_delete_all_then_reuse(self):
        T, s = keyed()
        for k in range(20):
            s.insert(T.new(k, str(k)))
        for k in range(20):
            assert s.remove(T.new(k, str(k)))
        assert len(s) == 0 and values(s) == [] and s.lookup_key((3,)) is None
        assert s.insert(T.new(1, "x"))
        assert s.lookup_key((1,)).v == "x"

    def test_setdefault(self):
        T, s = keyed()
        first = T.new(1, "a")
        s.insert(first)
        assert not s.insert(T.new(1, "a"))  # an equal tuple is not stored again
        assert s.lookup_key((1,)) is first
        assert next(s.scan()) is first
        assert len(s) == 1

    def test_clear(self):
        T, s = keyed()
        s.insert(T.new(1, "a"))
        s.clear()
        assert len(s) == 0 and values(s) == [] and s.lookup_key((1,)) is None

    def test_contains(self):
        T, s = keyed()
        s.insert(T.new(1, ""))
        assert T.new(1, "") in s and T.new(2, "") not in s
        assert T.new(1, "other") not in s  # membership is by every value

    def test_tuple_keys(self):
        T, s = pairs()
        for row in ((1, 2), (1, 0), (0, 9)):
            s.insert(T.new(*row))
        assert values(s) == [(0, 9), (1, 0), (1, 2)]  # lexicographic

    def test_repr(self):
        _T, s = keyed()
        assert repr(s) == "<TreeSetStore Kv n=0>"


class TestSetBasics:
    def test_add_discard(self):
        T, s = ints()
        assert s.insert(T.new(3))
        assert not s.insert(T.new(3))
        assert T.new(3) in s
        assert s.discard(T.new(3))
        assert not s.discard(T.new(3))

    def test_readd_after_discard(self):
        T, s = ints()
        s.insert(T.new(1))
        s.discard(T.new(1))
        assert s.insert(T.new(1))  # a discarded row leaves nothing behind

    def test_ordered_iter_and_from(self):
        T, s = ints()
        for k in (3, 1, 2):
            s.insert(T.new(k))
        assert values(s) == [(1,), (2,), (3,)]
        assert [t.values for t in s.select(build_query(T, 2))] == [(2,)]

    def test_min_max(self):
        T, s = ints()
        assert values(s) == []
        s.insert(T.new(5))
        s.insert(T.new(2))
        assert (values(s)[0], values(s)[-1]) == ((2,), (5,))

    def test_clear(self):
        T, s = ints()
        s.insert(T.new(1))
        s.clear()
        assert len(s) == 0
