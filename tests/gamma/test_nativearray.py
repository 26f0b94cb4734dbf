"""Tests for the numpy-backed native-array stores (§6.4/§6.6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SchemaError
from repro.core.query import build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.gamma import NativeArrayStore, TwoIterationArrayStore


def matrix_env():
    schema = TableSchema("Matrix", "int mat, int row, int col -> int value")
    return TableHandle(schema), NativeArrayStore(schema, (2, 4, 4))


class TestNativeArray:
    def test_schema_validation(self):
        with pytest.raises(SchemaError):
            NativeArrayStore(TableSchema("T", "int a, int b"), (2, 2))  # no key
        with pytest.raises(SchemaError):
            NativeArrayStore(TableSchema("T", "str k -> int v"), (2,))  # str key
        with pytest.raises(SchemaError):
            NativeArrayStore(TableSchema("T", "int k -> str v"), (2,))  # str value
        with pytest.raises(SchemaError):
            NativeArrayStore(TableSchema("T", "int k -> int v"), (2, 2))  # dim mismatch

    def test_insert_lookup(self):
        T, s = matrix_env()
        t = T.new(0, 1, 2, 42)
        assert s.insert(t)
        assert not s.insert(t)
        assert t in s
        assert s.value_at(0, 1, 2) == 42
        assert s.value_at(0, 0, 0) is None
        assert s.lookup_key((0, 1, 2)) == t
        assert s.lookup_key((1, 1, 1)) is None

    def test_key_conflict(self):
        T, s = matrix_env()
        s.insert(T.new(0, 1, 2, 42))
        with pytest.raises(SchemaError, match="conflict"):
            s.insert(T.new(0, 1, 2, 43))

    def test_bulk_set_plane(self):
        T, s = matrix_env()
        plane = np.arange(16).reshape(4, 4)
        s.bulk_set((0,), plane)
        assert len(s) == 16
        assert s.value_at(0, 2, 3) == 11
        assert (s.array[0] == plane).all()

    def test_bulk_set_idempotent_count(self):
        T, s = matrix_env()
        s.bulk_set((0,), np.ones((4, 4), dtype=np.int64))
        s.bulk_set((0,), np.zeros((4, 4), dtype=np.int64))
        assert len(s) == 16  # re-writing doesn't double-count

    def test_scan_roundtrip(self):
        T, s = matrix_env()
        s.insert(T.new(1, 2, 3, 7))
        s.insert(T.new(0, 0, 0, 5))
        assert sorted(t.values for t in s.scan()) == [(0, 0, 0, 5), (1, 2, 3, 7)]

    def test_select_by_key(self):
        T, s = matrix_env()
        s.insert(T.new(0, 1, 1, 9))
        got = list(s.select(build_query(T, 0, 1, 1)))
        assert [t.value for t in got] == [9]
        # the same key as Query.matches sees it; no cell holds the others
        assert s.select(build_query(T, 0, 1.0, True)) == got
        for key in ((0, 1, 1.5), (0, 1, float("nan")), (-2, 1, 1), (0, 1, 4)):
            assert s.select(build_query(T, *key)) == []

    def test_clear(self):
        T, s = matrix_env()
        s.insert(T.new(0, 0, 0, 1))
        s.clear()
        assert len(s) == 0 and s.value_at(0, 0, 0) is None

    def test_heap_tuples_zero(self):
        """Unboxed storage: nothing for the GC model to chew on."""
        T, s = matrix_env()
        s.bulk_set((0,), np.ones((4, 4), dtype=np.int64))
        assert s.heap_tuples() == 0

    def test_float_values(self):
        schema = TableSchema("F", "int i -> double v")
        T = TableHandle(schema)
        s = NativeArrayStore(schema, (3,))
        s.insert(T.new(1, 2.5))
        assert s.value_at(1) == 2.5
        assert s.array.dtype == np.float64


class TestTwoIterationStore:
    def setup_method(self):
        self.schema = TableSchema("Data", "int iter, int index -> double value")
        self.T = TableHandle(self.schema)
        self.s = TwoIterationArrayStore(self.schema, 8)

    def test_requires_two_keys(self):
        with pytest.raises(SchemaError):
            TwoIterationArrayStore(TableSchema("D", "int i -> double v"), 4)

    def test_plane_recycling(self):
        """iter % 2 indexing: plane of iter i is reused for i+2 —
        the paper's two-copy GC optimisation."""
        self.s.bulk_set(0, 0, np.full(8, 0.0))
        self.s.bulk_set(1, 0, np.full(8, 1.0))
        assert self.s.plane_for(0, create=False) is not None
        self.s.bulk_set(2, 0, np.full(8, 2.0))  # recycles plane 0
        assert self.s.plane_for(0, create=False) is None  # iter 0 gone
        assert self.s.plane_for(2, create=False) is not None

    def test_insert_and_lookup(self):
        t = self.T.new(0, 3, 1.5)
        self.s.insert(t)
        assert t in self.s
        assert self.s.lookup_key((0, 3)) is not None
        assert self.s.lookup_key((1, 3)) is None

    def test_reads_outside_the_written_slice_find_nothing(self):
        """A plane holds indexes [0, count): neither a stale or zeroed
        cell past it nor a negative index numpy would wrap is a row."""
        self.s.bulk_set(0, 0, np.array([0.0, 0.0, 7.0]))
        assert self.T.new(0, 2, 7.0) in self.s
        assert self.T.new(0, 5, 0.0) not in self.s
        assert self.T.new(0, -1, 7.0) not in self.s
        assert self.s.lookup_key((0, -1)) is None
        assert self.s.lookup_key((0, 3)) is None

    def test_keys_are_compared_as_query_matches_compares_them(self):
        self.s.bulk_set(1, 0, np.array([4.0, 7.0]))
        got = self.s.select(build_query(self.T, 1, 1))
        assert [t.value for t in got] == [7.0]
        for key in ((1.0, 1), (True, 1.0), (1, True)):
            assert self.s.select(build_query(self.T, *key)) == got
        nan = float("nan")
        for key in ((1.5, 1), (nan, 1), (1, 1.5), (1, nan), (1, "1"), (None, 0)):
            assert self.s.select(build_query(self.T, *key)) == []
            assert self.s.lookup_key(key) is None

    def test_scan_lists_retained_iterations(self):
        self.s.bulk_set(0, 0, np.array([1.0, 2.0]))
        self.s.bulk_set(1, 0, np.array([3.0]))
        rows = sorted((t.iter, t.index, t.value) for t in self.s.scan())
        assert rows == [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]

    def test_heap_tuples_zero(self):
        self.s.bulk_set(0, 0, np.ones(8))
        assert self.s.heap_tuples() == 0

    def test_clear(self):
        self.s.bulk_set(0, 0, np.ones(8))
        self.s.clear()
        assert len(self.s) == 0
