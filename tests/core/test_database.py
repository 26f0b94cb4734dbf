"""Tests for the Gamma database layer."""

from __future__ import annotations

import pytest

from repro.core.database import Database, InsertOutcome
from repro.core.errors import KeyInvariantError, UnknownTableError
from repro.core.ordering import OrderDecls
from repro.core.query import build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.gamma import StoreRegistry, TreeSetStore


@pytest.fixture
def env():
    decls = OrderDecls()
    decls.declare("A", "B")
    Keyed = TableHandle(TableSchema("Keyed", "int k -> int v", orderby=("A", "seq k")))
    Plain = TableHandle(TableSchema("Plain", "int x, int y", orderby=("B",)))
    decls.freeze()
    db = Database(
        {"Keyed": Keyed.schema, "Plain": Plain.schema},
        StoreRegistry(lambda s: TreeSetStore(s)),
        decls,
    )
    return db, Keyed, Plain


class TestInsert:
    def test_new_then_duplicate(self, env):
        db, Keyed, _ = env
        t = Keyed.new(1, 10)
        assert db.insert(t) is InsertOutcome.NEW
        assert db.insert(t) is InsertOutcome.DUPLICATE
        assert db.insert(Keyed.new(1, 10)) is InsertOutcome.DUPLICATE

    def test_key_conflict(self, env):
        db, Keyed, _ = env
        db.insert(Keyed.new(1, 10))
        with pytest.raises(KeyInvariantError, match="already bound"):
            db.insert(Keyed.new(1, 11))

    def test_unkeyed_table_allows_same_prefix(self, env):
        db, _, Plain = env
        assert db.insert(Plain.new(1, 1)) is InsertOutcome.NEW
        assert db.insert(Plain.new(1, 2)) is InsertOutcome.NEW

    def test_unknown_table(self, env):
        db, _, _ = env
        Ghost = TableHandle(TableSchema("Ghost", "int x"))
        with pytest.raises(UnknownTableError):
            db.insert(Ghost.new(1))

    def test_contains(self, env):
        db, Keyed, _ = env
        t = Keyed.new(1, 10)
        assert t not in db
        db.insert(t)
        assert t in db

    def test_discard(self, env):
        db, Keyed, _ = env
        t = Keyed.new(1, 10)
        db.insert(t)
        assert db.discard(t)
        assert t not in db
        assert not db.discard(t)


class TestQueriesAndSizes:
    def test_select(self, env):
        db, _, Plain = env
        for x in range(5):
            db.insert(Plain.new(x % 2, x))
        got = db.select(build_query(Plain, 1))
        assert sorted(t.y for t in got) == [1, 3]

    def test_sizes(self, env):
        db, Keyed, Plain = env
        db.insert(Keyed.new(1, 1))
        db.insert(Plain.new(1, 1))
        db.insert(Plain.new(1, 2))
        assert db.size(Plain) == 2
        assert db.size("Keyed") == 1
        assert db.total_tuples() == 3
        assert db.table_sizes() == {"Keyed": 1, "Plain": 2}
        assert db.heap_tuples() == 3


class TestTimestamps:
    def test_timestamp_uses_orderby(self, env):
        db, Keyed, Plain = env
        t1 = db.timestamp(Keyed.new(1, 10))
        t2 = db.timestamp(Keyed.new(2, 10))
        t3 = db.timestamp(Plain.new(0, 0))
        assert t1 < t2 < t3  # A-literals before B-literal

    def test_store_lookup_by_handle_and_name(self, env):
        db, Keyed, _ = env
        assert db.store(Keyed) is db.store("Keyed") is db.store(Keyed.schema)
