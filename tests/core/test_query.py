"""Tests for the query AST."""

from __future__ import annotations

import pytest

from repro.core.errors import SchemaError
from repro.core.query import QueryKind, build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle


@pytest.fixture
def PvWatts() -> TableHandle:
    return TableHandle(
        TableSchema("PvWatts", "int year, int month, int day, str hour, int power")
    )


@pytest.fixture
def Done() -> TableHandle:
    return TableHandle(TableSchema("Done", "int vertex -> int distance"))


class TestBuildQuery:
    def test_positional_prefix(self, PvWatts):
        q = build_query(PvWatts, 2012, 3)
        assert q.eq == {0: 2012, 1: 3}

    def test_named_eq(self, PvWatts):
        q = build_query(PvWatts, month=4)
        assert q.eq == {1: 4}

    def test_mixing_positional_and_named(self, PvWatts):
        q = build_query(PvWatts, 2012, month=4)
        assert q.eq == {0: 2012, 1: 4}

    def test_conflicting_constraints_rejected(self, PvWatts):
        with pytest.raises(SchemaError, match="twice"):
            build_query(PvWatts, 2012, year=2013)

    def test_too_many_positional(self, PvWatts):
        with pytest.raises(SchemaError):
            build_query(PvWatts, 1, 2, 3, 4, 5, 6)

    def test_range_tuple_inclusive(self, PvWatts):
        q = build_query(PvWatts, ranges={"power": (10, 20)})
        idx = PvWatts.schema.field_position("power")
        assert q.ranges[idx] == (10, 20, True, True)

    def test_range_dict_operators(self, PvWatts):
        q = build_query(PvWatts, ranges={"power": {"lt": 5, "ge": 1}})
        idx = PvWatts.schema.field_position("power")
        assert q.ranges[idx] == (1, 5, True, False)

    def test_range_unknown_op(self, PvWatts):
        with pytest.raises(SchemaError):
            build_query(PvWatts, ranges={"power": {"between": (1, 2)}})

    def test_range_and_eq_conflict(self, PvWatts):
        with pytest.raises(SchemaError):
            build_query(PvWatts, power=3, ranges={"power": (1, 2)})

    def test_default_kind_positive(self, PvWatts):
        assert build_query(PvWatts).kind is QueryKind.POSITIVE


class TestMatching:
    def test_eq_match(self, PvWatts):
        q = build_query(PvWatts, 2012, 3)
        assert q.matches(PvWatts.new(2012, 3, 1, "00:00", 5))
        assert not q.matches(PvWatts.new(2012, 4, 1, "00:00", 5))

    def test_range_match_boundaries(self, PvWatts):
        q = build_query(PvWatts, ranges={"power": {"lt": 10, "ge": 5}})
        mk = lambda p: PvWatts.new(2012, 1, 1, "h", p)  # noqa: E731
        assert q.matches(mk(5))
        assert q.matches(mk(9))
        assert not q.matches(mk(10))
        assert not q.matches(mk(4))

    def test_where_predicate(self, PvWatts):
        q = build_query(PvWatts, where=lambda t: t.power % 2 == 0)
        assert q.matches(PvWatts.new(2012, 1, 1, "h", 4))
        assert not q.matches(PvWatts.new(2012, 1, 1, "h", 5))

    def test_filter(self, PvWatts):
        tuples = [PvWatts.new(2012, m, 1, "h", m) for m in range(1, 5)]
        q = build_query(PvWatts, ranges={"month": {"le": 2}})
        assert [t.month for t in tuples if q.matches(t)] == [1, 2]


class TestKeyBinding:
    def test_fully_bound_key(self, Done):
        q = build_query(Done, vertex=3)
        assert q.key_if_fully_bound() == (3,)

    def test_unbound_key(self, Done):
        q = build_query(Done)
        assert q.key_if_fully_bound() is None

    def test_unkeyed_table(self, PvWatts):
        assert build_query(PvWatts, 2012).key_if_fully_bound() is None

    def test_eq_on(self, PvWatts):
        q = build_query(PvWatts, 2012, 3)
        assert q.eq_on(("year", "month")) == (2012, 3)
        assert q.eq_on(("year", "day")) is None

    def test_repr_readable(self, PvWatts):
        q = build_query(PvWatts, 2012, ranges={"power": {"lt": 5}}, where=lambda t: True)
        r = repr(q)
        assert "year=2012" in r and "power<5" in r and "[...]" in r
