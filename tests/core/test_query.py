"""Tests for the query AST."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchemaError
from repro.core.query import Query, QueryKind, build_query, probe_key, residual
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple, TableHandle


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


# -- the compiled residual is Query.matches, shape by shape ---------------------

#: one NaN object stored in rows *and* bound by queries: hash and tuple
#: equality match it by identity, ``!=`` never does
NAN = float("nan")
ANY = TableSchema("R", "any a, any b, any c")
#: ``None`` draws a NaN of its own
_value = st.sampled_from([0, 1, 1.0, True, 0.0, -0.0, 2, 2.5, NAN, None]).map(
    lambda v: float("nan") if v is None else v
)
_bound = st.none() | _value


@st.composite
def _case(draw):
    """A shape (eq positions, the ones the access path covers, range
    positions, ``where`` on or off), a query of it, and rows as that
    path would hand them over: every covered position hash-equal to the
    query's value."""
    eq_pos = draw(st.sets(st.sampled_from(range(3))))
    covered = draw(st.sets(st.sampled_from(sorted(eq_pos)))) if eq_pos else set()
    free = [p for p in range(3) if p not in eq_pos]
    rng_pos = draw(st.sets(st.sampled_from(free))) if free else set()
    eq = {p: draw(_value) for p in sorted(eq_pos)}
    ranges = {
        p: (draw(_bound), draw(_bound), draw(st.booleans()), draw(st.booleans()))
        for p in sorted(rng_pos)
    }
    where = (lambda t: str(t.values[2]) < "1") if draw(st.booleans()) else None
    q = Query(ANY, eq, ranges, where, QueryKind.POSITIVE)
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        values = draw(st.lists(_value, min_size=3, max_size=3))
        for p in covered:  # often the very object bound, as a stored key is
            values[p] = eq[p] if draw(st.booleans()) else values[p]
        if all(values[p] is eq[p] or values[p] == eq[p] for p in covered):
            rows.append(JTuple(ANY, tuple(values)))
    # compiled from a different query of the same shape
    open_range = (None, None, True, True)
    shape = Query(ANY, dict.fromkeys(eq, 7), dict.fromkeys(ranges, open_range), None, QueryKind.POSITIVE)
    return shape, covered, q, rows


@settings(max_examples=500)
@given(_case())
def test_residual_keeps_what_matches_keeps_in_order(case):
    shape, covered, q, rows = case
    got = residual(shape, covered)(q, rows)
    assert [id(t) for t in got] == [id(t) for t in rows if q.matches(t)]
    assert residual(shape, covered)(q, iter(rows)) == got  # any iterable


def test_probe_key_is_the_eq_values_in_position_order():
    eq = {0: "a", 2: "c", 1: "b"}
    assert probe_key((2,))(eq) == ("c",)
    assert probe_key((0, 2))(eq) == ("a", "c")
    assert probe_key(())(eq) == ()
