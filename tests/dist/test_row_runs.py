"""Row runs: how every control-plane frame carries tuples.

A step frame's inserts, a done record's puts and a bootstrap slice are
``[table, n_rows, [v0, v1, …]]`` runs (:func:`repro.dist.superstep.pack_rows`):
consecutive rows of one table share a run, values flat, arity from the
schema.  Row order is kept exactly — phase A's insert order and every
fire index into it depend on it — and a run whose values do not fill
its rows is refused with an error naming its table."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import EngineError, SchemaError
from repro.core.program import Program
from repro.core.schema import TableSchema
from repro.dist.superstep import pack_rows, unpack_rows


def _program():
    p = Program("runs")
    A = p.table("A", "int k -> int v", orderby=("A",))
    B = p.table("B", "str name", orderby=("B",))
    M = p.table("M", "int i, str s, float f, bool b", orderby=("M",))
    return p, A, B, M


def _wire(runs):
    return pickle.loads(pickle.dumps(runs, protocol=pickle.HIGHEST_PROTOCOL))


def test_round_trip_keeps_row_order_across_table_switches():
    p, A, B, M = _program()
    rows = [A.new(1, 10), A.new(0, 7), B.new("x"), A.new(2, 3), B.new("y"), B.new("x")]
    runs = pack_rows(rows)
    assert runs == [
        ["A", 2, [1, 10, 0, 7]],
        ["B", 1, ["x"]],
        ["A", 1, [2, 3]],
        ["B", 2, ["y", "x"]],
    ]
    back = unpack_rows(p.schemas(), _wire(runs))
    assert back == rows
    assert [type(t) for t in back] == [type(t) for t in rows]
    assert [hash(t) for t in back] == [hash(t) for t in rows]


def test_packing_onto_runs_extends_the_last_one():
    p, A, B, M = _program()
    runs = pack_rows([A.new(1, 1)])
    pack_rows([A.new(2, 2), B.new("z")], runs)
    assert runs == [["A", 2, [1, 1, 2, 2]], ["B", 1, ["z"]]]


def test_mixed_value_types_survive():
    p, A, B, M = _program()
    rows = [
        M.new(-(2**40), "é\x00", 0.1, True),
        M.new(3, "", -0.0, False),
        M.new(0, "0", 1e300, True),
    ]
    back = unpack_rows(p.schemas(), _wire(pack_rows(rows)))
    assert [t.values for t in back] == [t.values for t in rows]
    assert [list(map(type, t.values)) for t in back] == [[int, str, float, bool]] * 3


def test_empty_classes_and_zero_arity():
    p, A, B, M = _program()
    assert pack_rows([]) == [] and unpack_rows(p.schemas(), []) == []
    assert unpack_rows(p.schemas(), [["A", 0, []]]) == []
    # a program cannot declare a table with no fields ...
    with pytest.raises(SchemaError):
        TableSchema("Z", ())

    # ... but the run format needs none: n rows of arity 0 are n empty rows
    class Nullary:
        fields = ()

        class tuple_class:
            _build = tuple

    assert unpack_rows({"Z": Nullary}, [["Z", 3, []]]) == [(), (), ()]
    with pytest.raises(EngineError, match="'Z'"):
        unpack_rows({"Z": Nullary}, [["Z", 3, [1]]])


@pytest.mark.parametrize(
    "run",
    [
        ["A", 2, [1, 10, 0]],  # a value short
        ["A", 2, [1, 10, 0, 7, 5]],  # a value over
        ["A", 3, [1, 10, 0, 7]],  # a row short
        ["Nope", 1, [1]],  # no such table
    ],
    ids=["value-short", "value-over", "row-short", "unknown-table"],
)
def test_a_run_its_values_do_not_fill_is_refused_naming_its_table(run):
    p, A, B, M = _program()
    with pytest.raises(EngineError, match=repr(run[0])):
        unpack_rows(p.schemas(), [["B", 1, ["ok"]], run])
