"""Tests for immutable tuples, their per-table classes, and the
builder/copy API."""

from __future__ import annotations

import copy
import gc
import os
import subprocess
import sys
import weakref

import pytest

import repro
from repro.core import ExecOptions, Program
from repro.core.errors import SchemaError
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple, TableHandle
from repro.gamma import HashKeyStore


@pytest.fixture
def Ship() -> TableHandle:
    return TableHandle(
        TableSchema("Ship", "int frame -> int x, int y, int dx, int dy",
                    orderby=("Int", "seq frame"))
    )


class TestConstruction:
    def test_by_position(self, Ship):
        s = Ship.new(0, 10, 10, 150, 0)
        assert (s.frame, s.x, s.y, s.dx, s.dy) == (0, 10, 10, 150, 0)

    def test_by_name(self, Ship):
        s = Ship.new(frame=0, x=10, dx=150, y=10, dy=0)
        assert s.values == (0, 10, 10, 150, 0)

    def test_defaults(self, Ship):
        # "use default values for frame and dy" (§3)
        s = Ship.new(x=10, dx=150, y=10)
        assert s.frame == 0 and s.dy == 0

    def test_mixed_positional_and_named(self, Ship):
        s = Ship.new(1, 2, y=3)
        assert s.values == (1, 2, 3, 0, 0)

    def test_call_sugar(self, Ship):
        assert Ship(1, 2, 3, 4, 5) == Ship.new(1, 2, 3, 4, 5)

    def test_too_many_positional(self, Ship):
        with pytest.raises(SchemaError):
            Ship.new(1, 2, 3, 4, 5, 6)

    def test_field_given_twice(self, Ship):
        with pytest.raises(SchemaError, match="both positionally"):
            Ship.new(1, frame=2)

    def test_type_checked(self, Ship):
        with pytest.raises(SchemaError):
            Ship.new("zero", 1, 2, 3, 4)

    def test_unknown_kwarg(self, Ship):
        with pytest.raises(Exception):
            Ship.new(warp=9)


class TestImmutability:
    def test_setattr_blocked(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        with pytest.raises(AttributeError, match="immutable"):
            s.x = 99

    def test_delattr_blocked(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        with pytest.raises(AttributeError):
            del s.x

    def test_copy_builder(self, Ship):
        s = Ship.new(0, 10, 10, 150, 0)
        s2 = s.copy(frame=1, x=160)
        assert s2.values == (1, 160, 10, 150, 0)
        assert s.values == (0, 10, 10, 150, 0)  # original untouched

    def test_copy_no_updates_returns_self(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert s.copy() is s

    def test_copy_type_checked(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        with pytest.raises(SchemaError):
            s.copy(x="wide")


class TestAccess:
    def test_getitem_and_iter(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert s[2] == 2
        assert list(s) == [0, 1, 2, 3, 4]
        assert len(s) == 5

    def test_unknown_attribute(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        with pytest.raises(AttributeError, match="'Ship' object has no attribute 'warp'"):
            _ = s.warp

    def test_asdict(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert s.asdict() == {"frame": 0, "x": 1, "y": 2, "dx": 3, "dy": 4}

    def test_key_projection(self, Ship):
        assert Ship.new(7, 1, 2, 3, 4).key() == (7,)

    def test_repr(self, Ship):
        assert repr(Ship.new(0, 1, 2, 3, 4)).startswith("Ship(frame=0")


class TestIdentity:
    def test_equality_by_schema_and_values(self, Ship):
        assert Ship.new(0, 1, 2, 3, 4) == Ship.new(0, 1, 2, 3, 4)
        assert Ship.new(0, 1, 2, 3, 4) != Ship.new(0, 1, 2, 3, 5)

    def test_different_schema_never_equal(self, Ship):
        Other = TableHandle(TableSchema("Other", "int frame, int x, int y, int dx, int dy"))
        assert Ship.new(0, 1, 2, 3, 4) != Other.new(0, 1, 2, 3, 4)

    def test_hashable_in_sets(self, Ship):
        s = {Ship.new(0, 1, 2, 3, 4), Ship.new(0, 1, 2, 3, 4), Ship.new(1, 1, 2, 3, 4)}
        assert len(s) == 2

    def test_not_equal_to_plain_tuple(self, Ship):
        assert Ship.new(0, 1, 2, 3, 4) != (0, 1, 2, 3, 4)

    def test_handle_equality(self, Ship):
        assert Ship == TableHandle(Ship.schema)
        assert Ship != "Ship"


def test_direct_jtuple_field_lookup():
    schema = TableSchema("T", "int a, str b")
    t = JTuple(schema, (1, "x"))
    assert t.field("b") == "x"
    with pytest.raises(Exception):
        t.field("nope")


class TestTableClass:
    def test_a_tuple_is_an_instance_of_its_tables_class(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert type(s) is Ship.schema.tuple_class
        assert type(s).__name__ == "Ship" and isinstance(s, JTuple)
        generic = JTuple(Ship.schema, (0, 1, 2, 3, 4))
        assert type(generic) is type(s) and generic == s and hash(generic) == hash(s)

    def test_schema_is_a_class_attribute_and_fields_are_descriptors(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert s.schema is Ship.schema and "schema" not in JTuple.__slots__
        assert not hasattr(s, "__dict__")
        assert all(isinstance(type(s).__dict__[n], property) for n in Ship.schema.field_names)

    def test_constructor_widens_and_rejects_as_check_types_does(self):
        schema = TableSchema("M", "int a, double b, str c, bool d, any e")
        M = TableHandle(schema)
        assert M.new(1, 2, "x", True, None).values == (1, 2, "x", True, None)
        for bad in [
            (True, 1.0, "x", True, None),
            (1, "2", "x", True, None),
            (1, 1.0, 3, True, None),
            (1, 1.0, "x", 1, None),
        ]:
            with pytest.raises(SchemaError) as got:
                M.new(*bad)
            with pytest.raises(SchemaError) as want:
                schema.check_types(bad)
            assert str(got.value) == str(want.value)

    def test_copy_module_returns_the_tuple(self, Ship):
        s = Ship.new(0, 1, 2, 3, 4)
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert copy.deepcopy({"k": [s]})["k"][0] is s

    def test_equal_named_tables_may_share_a_hash_but_never_compare_equal(self):
        a = TableHandle(TableSchema("T", "int x"))
        b = TableHandle(TableSchema("T", "int x"))
        assert type(a.new(1)) is not type(b.new(1))
        assert hash(a.new(1)) == hash(b.new(1))
        assert a.new(1) != b.new(1) and len({a.new(1), b.new(1)}) == 2

    def test_a_dropped_programs_classes_are_collected(self):
        p = Program("tenant")
        T = p.table("T", "int a -> int b", orderby=("T", "seq a"))

        @p.foreach(T)
        def step(ctx, t):
            if t.a < 3:
                ctx.put(T.new(t.a + 1, t.b * 2))

        p.put(T.new(0, 1))
        result = p.run(ExecOptions(execution="codegen"))
        assert result.table_sizes["T"] == 4
        cls = weakref.ref(T.schema.tuple_class)
        del p, T, step, result
        gc.collect()
        assert cls() is None


class TestShadowedFields:
    """A field named like a member every tuple has gets no attribute:
    the member wins, and ``field(name)`` / ``t[i]`` read the field."""

    def test_members_win(self):
        Odd = TableHandle(TableSchema(
            "Odd", "int key -> int values, int schema, int copy, int field, int asdict, int _x, int ok"
        ))
        t = Odd.new(1, 2, 3, 4, 5, 6, 7, 8)
        assert t.key() == (1,) and t.values == (1, 2, 3, 4, 5, 6, 7, 8)
        assert t.schema is Odd.schema and t.copy() is t and t.ok == 8
        assert [t.field(n) for n in Odd.schema.field_names] == list(t.values)
        assert t.asdict()["asdict"] == 6 and t[6] == 7
        with pytest.raises(AttributeError):
            _ = t._x

    @pytest.mark.parametrize("execution", ["scalar", "codegen"])
    @pytest.mark.parametrize("store", ["default", "hashkey"])
    def test_a_field_named_key_runs_under_keyed_stores(self, store, execution):
        p = Program("config")
        Config = p.table("Config", "int key -> int value", orderby=("Conf",))
        Probe = p.table("Probe", "int k", orderby=("Probe",))
        p.order("Conf", "Probe")

        @p.foreach(Probe)
        def look(ctx, pr):
            c = ctx.get_uniq(Config, pr.k)
            ctx.println(f"{pr.k}: {None if c is None else (c.field('key'), c.value, c.key())}")

        for k in (0, 1, 2, 0):
            p.put(Config.new(k, k * 10))
        for k in range(4):
            p.put(Probe.new(k))
        overrides = {"Config": lambda s: HashKeyStore(s)} if store == "hashkey" else {}
        r = p.run(ExecOptions(store_overrides=overrides, execution=execution))
        assert r.table_sizes["Config"] == 3
        assert sorted(r.output) == ["0: (0, 0, (0,))", "1: (1, 10, (1,))", "2: (2, 20, (2,))", "3: None"]


_HASH_PROBE = """
import sys
from repro.apps.pvwatts import array_of_hashsets_store, build_pvwatts_program
from repro.core import ExecOptions
from repro.csvio import generate_csv_bytes

data = generate_csv_bytes(n_years=1, seed=7)
pad = [bytes(k % 256) for k in range(int(sys.argv[1]))]
h = build_pvwatts_program({"f.csv": data}, "f.csv", 8)
options = ExecOptions(
    no_delta=frozenset({"PvWatts"}),
    store_overrides={"PvWatts": array_of_hashsets_store(concurrent=False)},
    metering="off",
)
print(hash(h.PvWatts.new(2012, 11, 3, "7", 950)), hash(h.SumMonth.new(2012, 11)))
print(h.program.run(options).output_text())
"""


def test_hash_and_output_do_not_depend_on_where_the_schema_lives():
    """Two processes that allocate different padding before declaring
    the program put its schemas at different addresses; a tuple's hash
    is over its table's stable key, so neither it nor the printed
    means move."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root, PYTHONHASHSEED="0")
    outs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_PROBE, pad],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for pad in ("0", "20000")
    ]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
    hashes = [proc.stdout.splitlines()[0] for proc in outs]
    assert hashes[0] == hashes[1]
    assert outs[0].stdout == outs[1].stdout
