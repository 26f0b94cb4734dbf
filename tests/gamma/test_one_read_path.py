"""One property for the one read path.

A store's only read is ``prepare(query)``: the access path for a query
*shape*, resolved once, whose ``run`` serves every query of that shape.
``select`` is derived from it.  So for every store class and arrangement
— tree plain and keyed, hash-key, hash-index plain and keyed,
array-of-hashsets, native array, and :class:`IndexedStore` with a hash
index, a sorted index and over a hash-key base — a seeded sweep over
every equality subset × range form × residual ``where`` holds
``prepare(shape).run(query)`` to a brute-force :meth:`Query.matches`
scan: element for element in value order where the store promises that
order (§1.3: the default stores and every index path), as a multiset
otherwise.  The prepared select is resolved from a *different* query of
the same shape than the ones it then serves, which is how the plan cache
uses it.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.query import build_query
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.gamma import (
    ArrayOfHashSetsStore,
    ConcurrentSkipListStore,
    HashIndexStore,
    HashKeyStore,
    IndexSpec,
    IndexedStore,
    NativeArrayStore,
    TreeSetStore,
)

PLAIN = "int a, int b, float c"
KEYED = "int a, int b -> float c"

#: id -> (fields, factory, results come in value order)
STORES = {
    "tree-plain": (PLAIN, TreeSetStore, True),
    "tree-keyed": (KEYED, TreeSetStore, True),
    "skiplist-keyed": (KEYED, ConcurrentSkipListStore, True),
    "hash-key": (KEYED, HashKeyStore, False),
    "hash-index-plain": (PLAIN, lambda s: HashIndexStore(s, ("b",)), False),
    "hash-index-keyed": (KEYED, HashIndexStore, False),
    "array-of-hashsets": (PLAIN, lambda s: ArrayOfHashSetsStore(s, "a", 0, 4), False),
    "native-array": (KEYED, lambda s: NativeArrayStore(s, (5, 5)), False),
    "indexed-hash": (
        PLAIN,
        lambda s: IndexedStore(TreeSetStore(s), (IndexSpec(("b",)), IndexSpec(("a", "b")))),
        True,
    ),
    "indexed-sorted": (
        PLAIN,
        lambda s: IndexedStore(TreeSetStore(s), (IndexSpec(("a",), "c"), IndexSpec((), "c"))),
        True,
    ),
    "indexed-over-hash-key": (
        KEYED,
        lambda s: IndexedStore(HashKeyStore(s), (IndexSpec(("a",)), IndexSpec(("b",), "c"))),
        False,
    ),
}

RANGE_FORMS = (None, ("ge", "lt"), ("le",), ("gt",), "pair")


def _values(field, rng):
    return rng.randrange(5) if field.type == "int" else rng.choice([0.0, 0.5, 1.0, 1.5, 2.0])


def _query(schema, eq_fields, range_form, where, rng):
    eq = {f.name: _values(f, rng) for f in eq_fields}
    ranges = None
    free = [f for f in schema.fields if f not in eq_fields]
    if range_form is not None and free:
        f = free[-1]
        if range_form == "pair":
            lo, hi = sorted((_values(f, rng), _values(f, rng)))
            ranges = {f.name: (lo, hi)}
        else:
            ranges = {f.name: {op: _values(f, rng) for op in range_form}}
    parity = rng.randrange(2)
    pred = (lambda t: t.values[1] % 2 == parity) if where else None
    return build_query(schema, where=pred, ranges=ranges, **eq)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(STORES))
def test_prepared_run_is_the_brute_force_scan_and_select_is_derived(name, seed):
    fields, factory, value_ordered = STORES[name]
    schema = TableSchema("T", fields, orderby=("T",))
    handle = TableHandle(schema)
    store = factory(schema)
    rng = random.Random(seed)
    keys = set()
    for _ in range(60):
        tup = handle.new(rng.randrange(5), rng.randrange(5), rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
        if schema.has_key and tup.key() in keys:
            continue  # the engine's key invariant: one tuple per key
        keys.add(tup.key() if schema.has_key else tup)
        store.insert(tup)
    # a few discards, where the store can, so buckets and indexes unwind
    if name != "native-array":
        for tup in list(store.scan())[::7]:
            assert store.discard(tup)

    by_value = lambda t: t.values  # noqa: E731
    checked = 0
    for n_eq in range(len(schema.fields) + 1):
        for eq_fields in itertools.combinations(schema.fields, n_eq):
            for range_form, where in itertools.product(RANGE_FORMS, (False, True)):
                # resolved from one query of the shape, run on others
                prepared = store.prepare(_query(schema, eq_fields, range_form, where, rng))
                for _ in range(3):
                    q = _query(schema, eq_fields, range_form, where, rng)
                    expected = sorted((t for t in store.scan() if q.matches(t)), key=by_value)
                    got = prepared.run(q)
                    assert isinstance(got, list)
                    if value_ordered:
                        assert got == expected, f"{q!r}"
                    else:
                        assert sorted(got, key=by_value) == expected, f"{q!r}"
                    assert list(store.select(q)) == got, f"{q!r}"
                    checked += 1
    assert checked == 240
