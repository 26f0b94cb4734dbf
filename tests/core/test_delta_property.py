"""Property test: DeltaTree minimal-class extraction against a
reference model.

The reference is the obvious specification: keep every pending tuple in
a list, and ``pop_min_class`` = stable-sort by timestamp
(:func:`compare_timestamps`) and take the leading group of equal
timestamps.  Stability makes the within-class order the insertion
order, which is exactly what the engine relies on for deterministic
batches.  Hypothesis drives arbitrary interleavings of inserts and
pops over two tables that share literal levels, with value ranges small
enough to force duplicate timestamps, duplicate tuples, and
re-insertion of previously popped tuples.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import DeltaTree
from repro.core.ordering import OrderDecls, compare_timestamps, evaluate_orderby
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle


def make_env():
    decls = OrderDecls()
    decls.declare("Estimate", "Done")
    Est = TableHandle(
        TableSchema(
            "Estimate", "int vertex, int distance", orderby=("seq distance", "Estimate")
        )
    )
    Done = TableHandle(
        TableSchema(
            "Done", "int vertex -> int distance", orderby=("seq distance", "Done")
        )
    )
    decls.freeze()

    def ts(tup):
        return evaluate_orderby(tup.schema.orderby, tup.asdict(), decls)

    return (Est, Done), ts


class ReferenceDelta:
    """Sort-and-group specification of the Delta set."""

    def __init__(self, ts):
        self._ts = ts
        self._pending: list = []  # insertion order

    def insert(self, tup) -> bool:
        if tup in self._pending:
            return False
        self._pending.append(tup)
        return True

    def pop_min_class(self) -> list:
        if not self._pending:
            return []
        ranked = sorted(  # stable: ties keep insertion order
            self._pending,
            key=functools.cmp_to_key(
                lambda a, b: compare_timestamps(self._ts(a), self._ts(b))
            ),
        )
        head_ts = self._ts(ranked[0])
        batch = [
            t for t in ranked if compare_timestamps(self._ts(t), head_ts) == 0
        ]
        for t in batch:
            self._pending.remove(t)
        return batch

    def __len__(self) -> int:
        return len(self._pending)


# an op is ("insert", table index, vertex, distance), a ("batch", [...])
# of such triples (exercising insert_batch's single membership update,
# including intra-batch duplicates), or ("pop",); tight value ranges
# force equal timestamps and duplicate tuples
_TRIPLE = st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 6))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _TRIPLE),
        st.tuples(st.just("batch"), st.lists(_TRIPLE, max_size=8)),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_delta_tree_matches_sort_and_group_reference(ops):
    (Est, Done), ts = make_env()
    tree = DeltaTree()
    model = ReferenceDelta(ts)
    for op in ops:
        if op[0] == "insert":
            which, vertex, distance = op[1]
            tup = (Est if which == 0 else Done).new(vertex, distance)
            assert tree.insert(tup, ts(tup)) == model.insert(tup)
        elif op[0] == "batch":
            tups = [
                (Est if w == 0 else Done).new(v, d) for w, v, d in op[1]
            ]
            got = tree.insert_batch([(t, ts(t)) for t in tups])
            assert got == [model.insert(t) for t in tups]
        else:
            assert tree.pop_min_class() == model.pop_min_class()
        assert len(tree) == len(model)
    # drain whatever remains: every class must match, in causal order
    while model:
        assert tree.pop_min_class() == model.pop_min_class()
    assert not tree


@settings(max_examples=100, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 6)),
        min_size=1,
        max_size=40,
    )
)
def test_popped_tuple_can_reenter(inserts):
    """A tuple removed by pop_min_class is no longer a member and is
    accepted again on re-insertion (the engine's steady-state cycle)."""
    (Est, Done), ts = make_env()
    tree = DeltaTree()
    for which, vertex, distance in inserts:
        tup = (Est if which == 0 else Done).new(vertex, distance)
        tree.insert(tup, ts(tup))
    batch = tree.pop_min_class()
    for t in batch:
        assert t not in tree
        assert tree.insert(t, ts(t))
    assert len(tree) >= len(batch)


# -- differential over the whole timestamp structure ---------------------------


def make_rich_env():
    """Tables whose keys are prefixes of others (``Req`` / ``Job``,
    ``Step`` / ``Part``), par levels, a literal tie (``Step`` and
    ``Mark`` share every level) and an ``any`` seq field, so ``1``,
    ``1.0`` and ``True`` meet at one level."""
    decls = OrderDecls()
    decls.declare("Req", "Work", "Done")
    decls.freeze()
    tables = tuple(
        TableHandle(TableSchema(name, fields, orderby=orderby))
        for name, fields, orderby in (
            ("Req", "int id, any v", ("Req",)),
            ("Job", "int id, any v", ("Req", "par v")),
            ("Step", "int id, any v", ("Work", "seq v")),
            ("Mark", "int id, any v", ("Work", "seq v")),
            ("Part", "int id, any v", ("Work", "seq v", "par id")),
            ("Done", "int id, any v", ("Done", "par id", "seq v")),
        )
    )

    def ts(tup):
        return evaluate_orderby(tup.schema.orderby, tup.asdict(), decls)

    return tables, ts


class RichReference(ReferenceDelta):
    """:class:`ReferenceDelta` plus removal and the causal dump."""

    def remove(self, tup) -> bool:
        if tup not in self._pending:
            return False
        self._pending.remove(tup)
        return True

    def dump(self) -> list:
        return sorted(  # stable: a class keeps insertion order
            self._pending,
            key=functools.cmp_to_key(
                lambda a, b: compare_timestamps(self._ts(a), self._ts(b))
            ),
        )


_RICH = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.sampled_from([0, 1, 1.0, True, 2])
)
RICH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _RICH),
        st.tuples(st.just("batch"), st.lists(_RICH, max_size=8)),
        st.tuples(st.just("remove"), _RICH),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=RICH_OPS, screened=st.booleans())
def test_delta_matches_reference_over_prefixes_pars_and_ties(ops, screened):
    tables, ts = make_rich_env()

    def new(triple):
        which, ident, v = triple
        return tables[which].new(ident, v)

    tree = DeltaTree([t.schema for t in tables] if screened else None)
    model = RichReference(ts)
    for op in ops:
        if op[0] == "insert":
            tup = new(op[1])
            assert tree.insert(tup, ts(tup)) == model.insert(tup)
        elif op[0] == "batch":
            tups = [new(x) for x in op[1]]
            got = tree.insert_batch([(t, ts(t)) for t in tups])
            assert got == [model.insert(t) for t in tups]
        elif op[0] == "remove":
            tup = new(op[1])
            assert tree.remove(tup, ts(tup)) == model.remove(tup)
        else:
            assert tree.pop_min_class() == model.pop_min_class()
        assert len(tree) == len(model)
        assert tree.dump() == model.dump()
    # a snapshot's Delta half: the dump re-inserted rebuilds the tree
    copy = DeltaTree()
    for t in tree.dump():
        assert copy.insert(t, ts(t))
    assert copy.dump() == tree.dump()
    assert copy.snapshot() == tree.snapshot()
    while model:
        batch = model.pop_min_class()
        assert tree.pop_min_class() == batch
        assert copy.pop_min_class() == batch
    assert not tree and not copy
