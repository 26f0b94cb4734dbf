"""Tests for reduce/scan operators, incl. parallel-merge properties."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import Program
from repro.core.reducers import (
    CountReducer,
    FnReducer,
    MaxReducer,
    MinReducer,
    Reducer,
    Statistics,
    StatisticsAcc,
    SumReducer,
    reduce_all,
    scan,
    tree_reduce,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestBasics:
    def test_sum(self):
        assert reduce_all(SumReducer(), [1, 2, 3]) == 6

    def test_count(self):
        assert reduce_all(CountReducer(), "abcd") == 4

    def test_min_max(self):
        assert reduce_all(MinReducer(), [3, 1, 2]) == 1
        assert reduce_all(MaxReducer(), [3, 1, 2]) == 3

    def test_min_empty_is_none(self):
        assert reduce_all(MinReducer(), []) is None
        assert reduce_all(MaxReducer(), []) is None

    def test_statistics_fields(self):
        acc = reduce_all(Statistics(), [2.0, 4.0, 6.0])
        assert acc.count == 3
        assert acc.mean == pytest.approx(4.0)
        assert acc.min == 2.0 and acc.max == 6.0
        assert acc.variance == pytest.approx(8 / 3)
        assert acc.total == pytest.approx(12.0)

    def test_statistics_stddev(self):
        acc = reduce_all(Statistics(), [1.0, 1.0, 1.0])
        assert acc.stddev == 0.0

    def test_statistics_single_value_variance_zero(self):
        assert reduce_all(Statistics(), [5.0]).variance == 0.0

    def test_scan_prefixes(self):
        assert list(scan(SumReducer(), [1, 2, 3])) == [1, 3, 6]

    def test_scan_empty(self):
        assert list(scan(SumReducer(), [])) == []

    def test_fn_reducer(self):
        concat = FnReducer(list, lambda a, v: a + [v], lambda a, b: a + b)
        assert reduce_all(concat, "abc") == ["a", "b", "c"]

    def test_tree_reduce_depth(self):
        result, depth = tree_reduce(SumReducer(), [[1], [2], [3], [4]])
        assert result == 10
        assert depth == 2  # 4 leaves -> log2 = 2 combine levels

    def test_tree_reduce_empty(self):
        result, depth = tree_reduce(SumReducer(), [])
        assert result == 0 and depth == 0

    def test_tree_reduce_odd_chunks(self):
        result, _ = tree_reduce(SumReducer(), [[1, 2], [3], [4, 5]])
        assert result == 15

    def test_reducer_base_raises(self):
        from repro.core.reducers import Reducer

        r = Reducer()
        with pytest.raises(NotImplementedError):
            r.zero()


# -- §5.2's tree-combination property: parallel == sequential ------------------


@given(st.lists(floats, max_size=60), st.integers(1, 7))
def test_statistics_combine_matches_sequential(xs, k):
    stats = Statistics()
    seq = reduce_all(stats, xs)
    chunks = [xs[i::k] for i in range(k)]
    par, _ = tree_reduce(stats, chunks)
    assert par.count == seq.count
    if xs:
        assert par.mean == pytest.approx(seq.mean, rel=1e-9, abs=1e-9)
        assert par.m2 == pytest.approx(seq.m2, rel=1e-6, abs=1e-6)
        assert par.min == seq.min and par.max == seq.max


@given(st.lists(st.integers(-100, 100), max_size=50), st.integers(1, 5))
def test_sum_combine_matches_sequential(xs, k):
    chunks = [xs[i::k] for i in range(k)]
    par, _ = tree_reduce(SumReducer(), chunks)
    assert par == sum(xs)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50), st.integers(1, 5))
def test_min_combine_matches_sequential(xs, k):
    chunks = [xs[i::k] for i in range(k)]
    par, _ = tree_reduce(MinReducer(), chunks)
    assert par == min(xs)


class _UserMean(Reducer):
    """A user reducer without ``fold``: it folds through ``step``."""

    def zero(self):
        return (0, 0.0)

    def step(self, acc, value):
        return (acc[0] + 1, acc[1] + (value - acc[1]) / (acc[0] + 1))

    def combine(self, left, right):
        n = left[0] + right[0]
        return (n, left[1] + (right[1] - left[1]) * right[0] / n) if n else left


class _DoubledStatistics(Statistics):
    """Redefines ``step`` only: the inherited fast ``fold`` must not
    bypass it."""

    def step(self, acc, value):
        return super().step(acc, 2 * value)


REDUCERS = [
    SumReducer(),
    CountReducer(),
    MinReducer(),
    MaxReducer(),
    Statistics(),
    FnReducer(lambda: 1.0, lambda a, v: a * v + 0.5, lambda a, b: a * b),
    _UserMean(),
    _DoubledStatistics(),
]
_IDS_OF = lambda r: type(r).__name__  # noqa: E731
_IDS = [_IDS_OF(r) for r in REDUCERS]
numbers = st.lists(st.floats() | st.integers(-(2**60), 2**60), max_size=60)


def _bits(x):
    """Floats by their IEEE bits (so -0.0 and the last ulp count),
    accumulators field by field.  A NaN is just NaN: which operand's
    payload and sign ``nan + nan`` keeps is up to the C compiler, and
    CPython's specialised and generic float adds disagree."""
    if isinstance(x, StatisticsAcc):
        return tuple(_bits(getattr(x, f)) for f in ("count", "mean", "m2", "min", "max"))
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return "nan" if x != x else struct.pack("d", x)
    return x


def _step_loop(reducer, acc, values):
    for v in values:
        acc = reducer.step(acc, v)
    return acc


def _tree_by_steps(reducer, chunks):
    """tree_reduce with every chunk folded by the step loop."""
    accs = [_step_loop(reducer, reducer.zero(), c) for c in chunks]
    if not accs:
        return reducer.finish(reducer.zero())
    while len(accs) > 1:
        pairs = [reducer.combine(accs[i], accs[i + 1]) for i in range(0, len(accs) - 1, 2)]
        accs = pairs + accs[len(accs) - len(accs) % 2 :]
    return reducer.finish(accs[0])


class TestFoldIsTheStepLoop:
    """``fold`` is an optimisation, never a different answer: the same
    bits as ``step`` value by value, for every built-in reducer and for
    user reducers that define no ``fold`` of their own."""

    @pytest.mark.parametrize("reducer", REDUCERS, ids=_IDS)
    @given(xs=numbers)
    # ties: min/max keep the first of equal values, whose bits may differ
    @example(xs=[0.0, -0.0, 0.0])
    @example(xs=[1, 1.0, True, 1])
    @example(xs=[0.1, 0.2, 0.3, 1e16, -1e16, float("nan"), 2.0])
    def test_bit_for_bit(self, reducer, xs):
        want = _bits(_step_loop(reducer, reducer.zero(), xs))
        assert _bits(reducer.fold(reducer.zero(), xs)) == want
        assert _bits(reducer.fold(reducer.zero(), (x for x in xs))) == want
        finished = reducer.finish(_step_loop(reducer, reducer.zero(), xs))
        assert _bits(reduce_all(reducer, iter(xs))) == _bits(finished)

    @pytest.mark.parametrize("reducer", REDUCERS, ids=_IDS)
    def test_empty_input_is_zero(self, reducer):
        assert _bits(reducer.fold(reducer.zero(), [])) == _bits(reducer.zero())
        assert _bits(reducer.fold(reducer.zero(), iter(()))) == _bits(reducer.zero())

    @pytest.mark.parametrize("reducer", REDUCERS, ids=_IDS)
    @given(xs=numbers, k=st.integers(1, 6))
    def test_tree_reduce_folds_its_chunks_the_same(self, reducer, xs, k):
        chunks = [xs[i::k] for i in range(k)]
        got, _ = tree_reduce(reducer, [iter(c) for c in chunks])
        assert _bits(got) == _bits(_tree_by_steps(reducer, chunks))

    def test_user_reducers_fold_through_their_step(self):
        assert type(_UserMean()).fold is Reducer.fold
        doubled = _DoubledStatistics()
        assert doubled.fold(doubled.zero(), [1.0, 2.0]).mean == 3.0

    @pytest.mark.parametrize("reducer", [SumReducer(), Statistics(), _UserMean()], ids=_IDS_OF)
    @pytest.mark.parametrize("chunks", [1, 3, 8])
    def test_par_reduce(self, reducer, chunks):
        values = [(v * 7919 % 1000) / 7.0 for v in range(50)]
        p = Program("parfold")
        Go = p.table("Go", "int g", orderby=("B",))
        got = {}

        @p.foreach(Go)
        def agg(ctx, go):
            got["r"] = ctx.par_reduce(iter(values), reducer, chunks=chunks)

        p.put(Go.new(0))
        p.run()
        size = -(-len(values) // chunks)
        want = _tree_by_steps(reducer, [values[i * size : (i + 1) * size] for i in range(chunks)])
        assert _bits(got["r"]) == _bits(want)


@given(st.lists(floats, min_size=2, max_size=80))
def test_statistics_welford_matches_naive(xs):
    acc = reduce_all(Statistics(), xs)
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert acc.mean == pytest.approx(mean, rel=1e-7, abs=1e-6)
    assert acc.variance == pytest.approx(var, rel=1e-5, abs=1e-4)
    assert not math.isnan(acc.stddev)
