"""Reduce and scan operations with user-defined operators.

§1.3: "To replace some common uses of sequential loops, JStar supports
reduce and scan operations with user-defined operators."  A
:class:`Reducer` is a monoid-with-projection: ``zero`` / ``step`` /
``combine`` / ``finish``.  ``combine`` is what makes tree-shaped
parallel reduction legal (§5.2: "Loops that do involve a reducer object
could also be executed in parallel, with a tree-based pass to combine
the final reducer results") — the engine's parallel in-loop reduction
uses it, and a hypothesis property test checks every built-in reducer's
``combine`` agrees with sequential folding.

:class:`Statistics` is the reducer the PvWatts program uses
(``stats += record.power; ... stats.mean``): count/mean/variance with
a numerically stable (Chan et al.) parallel merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar

A = TypeVar("A")  # accumulator
V = TypeVar("V")  # element
R = TypeVar("R")  # result

__all__ = [
    "Reducer",
    "SumReducer",
    "CountReducer",
    "MinReducer",
    "MaxReducer",
    "Statistics",
    "StatisticsAcc",
    "FnReducer",
    "reduce_all",
    "scan",
    "tree_reduce",
]


class Reducer(Generic[V, A, R]):
    """User-defined reduction operator (monoid + projection).

    ``fold`` is ``step`` over many values; a reducer may override it
    with a faster loop that performs the identical operations in the
    identical order, so its result is the same bits.  A subclass that
    redefines ``step`` without ``fold`` folds through its own ``step``."""

    def __init_subclass__(cls, **kw: Any) -> None:
        super().__init_subclass__(**kw)
        if "step" in vars(cls) and "fold" not in vars(cls):
            cls.fold = Reducer.fold  # type: ignore[method-assign]

    def zero(self) -> A:
        raise NotImplementedError

    def step(self, acc: A, value: V) -> A:
        raise NotImplementedError

    def fold(self, acc: A, values: Iterable[V]) -> A:
        step = self.step
        for v in values:
            acc = step(acc, v)
        return acc

    def combine(self, left: A, right: A) -> A:
        raise NotImplementedError

    def finish(self, acc: A) -> R:
        return acc  # type: ignore[return-value]


class SumReducer(Reducer[float, float, float]):
    """Sum of numeric values."""

    def zero(self) -> float:
        return 0

    def step(self, acc: float, value: float) -> float:
        return acc + value

    def combine(self, left: float, right: float) -> float:
        return left + right


class CountReducer(Reducer[Any, int, int]):
    """Number of values."""

    def zero(self) -> int:
        return 0

    def step(self, acc: int, value: Any) -> int:
        return acc + 1

    def combine(self, left: int, right: int) -> int:
        return left + right


class MinReducer(Reducer[Any, Any, Any]):
    """Minimum; ``None`` is the identity (empty input)."""

    def zero(self) -> Any:
        return None

    def step(self, acc: Any, value: Any) -> Any:
        return value if acc is None or value < acc else acc

    def combine(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return left if left <= right else right


class MaxReducer(Reducer[Any, Any, Any]):
    """Maximum; ``None`` is the identity."""

    def zero(self) -> Any:
        return None

    def step(self, acc: Any, value: Any) -> Any:
        return value if acc is None or value > acc else acc

    def combine(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return left if left >= right else right


@dataclass(frozen=True, slots=True)
class StatisticsAcc:
    """Welford-style accumulator: count, mean, M2 (sum of squared
    deviations), min, max."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count


class Statistics(Reducer[float, StatisticsAcc, StatisticsAcc]):
    """The paper's standard ``Statistics`` reduce operator (Fig 4).

    Parallel-mergeable via the Chan et al. pairwise update, so it can
    sit at the leaves of a tree reduction without changing results
    beyond floating-point reassociation.
    """

    def zero(self) -> StatisticsAcc:
        return StatisticsAcc()

    def step(self, acc: StatisticsAcc, value: float) -> StatisticsAcc:
        n = acc.count + 1
        delta = value - acc.mean
        mean = acc.mean + delta / n
        m2 = acc.m2 + delta * (value - mean)
        return StatisticsAcc(
            n, mean, m2, min(acc.min, value), max(acc.max, value)
        )

    def fold(self, acc: StatisticsAcc, values: Iterable[float]) -> StatisticsAcc:
        # step's arithmetic on locals; one accumulator at the end
        n, mean, m2, lo, hi = acc.count, acc.mean, acc.m2, acc.min, acc.max
        for value in values:
            n = n + 1
            delta = value - mean
            mean = mean + delta / n
            m2 = m2 + delta * (value - mean)
            if value < lo:  # min(lo, value) keeps lo unless value < lo
                lo = value
            if value > hi:
                hi = value
        return StatisticsAcc(n, mean, m2, lo, hi)

    def combine(self, left: StatisticsAcc, right: StatisticsAcc) -> StatisticsAcc:
        if left.count == 0:
            return right
        if right.count == 0:
            return left
        n = left.count + right.count
        delta = right.mean - left.mean
        mean = left.mean + delta * right.count / n
        m2 = left.m2 + right.m2 + delta * delta * left.count * right.count / n
        return StatisticsAcc(
            n, mean, m2, min(left.min, right.min), max(left.max, right.max)
        )


class FnReducer(Reducer[V, A, A]):
    """Ad-hoc reducer from plain functions (associative ``combine``
    required for parallel use — the causality prover cannot check this,
    exactly as the paper trusts user-defined operators)."""

    def __init__(
        self,
        zero: Callable[[], A],
        step: Callable[[A, V], A],
        combine: Callable[[A, A], A],
    ):
        self._zero = zero
        self._step = step
        self._combine = combine

    def zero(self) -> A:
        return self._zero()

    def step(self, acc: A, value: V) -> A:
        return self._step(acc, value)

    def combine(self, left: A, right: A) -> A:
        return self._combine(left, right)


def reduce_all(reducer: Reducer[V, A, R], values: Iterable[V]) -> R:
    """Sequential fold."""
    return reducer.finish(reducer.fold(reducer.zero(), values))


def scan(reducer: Reducer[V, A, R], values: Iterable[V]) -> Iterator[R]:
    """Inclusive prefix scan: yields ``finish`` of every prefix."""
    acc = reducer.zero()
    for v in values:
        acc = reducer.step(acc, v)
        yield reducer.finish(acc)


def tree_reduce(
    reducer: Reducer[V, A, R], chunks: Iterable[Iterable[V]]
) -> tuple[R, int]:
    """Fold each chunk independently, then combine pairwise in a
    balanced tree — the §5.2 parallel-loop reduction shape.  Returns
    ``(result, tree_depth)``; the depth feeds the virtual-time model
    (the combine pass is a log-depth critical path)."""
    accs: list[A] = [reducer.fold(reducer.zero(), chunk) for chunk in chunks]
    if not accs:
        return reducer.finish(reducer.zero()), 0
    depth = 0
    while len(accs) > 1:
        nxt: list[A] = []
        for i in range(0, len(accs) - 1, 2):
            nxt.append(reducer.combine(accs[i], accs[i + 1]))
        if len(accs) % 2:
            nxt.append(accs[-1])
        accs = nxt
        depth += 1
    return reducer.finish(accs[0]), depth
