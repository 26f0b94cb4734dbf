"""The Delta tree: a deduplicating priority map of equivalence classes.

§5 of the paper: "the Delta set is organised as a single tree,
containing tuples from many tables, sorted lexicographically by the
orderby lists of those tables.  That is, the *i*-th level of the Delta
tree is sorted according to the *i*-th entries of the orderby lists."

That is lexicographic order on the whole :attr:`Timestamp.key` —
``(KIND_LIT, rank)``, ``(KIND_SEQ, value)`` or ``(KIND_PAR,)`` per
level — so the tree is kept flattened, one ``SortedDict`` from key to
class, and walks in the trie's order: literal levels by rank, ``seq``
levels (the paper's ``TreeMap``) by value, ``par`` levels collapsed
(the value is erased: unordered ⇒ equivalent ⇒ parallel), a key prefix
(an orderby list that ends early) before its extensions, as in
:func:`~repro.core.ordering.compare_timestamps`.  A class is a *set* of
tuples in insertion order (footnote 5: duplicates are removed as they
are inserted); :meth:`DeltaTree.pop_min_class` pops the minimal one —
the batch the all-minimums strategy fires each step.

Key order would silently rank a literal level against a ``seq`` level,
which a trie refuses, so a new class is checked against its two
neighbours (enough while no pending pair clashes: a key between two
clashing keys clashes with one of them) — and, when the tree is given
its tables, only for tables whose orderby lists :func:`can_clash`,
because checking every new class measurably slows a service settle.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from sortedcontainers import SortedDict

from repro.core.errors import OrderingError
from repro.core.ordering import KIND_LIT, KIND_SEQ, Lit, OrderByEntry, Timestamp
from repro.core.tuples import JTuple

if TYPE_CHECKING:
    from repro.core.schema import TableSchema

__all__ = ["DeltaTree", "Insert", "Delete", "can_clash"]


@dataclass(frozen=True, slots=True)
class Insert:
    """A feed event asserting a base fact.  Plain tuples passed to
    ``EngineSession.feed`` are sugar for ``Insert(tuple)``."""

    tuple: JTuple


@dataclass(frozen=True, slots=True)
class Delete:
    """A feed event retracting a previously inserted base fact.  Only
    honoured when the session runs with ``ExecOptions(retraction=True)``;
    derived consequences are repaired incrementally (counting +
    DRed-style over-delete/rederive)."""

    tuple: JTuple


#: the minimal class, unconsumed: its key and its tuples (``here``)
MinNode = namedtuple("MinNode", "key here")


def can_clash(a: tuple[OrderByEntry, ...], b: tuple[OrderByEntry, ...]) -> bool:
    """True iff timestamps of orderby lists ``a`` and ``b`` can meet a
    level of different kinds after equal levels.  Distinct literals are
    never equal, so they end the scan; ``seq`` and ``par`` may be."""
    for ea, eb in zip(a, b):
        if type(ea) is not type(eb):
            return True
        if isinstance(ea, Lit) and ea != eb:
            return False
    return False


def _clash(a: tuple, b: tuple) -> bool:
    """True iff keys ``a`` and ``b`` first differ in a level's kind."""
    for ca, cb in zip(a, b):
        if ca[0] != cb[0]:
            return True
        if ca != cb:
            return False
    return False


_TAGS = {KIND_LIT: "lit", KIND_SEQ: "seq"}


class DeltaTree:
    """The Delta set (§5, Fig 3).

    Supports insert-with-dedup, minimal-class extraction, and snapshot
    iteration (for visualisation).  All operations are deterministic.
    ``schemas`` are the tables that meet here: only new classes of
    those that :func:`can_clash` are checked (without it, all are).
    """

    def __init__(self, schemas: Iterable[TableSchema] | None = None) -> None:
        self._classes = SortedDict()  # Timestamp.key -> {tuple: None}
        self._members: set[JTuple] = set()
        self._suspects: frozenset[str] | None = None
        if schemas is not None:
            tables = list(schemas)
            self._suspects = frozenset(
                a.name for a in tables for b in tables if can_clash(a.orderby, b.orderby)
            )

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, tup: JTuple) -> bool:
        return tup in self._members

    # -- insertion -----------------------------------------------------------

    def insert(self, tup: JTuple, ts: Timestamp) -> bool:
        """Insert a tuple at its timestamp; False if it is already
        pending (duplicates are discarded on insertion, footnote 5)."""
        if tup in self._members:
            return False
        cls = self._classes.get(ts.key)
        if cls is None:
            cls = self._open(tup, ts.key)
        cls[tup] = None
        self._members.add(tup)
        return True

    def insert_batch(self, items: list[tuple[JTuple, Timestamp]]) -> list[bool]:
        """:meth:`insert` of each item in order (a later duplicate in
        the batch is rejected like a pending one); the flags align with
        ``items``.  A loop of its own rather than calls to :meth:`insert`,
        so a tracer wrapping both methods counts each tuple once."""
        members = self._members
        classes = self._classes
        accepted: list[bool] = []
        for tup, ts in items:
            if tup in members:
                accepted.append(False)
                continue
            cls = classes.get(ts.key)
            if cls is None:
                cls = self._open(tup, ts.key)
            cls[tup] = None
            members.add(tup)
            accepted.append(True)
        return accepted

    def _open(self, tup: JTuple, key: tuple) -> dict[JTuple, None]:
        """Add the empty class ``key``, refusing it if ``tup``'s table
        can clash and a neighbouring class does."""
        if self._suspects is None or tup.schema.name in self._suspects:
            i = self._classes.bisect_left(key)
            if any(_clash(key, k) for k in self._classes.keys()[max(i - 1, 0) : i + 1]):
                raise OrderingError(
                    "Delta tree level kind mismatch: the program's orderby "
                    "lists disagree on the structure of a level"
                )
        cls = self._classes[key] = {}
        return cls

    # -- removal ---------------------------------------------------------------

    def remove(self, tup: JTuple, ts: Timestamp) -> bool:
        """Remove one pending tuple placed at ``ts`` (retraction of a
        not-yet-popped fact), and its class once empty.  False if the
        tuple is not pending there."""
        cls = self._classes.get(ts.key)
        if cls is None or tup not in cls:
            return False
        del cls[tup]
        if not cls:
            del self._classes[ts.key]
        self._members.discard(tup)
        return True

    # -- extraction -----------------------------------------------------------

    def peek_min_node(self) -> MinNode | None:
        """The minimal equivalence class, not consumed (or None)."""
        return MinNode(*self._classes.peekitem(0)) if self._classes else None

    def pop_min_class(self) -> list[JTuple]:
        """Remove and return the minimal equivalence class, in insertion
        order; an empty list if the tree is empty."""
        if not self._classes:
            return []
        batch = list(self._classes.popitem(0)[1])
        self._members.difference_update(batch)
        return batch

    def drain(self) -> Iterator[list[JTuple]]:
        """Iterate equivalence classes in causal order, consuming the tree."""
        while self:
            yield self.pop_min_class()

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> list[tuple[tuple, list[str]]]:
        """``(path, [tuple reprs])`` per class in causal order, a path
        naming each level ``("lit", rank)``, ``("seq", value)`` or
        ``"par"`` — what the Delta-tree visualiser draws."""
        return [
            (tuple((_TAGS[c[0]], c[1]) if len(c) > 1 else "par" for c in key),
             [repr(t) for t in cls])
            for key, cls in self._classes.items()
        ]

    def dump(self) -> list[JTuple]:
        """Every pending tuple, classes in causal order and each in
        insertion order, so re-inserting the list into an empty tree
        rebuilds this one, pop order included: the Delta half of a
        session snapshot."""
        return [t for cls in self._classes.values() for t in cls]

    def clear(self) -> None:
        self._classes.clear()
        self._members.clear()
