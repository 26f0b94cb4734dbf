"""The Delta tree: a multi-level deduplicating priority structure.

§5 of the paper: "the Delta set is organised as a single tree,
containing tuples from many tables, sorted lexicographically by the
orderby lists of those tables.  That is, the *i*-th level of the Delta
tree is sorted according to the *i*-th entries of the orderby lists."

* literal levels are "a linear array of subtrees, indexed by a total
  ordering of the order relationship" — here a rank-keyed child map;
* ``seq`` levels use a sorted map (the paper's ``TreeMap`` /
  ``ConcurrentSkipListMap``) — here a ``sortedcontainers.SortedDict``,
  whose layout depends only on its keys;
* ``par`` levels collapse: all values share one subtree (unordered ⇒
  equivalent ⇒ parallel);
* leaves hold *sets* of tuples — one equivalence class, executable in
  parallel ("a priority-queue is not sufficient, because we also need
  to remove duplicate tuples as they are inserted", footnote 5).

A tuple whose orderby list ends early lives in the interior node's
``here`` set and is *earlier* than everything in that node's subtrees
(prefix-before-extension, matching
:func:`repro.core.ordering.compare_timestamps`).

:meth:`DeltaTree.pop_min_class` removes and returns the minimal
equivalence class — exactly the batch the all-minimums strategy fires
in parallel each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from sortedcontainers import SortedDict

from repro.core.errors import OrderingError
from repro.core.ordering import KIND_LIT, KIND_PAR, KIND_SEQ, Timestamp
from repro.core.tuples import JTuple

__all__ = ["DeltaTree", "Insert", "Delete"]


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


class _Node:
    """One Delta-tree node.

    ``here`` holds tuples whose timestamp ends at this node (insertion
    -ordered dict used as a deterministic set).  ``kind`` is fixed by
    the first child inserted: KIND_LIT (children keyed by literal rank,
    plain dict), KIND_SEQ (children in a sorted map), or KIND_PAR
    (single collapsed child).  Mixing kinds at one level is a malformed
    program.
    """

    __slots__ = ("here", "kind", "children", "par_child", "count")

    def __init__(self) -> None:
        self.here: dict[JTuple, None] = {}
        self.kind: int | None = None
        self.children: dict | SortedDict | None = None
        self.par_child: _Node | None = None
        self.count = 0  # tuples in this subtree, including `here`


class DeltaTree:
    """The Delta set (§5, Fig 3).

    Supports insert-with-dedup, minimal-class extraction, and snapshot
    iteration (for visualisation).  All operations are deterministic.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._members: set[JTuple] = set()

    def __len__(self) -> int:
        return self._root.count

    def __bool__(self) -> bool:
        return self._root.count > 0

    def __contains__(self, tup: JTuple) -> bool:
        return tup in self._members

    # -- insertion -----------------------------------------------------------

    def insert(self, tup: JTuple, ts: Timestamp) -> bool:
        """Insert a tuple at its timestamp; False if it is already
        pending (duplicates are discarded on insertion, footnote 5)."""
        if tup in self._members:
            return False
        self._members.add(tup)
        self._place(tup, ts)
        return True

    def insert_batch(self, items: list[tuple[JTuple, Timestamp]]) -> list[bool]:
        """Insert a whole phase-C put batch with one membership-set
        update at the end instead of one per tuple.  The returned flags
        are positionally aligned with ``items``; per-item semantics are
        exactly :meth:`insert` in order (intra-batch duplicates are
        rejected like already-pending tuples)."""
        members = self._members
        fresh: set[JTuple] = set()
        accepted: list[bool] = []
        place = self._place
        for tup, ts in items:
            if tup in members or tup in fresh:
                accepted.append(False)
                continue
            place(tup, ts)
            fresh.add(tup)
            accepted.append(True)
        members.update(fresh)
        return accepted

    def _place(self, tup: JTuple, ts: Timestamp) -> None:
        """The tree walk of an insert (membership managed by callers)."""
        node = self._root
        path: list[_Node] = [node]
        for comp in ts.key:
            kind = comp[0]
            if node.kind is None:
                node.kind = kind
                if kind == KIND_LIT:
                    node.children = {}
                elif kind == KIND_SEQ:
                    node.children = SortedDict()
                # KIND_PAR uses par_child only
            elif node.kind != kind:
                raise OrderingError(
                    "Delta tree level kind mismatch: the program's orderby "
                    "lists disagree on the structure of a level"
                )
            if kind == KIND_PAR:
                child = node.par_child
                if child is None:
                    child = node.par_child = _Node()
            else:  # a literal rank or a seq value: a SortedDict is a dict
                assert isinstance(node.children, dict)
                child = node.children.get(comp[1])
                if child is None:
                    child = node.children[comp[1]] = _Node()
            node = child
            path.append(node)
        node.here[tup] = None
        for n in path:
            n.count += 1

    # -- removal ---------------------------------------------------------------

    def remove(self, tup: JTuple, ts: Timestamp) -> bool:
        """Remove one pending tuple placed at ``ts`` (retraction of a
        not-yet-popped fact).  False if the tuple is not pending.
        Counts along the path are decremented; empty-node pruning is
        left to the pop side (counts are authoritative, pruning is
        best-effort)."""
        if tup not in self._members:
            return False
        node = self._root
        path: list[_Node] = [node]
        for comp in ts.key:
            kind = comp[0]
            if node.kind != kind:
                return False
            if kind == KIND_PAR:
                child = node.par_child
            else:
                assert isinstance(node.children, dict)
                child = node.children.get(comp[1])
            if child is None:
                return False
            node = child
            path.append(node)
        if tup not in node.here:
            return False
        del node.here[tup]
        for n in path:
            n.count -= 1
        self._members.discard(tup)
        return True

    # -- extraction -----------------------------------------------------------

    @staticmethod
    def _min_entry(node: _Node) -> tuple:
        """``(key, child)`` for the minimal non-empty child of an
        interior node — the single min-descent step shared by
        :meth:`peek_min_node` and :meth:`pop_min_class`.  ``key`` is the
        child's key in its parent (``None`` for the collapsed par
        child), which pop-side pruning needs."""
        if node.kind == KIND_PAR:
            child = node.par_child
            assert child is not None and child.count > 0
            return None, child
        if node.kind == KIND_LIT:
            assert isinstance(node.children, dict)
            key = min(r for r, c in node.children.items() if c.count > 0)
            return key, node.children[key]
        assert isinstance(node.children, SortedDict)
        children = node.children
        for k in children:
            c = children[k]
            if c.count > 0:
                return k, c
        raise AssertionError("non-empty node had no non-empty child")

    def peek_min_node(self) -> _Node | None:
        """The node holding the minimal equivalence class (or None)."""
        node = self._root
        if node.count == 0:
            return None
        while not node.here:
            _, node = self._min_entry(node)
        return node

    def pop_min_class(self) -> list[JTuple]:
        """Remove and return the minimal equivalence class (insertion
        order preserved — deterministic).  Empty list if the tree is
        empty."""
        if self._root.count == 0:
            return []
        # descend, remembering the path so counts/pruning can be fixed up
        path: list[tuple[_Node, int | None]] = []  # (node, child key or None)
        node = self._root
        while not node.here:
            key, child = self._min_entry(node)
            path.append((node, key))
            node = child
        batch = list(node.here)
        n = len(batch)
        node.here.clear()
        node.count -= n
        for parent, key in reversed(path):
            parent.count -= n
            # prune empty children to keep min-descent fast (best-effort;
            # counts are authoritative).  A seq level's SortedDict is a
            # dict, so literal and seq levels prune alike.
            if parent.kind == KIND_PAR:
                if parent.par_child is not None and parent.par_child.count == 0:
                    parent.par_child = None
            else:
                children = parent.children
                assert isinstance(children, dict)
                if key is not None and children[key].count == 0:
                    del children[key]
        self._members.difference_update(batch)
        return batch

    def drain(self) -> Iterator[list[JTuple]]:
        """Iterate equivalence classes in causal order, consuming the tree."""
        while self:
            yield self.pop_min_class()

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> list[tuple[tuple, list[str]]]:
        """(path-key, [tuple reprs]) for every non-empty leaf set, in
        causal order — used by the Delta-tree visualiser."""
        out: list[tuple[tuple, list[str]]] = []

        def walk(node: _Node, prefix: tuple) -> None:
            if node.here:
                out.append((prefix, [repr(t) for t in node.here]))
            if node.kind == KIND_PAR and node.par_child is not None:
                walk(node.par_child, prefix + ("par",))
            elif node.kind == KIND_LIT and isinstance(node.children, dict):
                for rank in sorted(node.children):
                    walk(node.children[rank], prefix + (("lit", rank),))
            elif node.kind == KIND_SEQ and isinstance(node.children, SortedDict):
                for k, child in node.children.items():
                    walk(child, prefix + (("seq", k),))

        walk(self._root, ())
        return out

    def dump(self) -> list[JTuple]:
        """Every pending tuple, in causal walk order (``here`` before
        children; literal children by rank, seq children in key order,
        the collapsed par child last).  Within one leaf the original
        insertion order is preserved, so re-inserting the dumped list
        into an empty tree — each tuple at its own timestamp —
        reproduces this tree exactly, including the deterministic
        pop order of every equivalence class.  This is the Delta half of
        a session snapshot."""
        out: list[JTuple] = []

        def walk(node: _Node) -> None:
            out.extend(node.here)
            if node.kind == KIND_PAR and node.par_child is not None:
                walk(node.par_child)
            elif node.kind == KIND_LIT and isinstance(node.children, dict):
                for rank in sorted(node.children):
                    walk(node.children[rank])
            elif node.kind == KIND_SEQ and isinstance(node.children, SortedDict):
                for _k, child in node.children.items():
                    walk(child)

        walk(self._root)
        return out

    def clear(self) -> None:
        self._root = _Node()
        self._members.clear()
