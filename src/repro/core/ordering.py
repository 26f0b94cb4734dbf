"""Causality orderings: ``orderby`` specs, ``order`` declarations, timestamps.

Every JStar table declares an ``orderby`` list (§3/§4 of the paper) whose
entries are one of

* a capitalised **literal** name (``Lit``), ordered relative to other
  literals by explicit ``order`` declarations
  (e.g. ``order Req < PvWatts < SumMonth`` in Fig 4);
* ``seq field`` (``Seq``) — the level is sorted sequentially by the value
  of that field;
* ``par field`` (``Par``) — the level is unordered, so all values are
  equivalent and may be executed in parallel.

Evaluating a tuple's orderby list yields its **timestamp**.  Timestamps
are compared lexicographically, level by level:

* two literals compare through the *totalised* order declarations (the
  runtime's Delta tree stores named branches "indexed by a total ordering
  of the order relationship at that level", §5);
* two ``seq`` components compare by field value;
* two ``par`` components always compare **equal** (same equivalence
  class ⇒ parallel);
* a timestamp that is a strict prefix of another sorts *before* it;
* structurally mismatched levels (literal vs value) raise
  :class:`~repro.core.errors.OrderingError` — that is a malformed
  program, not a data condition.

Timestamps in the same equivalence class (compare equal) are exactly the
tuples the all-minimums strategy runs in parallel (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.errors import OrderingError

__all__ = [
    "Lit",
    "Seq",
    "Par",
    "OrderBySpec",
    "OrderDecls",
    "Timestamp",
    "output_keys",
    "compare_timestamps",
    "KIND_LIT",
    "KIND_SEQ",
    "KIND_PAR",
]

# Component kind codes used inside Timestamp keys.
KIND_LIT = 0
KIND_SEQ = 1
KIND_PAR = 2

_KIND_NAMES = {KIND_LIT: "literal", KIND_SEQ: "seq", KIND_PAR: "par"}


@dataclass(frozen=True, slots=True)
class Lit:
    """A literal orderby entry: a capitalised name ordered by ``order``
    declarations (e.g. the ``Int`` in ``orderby (Int, seq frame)``)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isupper():
            raise OrderingError(
                f"literal orderby names must be capitalised, got {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, slots=True)
class Seq:
    """A ``seq field`` orderby entry: sorted sequentially by field value."""

    field: str

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"seq {self.field}"


@dataclass(frozen=True, slots=True)
class Par:
    """A ``par field`` orderby entry: unordered, hence parallel."""

    field: str

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"par {self.field}"


OrderByEntry = Lit | Seq | Par
OrderBySpec = tuple  # tuple[OrderByEntry, ...]


def parse_orderby(entries: Iterable[OrderByEntry | str]) -> tuple[OrderByEntry, ...]:
    """Normalise an orderby declaration.

    Bare strings are accepted as shorthand: a capitalised string becomes
    a :class:`Lit`, ``"seq f"`` / ``"par f"`` become :class:`Seq` /
    :class:`Par`, matching the paper's concrete syntax
    ``orderby (Int, seq frame)``.
    """
    out: list[OrderByEntry] = []
    for e in entries:
        if isinstance(e, (Lit, Seq, Par)):
            out.append(e)
        elif isinstance(e, str):
            text = e.strip()
            if text.startswith("seq "):
                out.append(Seq(text[4:].strip()))
            elif text.startswith("par "):
                out.append(Par(text[4:].strip()))
            else:
                out.append(Lit(text))
        else:
            raise OrderingError(f"bad orderby entry: {e!r}")
    return tuple(out)


class OrderDecls:
    """The program's ``order`` declarations: a strict partial order over
    literal names, totalised for the runtime.

    ``declare("Req", "PvWatts", "SumMonth")`` records
    ``Req < PvWatts < SumMonth``.  :meth:`freeze` computes

    * the transitive closure (used by the static causality prover, which
      must only rely on *declared* order), and
    * a deterministic topological total order assigning each literal an
      integer :meth:`rank` (used by the Delta tree's named branches).

    Literals mentioned in orderby lists but never ordered are appended
    after all constrained literals, in first-seen order; that choice is
    arbitrary but deterministic, and the prover never relies on it.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._seen: list[str] = []  # insertion order of first mention
        self._ranks: dict[str, int] | None = None
        self._closure: dict[str, frozenset[str]] | None = None

    # -- construction ---------------------------------------------------

    def _touch(self, name: str) -> None:
        if name not in self._edges:
            self._edges[name] = set()
            self._seen.append(name)

    def declare(self, *names: str) -> None:
        """Record ``names[0] < names[1] < ... < names[-1]``."""
        if self._ranks is not None:
            raise OrderingError("order declarations are frozen")
        if len(names) < 2:
            raise OrderingError("order declaration needs at least two names")
        for n in names:
            self._touch(n)
        for lo, hi in zip(names, names[1:]):
            if lo == hi:
                raise OrderingError(f"order declares {lo} < itself")
            self._edges[lo].add(hi)

    def mention(self, name: str) -> None:
        """Register a literal that appears in some orderby list so it
        receives a rank even if no ``order`` declaration constrains it."""
        if self._ranks is not None:
            if name not in self._edges:
                raise OrderingError(
                    f"literal {name!r} mentioned after order declarations froze"
                )
            return
        self._touch(name)

    # -- freezing -------------------------------------------------------

    def freeze(self) -> None:
        """Totalise: topological sort (Kahn), ties broken by first-seen
        order so the result is deterministic. Raises on cycles."""
        if self._ranks is not None:
            return
        indeg = {n: 0 for n in self._edges}
        for lo, his in self._edges.items():
            for hi in his:
                indeg[hi] += 1
        order_index = {n: i for i, n in enumerate(self._seen)}
        ready = sorted((n for n, d in indeg.items() if d == 0), key=order_index.__getitem__)
        ranks: dict[str, int] = {}
        while ready:
            n = ready.pop(0)
            ranks[n] = len(ranks)
            inserted = []
            for hi in self._edges[n]:
                indeg[hi] -= 1
                if indeg[hi] == 0:
                    inserted.append(hi)
            if inserted:
                ready.extend(inserted)
                ready.sort(key=order_index.__getitem__)
        if len(ranks) != len(self._edges):
            cyclic = sorted(set(self._edges) - set(ranks))
            raise OrderingError(f"order declarations are cyclic among {cyclic}")
        self._ranks = ranks
        # transitive closure of the *declared* relation, for the prover
        closure: dict[str, set[str]] = {n: set() for n in self._edges}
        for n in sorted(self._edges, key=ranks.__getitem__, reverse=True):
            for hi in self._edges[n]:
                closure[n].add(hi)
                closure[n] |= closure[hi]
        self._closure = {n: frozenset(s) for n, s in closure.items()}

    @property
    def frozen(self) -> bool:
        return self._ranks is not None

    def _require_frozen(self) -> None:
        if self._ranks is None:
            raise OrderingError("OrderDecls must be frozen before use")

    # -- queries --------------------------------------------------------

    def rank(self, name: str) -> int:
        """Totalised rank of a literal (position in the Delta tree's
        linear array of named branches)."""
        self._require_frozen()
        assert self._ranks is not None
        try:
            return self._ranks[name]
        except KeyError:
            raise OrderingError(f"literal {name!r} never mentioned") from None

    def literals(self) -> tuple[str, ...]:
        """All known literals in rank order."""
        self._require_frozen()
        assert self._ranks is not None
        return tuple(sorted(self._ranks, key=self._ranks.__getitem__))

    def declared_less(self, a: str, b: str) -> bool:
        """True iff ``a < b`` follows from the *declared* order (its
        transitive closure) — the only relation the prover may use."""
        self._require_frozen()
        assert self._closure is not None
        if a not in self._closure or b not in self._closure:
            raise OrderingError(f"unknown literal in declared_less({a!r}, {b!r})")
        return b in self._closure[a]

    def comparable(self, a: str, b: str) -> bool:
        """True iff ``a`` and ``b`` are related by the declared order."""
        return a == b or self.declared_less(a, b) or self.declared_less(b, a)


class Timestamp:
    """A tuple's evaluated orderby list.

    ``key`` is a tuple of components ``(kind, payload)``:

    * ``(KIND_LIT, rank)`` — totalised rank of the literal,
    * ``(KIND_SEQ, value)`` — the field value,
    * ``(KIND_PAR,)`` — par levels erase the value for ordering purposes
      (all par siblings are equivalent); the raw value is retained in
      ``display`` for debugging.
    """

    __slots__ = ("key", "display")

    def __init__(self, key: tuple, display: tuple):
        self.key = key
        self.display = display

    # Rich comparisons delegate to compare_timestamps so mismatched
    # structures raise instead of silently ordering.
    def __lt__(self, other: "Timestamp") -> bool:
        return compare_timestamps(self, other) < 0

    def __le__(self, other: "Timestamp") -> bool:
        return compare_timestamps(self, other) <= 0

    def __gt__(self, other: "Timestamp") -> bool:
        return compare_timestamps(self, other) > 0

    def __ge__(self, other: "Timestamp") -> bool:
        return compare_timestamps(self, other) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def equivalent(self, other: "Timestamp") -> bool:
        """Same equivalence class ⇒ may execute in parallel (§5)."""
        return compare_timestamps(self, other) == 0

    def __repr__(self) -> str:
        parts = []
        for comp, disp in zip(self.key, self.display):
            kind = comp[0]
            if kind == KIND_LIT:
                parts.append(str(disp))
            elif kind == KIND_SEQ:
                parts.append(f"seq={disp!r}")
            else:
                parts.append(f"par={disp!r}")
        return f"Ts({', '.join(parts)})"


def output_keys(ts: Timestamp, trigger: Any, rule_index: int, n_lines: int) -> list[tuple]:
    """Canonical sort keys of the ``n_lines`` lines one firing printed:
    trigger timestamp key, a trigger tie-break (table name + value
    reprs), rule position, line position.  Every runtime sorts a
    class's output by these keys, which is what makes printed output a
    pure function of the firing set — across strategies, repair orders
    and distributed backends."""
    key = ts.key
    tie = (trigger.schema.name, tuple(repr(v) for v in trigger.values))
    return [(key, tie, rule_index, j) for j in range(n_lines)]


def _compare_component(a: tuple, b: tuple) -> int:
    ka, kb = a[0], b[0]
    if ka != kb:
        raise OrderingError(
            f"structurally incomparable timestamp levels: "
            f"{_KIND_NAMES[ka]} vs {_KIND_NAMES[kb]}"
        )
    if ka == KIND_PAR:
        return 0
    va, vb = a[1], b[1]
    if va == vb:
        return 0
    try:
        return -1 if va < vb else 1
    except TypeError as exc:
        raise OrderingError(
            f"timestamp values {va!r} and {vb!r} are not mutually ordered"
        ) from exc


def compare_timestamps(a: Timestamp, b: Timestamp) -> int:
    """Lexicographic three-way comparison; 0 means *equivalent*.

    A strict prefix compares before any extension of it (an empty
    orderby suffix means "no further constraint", which the Delta tree
    treats as the earliest point of the subtree).
    """
    if a is b:
        # shared object — constant-orderby timestamps and the timestamp
        # cached on each tuple make this the common case
        return 0
    ka, kb = a.key, b.key
    for ca, cb in zip(ka, kb):
        c = _compare_component(ca, cb)
        if c != 0:
            return c
    if len(ka) == len(kb):
        return 0
    return -1 if len(ka) < len(kb) else 1


def evaluate_orderby(
    spec: Sequence[Lit | Seq | Par],
    fields: dict[str, Any],
    decls: OrderDecls,
) -> Timestamp:
    """Evaluate an orderby spec against a tuple's field values."""
    key: list[tuple] = []
    display: list[Any] = []
    for entry in spec:
        if isinstance(entry, Lit):
            key.append((KIND_LIT, decls.rank(entry.name)))
            display.append(entry.name)
        elif isinstance(entry, Seq):
            v = fields[entry.field]
            key.append((KIND_SEQ, v))
            display.append(v)
        else:  # Par
            v = fields[entry.field]
            key.append((KIND_PAR,))
            display.append(v)
    return Timestamp(tuple(key), tuple(display))
