"""Run-statistics collector.

§1.5: JStar supports "a logging system for recording usage statistics
about each table during a program run, and tools to visualise those
logs as annotated dependency graphs of the program execution.  This is
a useful basis for choosing parallelisation strategies."

The collector reports, per table: tuples put, duplicates discarded,
Delta traversals, Gamma insertions, queries served and results
returned; per rule: firings and puts; and the table→rule→table edges
actually exercised (which tables triggered which rules, which tables
those rules put into).  Only the edges and the events that are no edge
are stored; the per-table and per-rule totals are sums over the edges.
:mod:`repro.stats.depgraph` turns this into the annotated dependency
graphs of Figs 7/9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

__all__ = ["TableStats", "RuleStats", "Note", "StatsCollector"]


def _derived(field: str) -> property:
    """A total that is no stored slot: read off the collector's one
    pass over its edge maps (:meth:`StatsCollector.totals`)."""
    return property(lambda self: self.as_dict()[field])


class _Record:
    """One table's or rule's counters.  A subclass's ``__slots__`` are
    stored here and bumped in place by the engine; its other fields are
    :func:`_derived` sums over the collector's edge maps."""

    __slots__ = ("_stats", "_name")
    FIELDS: tuple[str, ...] = ()  # in report order
    _SECTION = 0  # which half of ``totals()`` describes this kind of record

    def __init__(self, stats: "StatsCollector", name: str):
        self._stats = stats
        self._name = name
        for stored in type(self).__slots__:
            setattr(self, stored, 0)

    def as_dict(self) -> dict[str, int]:
        return self._stats.totals()[self._SECTION][self._name]

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.as_dict() == other.as_dict()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._name!r}, {self.as_dict()})"


class TableStats(_Record):
    """Usage counters for one table."""

    __slots__ = (
        "duplicates",       # discarded by set semantics
        "delta_inserts",    # entered the Delta tree
        "delta_bypass",     # -noDelta direct-to-Gamma path
        "gamma_inserts",    # stored in Gamma
        "gamma_skipped",    # -noGamma: never stored
        "gamma_discarded",  # pruned by lifetime hints (§5 step 4)
    )
    FIELDS = ("puts", *__slots__, "queries", "results", "triggers")
    puts = _derived("puts")          # by rules, or fed from outside
    queries = _derived("queries")    # answered from this table
    results = _derived("results")    # tuples those queries returned
    triggers = _derived("triggers")  # rule firings it triggered


class RuleStats(_Record):
    """Usage counters for one rule (or one feed source)."""

    __slots__ = ("output_lines",)
    FIELDS = ("firings", "puts", "output_lines")
    _SECTION = 1
    firings = _derived("firings")
    puts = _derived("puts")


class Note(NamedTuple):
    """One engine configuration note: what happened (``code``, e.g.
    ``codegen.kept-scalar``), the sentence ``run_report`` prints, and
    what it is about (``subject``: a rule, a worker, or nothing)."""

    code: str
    text: str
    subject: str = ""


@dataclass
class StatsCollector:
    """Whole-run statistics; cheap enough to stay on by default.

    Every count has one home.  An edge of the execution graph is one
    cell of one map — ``trigger_edges``, ``put_edges``, ``query_hits`` —
    which the engine bumps where the event happens; what a report shows
    about a table or a rule beyond its stored events (``tables``,
    ``rules``, ``query_edges``, ``rule_query_shapes``, ``shapes_for``)
    is a sum over those cells, taken when read.
    """

    #: (trigger table, rule name) -> firings
    trigger_edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (rule name | feed source, output table) -> puts
    put_edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (rule, table, eq-bound fields, range fields) -> [queries, results]:
    #: the §1.4 raw material — "static analysis on the queries that are
    #: performed ... before deciding how to represent the data, which
    #: fields should be indexed" — gathered dynamically, and per rule, so
    #: the locality checker can classify *observed* queries.  Folded from
    #: the plans that served them at settle time (:meth:`absorb_planned`)
    query_hits: dict[tuple[str, str, tuple[str, ...], tuple[str, ...]], list[int]] = field(
        default_factory=dict
    )
    #: the records holding what is stored per table / per rule; read
    #: them through :attr:`tables` / :attr:`rules`
    table_events: dict[str, TableStats] = field(default_factory=dict)
    rule_events: dict[str, RuleStats] = field(default_factory=dict)
    #: per-step frontier widths, in step order — the all-minimums
    #: parallelism profile; ``steps`` / ``max_batch`` are its length / max
    frontier_widths: list[int] = field(default_factory=list)
    #: injected-fault counters (chaos strategy): kind -> count
    faults: dict[str, int] = field(default_factory=dict)
    #: retraction mode: tuples removed by over-delete/repair (cumulative
    #: — a tuple retracted and later rederived counts in both)
    retractions: int = 0
    #: retraction mode: triggers re-enqueued by DRed rederivation
    rederivations: int = 0
    #: retraction mode, grown-result invalidation: new Gamma tuples
    #: checked, live firings whose eq-footprint a newcomer hit (the
    #: repair path's work), and firings it killed
    grown_checks: int = 0
    grown_candidates: int = 0
    grown_doomed: int = 0
    #: engine configuration notes: options the engine adjusted (e.g.
    #: metering forced on by a virtual-time strategy) — surfaced in
    #: ``run_report`` so knob overrides are never silent
    note_records: list[Note] = field(default_factory=list)
    #: per-settle deltas of an incremental session: one record per
    #: ``settle()`` call with the steps/fires/puts/output it added
    settles: list[dict] = field(default_factory=list)

    def table(self, name: str) -> TableStats:
        s = self.table_events.get(name)
        if s is None:
            s = self.table_events[name] = TableStats(self, name)
        return s

    def rule(self, name: str) -> RuleStats:
        s = self.rule_events.get(name)
        if s is None:
            s = self.rule_events[name] = RuleStats(self, name)
        return s

    # -- derived views -----------------------------------------------------------

    def _name_records(self) -> None:
        """A record for every table and every rule (or feed source) an
        edge names — an event has made its own."""
        for rule, table, *_shape in (*self.put_edges, *self.query_hits):
            self.table(table)
            self.rule(rule)
        for table, rule in self.trigger_edges:
            self.table(table)
            self.rule(rule)

    @property
    def tables(self) -> dict[str, TableStats]:
        self._name_records()
        return self.table_events

    @property
    def rules(self) -> dict[str, RuleStats]:
        self._name_records()
        return self.rule_events

    def totals(self) -> tuple[dict[str, dict[str, int]], dict[str, dict[str, int]]]:
        """Every table's and every rule's counters as dicts, name ->
        field -> count: what is stored beside the sums of the edges, in
        one pass over the maps.  The one definition of the derived
        fields; a record's properties and ``as_dict`` read it."""
        self._name_records()
        tables, rules = (
            # a stored field's value, a derived one's zero to sum into
            {
                name: {f: getattr(s, f) if f in s.__slots__ else 0 for f in s.FIELDS}
                for name, s in records.items()
            }
            for records in (self.table_events, self.rule_events)
        )
        for (table, rule), n in self.trigger_edges.items():
            tables[table]["triggers"] += n
            rules[rule]["firings"] += n
        for (rule, table), n in self.put_edges.items():
            tables[table]["puts"] += n
            rules[rule]["puts"] += n
        for (_rule, table, _eq, _rng), (n_queries, n_results) in self.query_hits.items():
            tables[table]["queries"] += n_queries
            tables[table]["results"] += n_results
        return tables, rules

    def _queries_by(self, key_of, table: str | None = None) -> dict:
        out: dict = {}
        for key, (n_queries, _n_results) in self.query_hits.items():
            if table is None or key[1] == table:
                out[key_of(key)] = out.get(key_of(key), 0) + n_queries
        return out

    @property
    def query_edges(self) -> dict[tuple[str, str], int]:
        """(rule name, queried table) read edges."""
        return self._queries_by(lambda k: k[:2])

    @property
    def rule_query_shapes(self) -> dict[tuple[str, str, tuple[str, ...], tuple[str, ...]], int]:
        """Observed query shapes, by the querying rule: (rule, table, eq
        fields, range fields) -> count."""
        return self._queries_by(lambda k: k)

    def shapes_for(self, table: str) -> dict[tuple[tuple[str, ...], tuple[str, ...]], int]:
        """Observed (eq fields, range fields) -> count for one table."""
        return self._queries_by(lambda k: k[2:], table)

    @property
    def steps(self) -> int:
        return len(self.frontier_widths)

    @property
    def max_batch(self) -> int:
        return max(self.frontier_widths, default=0)

    @property
    def notes(self) -> list[str]:
        """The notes as ``run_report`` prints them."""
        return [n.text for n in self.note_records]

    # -- event hooks used by the engine ------------------------------------

    def on_step(self, batch_size: int) -> None:
        self.frontier_widths.append(batch_size)

    def on_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def on_put(self, rule: str, table: str, n: int = 1) -> None:
        key = (rule, table)
        self.put_edges[key] = self.put_edges.get(key, 0) + n

    def note(self, code: str, text: str, subject: str = "") -> None:
        """Record a configuration note (knob override, restore caveat)."""
        if Note(code, text, subject) not in self.note_records:
            self.note_records.append(Note(code, text, subject))

    def absorb_planned(self, plans) -> None:
        """Fold the per-plan query tallies (see
        :attr:`~repro.plan.compile.CompiledQueryPlan.rule_hits`) into
        :attr:`query_hits` — called at settle time, and the only way
        query counts reach the collector: every tier, sharded or not,
        counts a query on the plan that served it.  Cells are zeroed in
        place: a generated driver holds the cell it bumps."""
        for plan in plans:
            for rule, cell in plan.rule_hits.items():
                if cell[0]:
                    total = self.query_hits.setdefault((rule, *plan.stat_shape), [0, 0])
                    total[0] += cell[0]
                    total[1] += cell[1]
                    cell[0] = cell[1] = 0

    # -- reporting -----------------------------------------------------------

    def frontier_profile(self) -> dict[str, float]:
        """Summary of per-step frontier widths: how much all-minimums
        parallelism the program actually exposed."""
        widths = self.frontier_widths
        if not widths:
            return {"steps": 0, "mean": 0.0, "max": 0, "singletons": 0}
        return {
            "steps": len(widths),
            "mean": sum(widths) / len(widths),
            "max": max(widths),
            "singletons": sum(1 for w in widths if w == 1),
        }

    def as_dict(self) -> dict:
        tables, rules = self.totals()
        return {
            "steps": self.steps,
            "max_batch": self.max_batch,
            "frontier": self.frontier_profile(),
            "faults": dict(sorted(self.faults.items())),
            **{name: getattr(self, name) for name in _REPAIR_COUNTERS},
            "tables": tables,
            "rules": rules,
            # the incremental-session view: knob-override notes and the
            # per-settle delta records — this dict is what the session
            # service's ``stats`` verb returns for a tenant
            "notes": self.notes,
            "settles": [dict(s) for s in self.settles],
        }

    # -- checkpointing --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serialisable form of what is stored — a session
        snapshot's ``stats`` section and a mesh worker's ``bye``
        (tuple-keyed maps are encoded as lists)."""
        return {
            "tables": {
                n: [getattr(s, event) for event in TableStats.__slots__]
                for n, s in self.table_events.items()
            },
            "rules": {n: s.output_lines for n, s in self.rule_events.items()},
            "trigger_edges": [[*key, n] for key, n in self.trigger_edges.items()],
            "put_edges": [[*key, n] for key, n in self.put_edges.items()],
            # key order: a tier registers its plans' shapes in its own order
            "query_hits": [[*key, *hit] for key, hit in sorted(self.query_hits.items())],
            "frontier_widths": list(self.frontier_widths),
            "faults": dict(self.faults),
            **{name: getattr(self, name) for name in _REPAIR_COUNTERS},
            "notes": [list(n) for n in self.note_records if not _rederived(n.code)],
            "settles": [dict(s) for s in self.settles],
        }

    def merge_state(self, state: dict) -> None:
        """Add a :meth:`to_state` document to this collector: the one
        merge — how a restore refills an emptied collector
        (:meth:`load_state`) and how the worker mesh folds each worker's
        observations into the coordinator's."""
        for name, events in state.get("tables", {}).items():
            record = self.table(name)
            for event, n in zip(TableStats.__slots__, events):
                setattr(record, event, getattr(record, event) + int(n))
        for name, n in state.get("rules", {}).items():
            self.rule(name).output_lines += int(n)
        for a, b, n in state.get("trigger_edges", []):
            self.trigger_edges[a, b] = self.trigger_edges.get((a, b), 0) + int(n)
        for a, b, n in state.get("put_edges", []):
            self.on_put(a, b, int(n))
        for r, t, eq, rng, n_queries, n_results in state.get("query_hits", []):
            hit = self.query_hits.setdefault((r, t, tuple(eq), tuple(rng)), [0, 0])
            hit[0] += int(n_queries)
            hit[1] += int(n_results)
        self.frontier_widths.extend(int(w) for w in state.get("frontier_widths", []))
        for kind, n in state.get("faults", {}).items():
            self.faults[str(kind)] = self.faults.get(str(kind), 0) + int(n)
        for name in _REPAIR_COUNTERS:
            setattr(self, name, getattr(self, name) + int(state.get(name, 0)))
        for code, text, subject in state.get("notes", []):
            if not _rederived(code):
                self.note(code, text, subject)
        self.settles.extend(dict(s) for s in state.get("settles", []))

    def load_state(self, state: dict) -> None:
        """Restore in place (the engine's tiers and strategies hold
        references to this collector and its maps, so neither may be
        replaced): empty everything but the notes this kernel derived
        from its own options and tier, then :meth:`merge_state`."""
        kept = [n for n in self.note_records if _rederived(n.code)]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (dict, list)):
                value.clear()
            else:
                setattr(self, f.name, 0)
        self.note_records.extend(kept)
        self.merge_state(state)


def _rederived(code: str) -> bool:
    """A note a kernel re-derives from its options or its tier — noted
    at construction, or a run total re-reported at every flush — and so
    never written to a state document: two tiers of one run write equal
    ``stats`` sections, and a restore keeps the restoring kernel's own."""
    return code.startswith(("codegen.", "metering.")) or code.endswith(".ignored")


#: the retraction-mode scalars, as ``as_dict`` and the state document list them
_REPAIR_COUNTERS = (
    "retractions", "rederivations", "grown_checks", "grown_candidates", "grown_doomed"
)
