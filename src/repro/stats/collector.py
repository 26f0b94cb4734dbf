"""Run-statistics collector.

§1.5: JStar supports "a logging system for recording usage statistics
about each table during a program run, and tools to visualise those
logs as annotated dependency graphs of the program execution.  This is
a useful basis for choosing parallelisation strategies."

The collector records, per table: tuples put, duplicates discarded,
Delta traversals, Gamma insertions, queries served and results
returned; per rule: firings and puts; and the table→rule→table edges
actually exercised (which tables triggered which rules, which tables
those rules put into).  :mod:`repro.stats.depgraph` turns this into the
annotated dependency graphs of Figs 7/9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TableStats", "RuleStats", "StatsCollector"]


@dataclass
class TableStats:
    """Usage counters for one table."""

    puts: int = 0            # tuples put by rules / initial puts
    duplicates: int = 0      # discarded by set semantics
    delta_inserts: int = 0   # entered the Delta tree
    delta_bypass: int = 0    # -noDelta direct-to-Gamma path
    gamma_inserts: int = 0   # stored in Gamma
    gamma_skipped: int = 0   # -noGamma: never stored
    gamma_discarded: int = 0 # pruned by lifetime hints (§5 step 4)
    queries: int = 0         # queries answered from this table
    results: int = 0         # tuples returned by those queries
    triggers: int = 0        # rule firings triggered by this table


@dataclass
class RuleStats:
    """Usage counters for one rule."""

    firings: int = 0
    puts: int = 0
    output_lines: int = 0


@dataclass
class StatsCollector:
    """Whole-run statistics; cheap enough to stay on by default."""

    tables: dict[str, TableStats] = field(default_factory=dict)
    rules: dict[str, RuleStats] = field(default_factory=dict)
    #: (trigger table, rule name) firing edges
    trigger_edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (rule name, output table) put edges
    put_edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (rule name, queried table) read edges
    query_edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: observed query shapes: (table, eq-bound fields, range fields) -> count.
    #: This is the §1.4 raw material: "static analysis on the queries
    #: that are performed ... before deciding how to represent the data,
    #: which fields should be indexed" — here gathered dynamically, the
    #: way the paper's logging subsystem feeds tuning decisions.
    query_shapes: dict[tuple[str, tuple[str, ...], tuple[str, ...]], int] = field(
        default_factory=dict
    )
    #: the same shapes keyed by the querying rule:
    #: (rule, table, eq-bound fields, range fields) -> count.  This is
    #: what lets the locality checker classify *observed* queries of
    #: rules that carry no symbolic metadata (opaque Python bodies).
    rule_query_shapes: dict[
        tuple[str, str, tuple[str, ...], tuple[str, ...]], int
    ] = field(default_factory=dict)
    steps: int = 0
    max_batch: int = 0
    #: per-step frontier widths, in step order — the all-minimums
    #: parallelism profile (how wide each equivalence class was)
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
    notes: list[str] = field(default_factory=list)
    #: per-settle deltas of an incremental session: one record per
    #: ``settle()`` call with the steps/fires/puts/output it added
    settles: list[dict] = field(default_factory=list)

    def table(self, name: str) -> TableStats:
        s = self.tables.get(name)
        if s is None:
            s = self.tables[name] = TableStats()
        return s

    def rule(self, name: str) -> RuleStats:
        s = self.rules.get(name)
        if s is None:
            s = self.rules[name] = RuleStats()
        return s

    # -- event hooks used by the engine ------------------------------------

    def on_step(self, batch_size: int) -> None:
        self.steps += 1
        self.max_batch = max(self.max_batch, batch_size)
        self.frontier_widths.append(batch_size)

    def on_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def note(self, message: str) -> None:
        """Record a configuration note (knob override, restore caveat)."""
        if message not in self.notes:
            self.notes.append(message)

    def replace_note(self, prefix: str, message: str) -> None:
        """Record a note that supersedes the earlier one starting with
        ``prefix`` (a running total re-reported at every settle)."""
        for i, old in enumerate(self.notes):
            if old.startswith(prefix):
                self.notes[i] = message
                return
        self.notes.append(message)

    def on_settle(self, record: dict) -> None:
        """Record one settle's frontier/fire deltas (incremental runs)."""
        self.settles.append(record)

    def on_fire(self, table: str, rule: str) -> None:
        self.table(table).triggers += 1
        self.rule(rule).firings += 1
        key = (table, rule)
        self.trigger_edges[key] = self.trigger_edges.get(key, 0) + 1

    def on_put(self, rule: str, table: str, n: int = 1) -> None:
        self.rule(rule).puts += n
        self.table(table).puts += n
        key = (rule, table)
        self.put_edges[key] = self.put_edges.get(key, 0) + n

    def absorb_planned(self, plans) -> None:
        """Fold the per-plan query tallies (see
        :attr:`~repro.plan.compile.CompiledQueryPlan.rule_hits`) into the
        collector and reset them — called at settle time, and the only
        way query counts reach it: every tier, sharded or not, counts a
        query on the plan that served it."""
        for plan in plans:
            if not plan.rule_hits:
                continue
            shape = plan.stat_shape
            table = shape[0]
            t = self.table(table)
            for rule, (n_queries, n_results) in plan.rule_hits.items():
                t.queries += n_queries
                t.results += n_results
                key = (rule, table)
                self.query_edges[key] = self.query_edges.get(key, 0) + n_queries
                rshape = (rule, *shape)
                self.rule_query_shapes[rshape] = (
                    self.rule_query_shapes.get(rshape, 0) + n_queries
                )
            self.query_shapes[shape] = (
                self.query_shapes.get(shape, 0)
                + sum(h[0] for h in plan.rule_hits.values())
            )
            plan.rule_hits.clear()

    def absorb_tallies(
        self,
        fire_tallies: dict[tuple[str, str], int],
        put_tallies: dict[tuple[str, str], int],
    ) -> None:
        """Fold the engine's deferred firing/put tallies into the
        collector — called once at run end; totals are identical to
        having routed every event through :meth:`on_fire` /
        :meth:`on_put`."""
        for (table, rule), n in fire_tallies.items():
            self.table(table).triggers += n
            self.rule(rule).firings += n
            self.trigger_edges[(table, rule)] = (
                self.trigger_edges.get((table, rule), 0) + n
            )
        for (rule, table), n in put_tallies.items():
            self.rule(rule).puts += n
            self.table(table).puts += n
            self.put_edges[(rule, table)] = self.put_edges.get((rule, table), 0) + n

    def absorb_table_tallies(self, tallies: dict[str, list[int]]) -> None:
        """Fold the engine's deferred per-table counters (same scheme as
        :meth:`absorb_tallies`; list layout fixed by the engine)."""
        for name, (bypass, dups, gins, gskip, dins) in tallies.items():
            t = self.table(name)
            t.delta_bypass += bypass
            t.duplicates += dups
            t.gamma_inserts += gins
            t.gamma_skipped += gskip
            t.delta_inserts += dins

    def shapes_for(self, table: str) -> dict[tuple[tuple[str, ...], tuple[str, ...]], int]:
        """Observed (eq fields, range fields) -> count for one table."""
        return {
            (eq, rng): n
            for (t, eq, rng), n in self.query_shapes.items()
            if t == table
        }

    # -- reporting -----------------------------------------------------------

    def summary_rows(self) -> list[tuple[str, TableStats]]:
        return sorted(self.tables.items())

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
        return {
            "steps": self.steps,
            "max_batch": self.max_batch,
            "frontier": self.frontier_profile(),
            "faults": dict(sorted(self.faults.items())),
            "retractions": self.retractions,
            "rederivations": self.rederivations,
            "grown_checks": self.grown_checks,
            "grown_candidates": self.grown_candidates,
            "grown_doomed": self.grown_doomed,
            "tables": {n: vars(s) for n, s in self.tables.items()},
            "rules": {n: vars(s) for n, s in self.rules.items()},
            # the incremental-session view: knob-override notes and the
            # per-settle delta records — this dict is what the session
            # service's ``stats`` verb returns for a tenant
            "notes": list(self.notes),
            "settles": [dict(s) for s in self.settles],
        }

    # -- checkpointing --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serialisable form for session snapshots (tuple-keyed
        edge dicts are encoded as lists)."""
        return {
            "tables": {n: vars(s).copy() for n, s in self.tables.items()},
            "rules": {n: vars(s).copy() for n, s in self.rules.items()},
            "trigger_edges": [[a, b, n] for (a, b), n in self.trigger_edges.items()],
            "put_edges": [[a, b, n] for (a, b), n in self.put_edges.items()],
            "query_edges": [[a, b, n] for (a, b), n in self.query_edges.items()],
            "query_shapes": [
                [t, list(eq), list(rng), n]
                for (t, eq, rng), n in self.query_shapes.items()
            ],
            "rule_query_shapes": [
                [r, t, list(eq), list(rng), n]
                for (r, t, eq, rng), n in self.rule_query_shapes.items()
            ],
            "steps": self.steps,
            "max_batch": self.max_batch,
            "frontier_widths": list(self.frontier_widths),
            "faults": dict(self.faults),
            "retractions": self.retractions,
            "rederivations": self.rederivations,
            "grown_checks": self.grown_checks,
            "grown_candidates": self.grown_candidates,
            "grown_doomed": self.grown_doomed,
            "notes": list(self.notes),
            "settles": [dict(s) for s in self.settles],
        }

    def merge_state(self, state: dict) -> None:
        """Add the table and rule counters and the edge and shape
        counts of a :meth:`to_state` document to this collector — the
        decode half of :meth:`load_state`, and how the worker mesh
        folds each worker's query-side observations into the
        coordinator's collector."""
        for section, record_of in (("tables", self.table), ("rules", self.rule)):
            for name, d in state.get(section, {}).items():
                record = record_of(name)
                for k, v in d.items():
                    setattr(record, k, getattr(record, k) + int(v))
        for field_name in ("trigger_edges", "put_edges", "query_edges"):
            edges = getattr(self, field_name)
            for a, b, n in state.get(field_name, []):
                edges[(a, b)] = edges.get((a, b), 0) + int(n)
        for t, eq, rng, n in state.get("query_shapes", []):
            shape = (t, tuple(eq), tuple(rng))
            self.query_shapes[shape] = self.query_shapes.get(shape, 0) + int(n)
        for r, t, eq, rng, n in state.get("rule_query_shapes", []):
            rshape = (r, t, tuple(eq), tuple(rng))
            self.rule_query_shapes[rshape] = self.rule_query_shapes.get(rshape, 0) + int(n)

    def load_state(self, state: dict) -> None:
        """Restore in place (the engine's strategies hold references to
        this collector, so the instance must not be replaced)."""
        self.tables = {}
        self.rules = {}
        self.trigger_edges = {}
        self.put_edges = {}
        self.query_edges = {}
        self.query_shapes = {}
        self.rule_query_shapes = {}
        self.merge_state(state)
        self.steps = int(state.get("steps", 0))
        self.max_batch = int(state.get("max_batch", 0))
        self.frontier_widths = [int(w) for w in state.get("frontier_widths", [])]
        self.faults = {str(k): int(v) for k, v in state.get("faults", {}).items()}
        self.retractions = int(state.get("retractions", 0))
        self.rederivations = int(state.get("rederivations", 0))
        self.grown_checks = int(state.get("grown_checks", 0))
        self.grown_candidates = int(state.get("grown_candidates", 0))
        self.grown_doomed = int(state.get("grown_doomed", 0))
        self.notes = [str(n) for n in state.get("notes", [])]
        self.settles = [dict(s) for s in state.get("settles", [])]
