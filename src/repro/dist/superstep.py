"""The superstep coordinator — everything a distributed run decides
regardless of the wire.

§2 stage 3 makes placement and "how the communication should be
implemented" hints outside the program, so swapping the interconnect
must not change what the program computes.  :class:`Coordinator` is
therefore the only place that

* owns the global Delta tree and the **control replica** of Gamma, feeds
  the ``<init>`` puts and pops one minimal equivalence class per
  superstep (the ``max_steps``-guarded drain);
* **plans** the class: a duplicate verdict per tuple against the
  pre-step control replica and one fire node per tuple — its partition
  home, or a stable-hash spread for replicated triggers;
* **merges** the firing records a backend returns in (batch index, rule
  declaration) order — the single-node task order — into stats, trace
  and canonically keyed output, and applies the put-set to Delta with
  the step kernel's phase-C semantics (Gamma-duplicate precheck, then
  Delta dedup).

A :class:`Backend` only *executes* a planned class on its shards and
hears what phase C accepted.  Rules fire through
:func:`fire_records` and read through :class:`RoutedRuleContext` on
every backend, so query routing
(:meth:`~repro.dist.placement.PlacementMap.query_homes`), record shape
and gather order have one definition; a backend supplies only the shard
reads themselves.  That is what keeps the cost-model backend
(:mod:`repro.dist.engine`) and the worker mesh
(:mod:`repro.dist.procrun`) byte-identical to the sequential engine and
to each other.
"""

from __future__ import annotations

import warnings
from typing import Callable, Mapping, Protocol

from repro.core.database import Database
from repro.core.delta import DeltaTree
from repro.core.errors import EngineError, EngineWarning
from repro.core.ordering import output_keys
from repro.core.program import ExecOptions, Program
from repro.core.query import Query
from repro.core.rules import RuleContext
from repro.core.tuples import JTuple
from repro.dist.check import check_locality
from repro.dist.placement import OnNode, Partitioned, PlacementMap, spread_hash
from repro.exec.metering import CostMeter
from repro.gamma.base import StoreRegistry
from repro.gamma.treeset import TreeSetStore
from repro.plan.compile import CompiledQueryPlan
from repro.stats.collector import StatsCollector
from repro.trace.recorder import TraceRecorder, output_hash

__all__ = [
    "Backend",
    "Coordinator",
    "RoutedRuleContext",
    "fire_records",
    "surface_exec_knobs",
]

#: one planned tuple of a class: (tuple, already in Gamma, fire node)
Planned = tuple[JTuple, bool, int]
#: one put after phase C: (tuple, the node that fired it, whether Delta
#: accepted it)
Effect = tuple[JTuple, int, bool]

#: ExecOptions fields a distributed runtime might drop; anything here
#: that deviates from its default and is not in the runtime's
#: ``supported`` set gets surfaced
_MATERIAL_KNOBS = (
    "strategy",
    "threads",
    "no_delta",
    "no_gamma",
    "task_granularity",
    "retention",
    "store_overrides",
    "index_mode",
    "indexes",
    "metering",
    "coalesce_steps",
    "trace",
    "admission",
    "chaos_seed",
    "fault_plan",
)


def surface_exec_knobs(
    exec_options: ExecOptions | None,
    note: Callable[[str], None],
    *,
    strict: bool,
    runtime: str,
    supported: frozenset[str] = frozenset(),
) -> list[str]:
    """Surface single-node knobs a distributed runtime does not honour.

    Same convention as the step kernel's forced-knob overrides (PR 4):
    never silently ignore an option the caller set — every dropped knob
    becomes a stats note, escalated to an :class:`EngineWarning` when
    causality checking is strict.  Returns the messages (for tests)."""
    msgs: list[str] = []
    if exec_options is None:
        return msgs
    defaults = ExecOptions()
    for name in _MATERIAL_KNOBS:
        if name in supported:
            continue
        val = getattr(exec_options, name)
        if val == getattr(defaults, name):
            continue
        if isinstance(val, (frozenset, Mapping)):
            shown = repr(sorted(val))
        else:
            shown = repr(val)
        msg = f"{runtime} does not support ExecOptions {name}={shown}; knob ignored"
        msgs.append(msg)
        note(msg)
        if strict:
            warnings.warn(msg, EngineWarning, stacklevel=3)
    return msgs


class Backend(Protocol):
    """What a wire implements.  It may not decide anything a run's
    result depends on: which class runs, which node fires a tuple,
    whether a tuple is a duplicate, where a query goes, the order
    records merge in, or what phase C accepts — those are the
    coordinator's (and :class:`RoutedRuleContext`'s)."""

    def execute(self, step: int, plan: list[Planned]) -> dict[int, list[dict]]:
        """Land the planned class on its owner shards (phase A), fire
        each non-duplicate tuple on its assigned node through
        :func:`fire_records` (phase B), and return batch index →
        records.  Failures the wire can recover from are retried in
        here; the coordinator commits the step only after this
        returns."""

    def committed(self, step: int, effects: list[Effect]) -> None:
        """Phase C's verdict on every put of the step, in merge order —
        the hook for what a backend accounts per step.  The cost model
        prices the put traffic and the step's time here; the worker
        mesh has nothing to do, because its puts already reached the
        coordinator in the done records and leave it again, by value,
        in the step frame of the class that pops them."""


class RoutedRuleContext(RuleContext):
    """The rule context of every distributed firing: queries route
    across the cluster.  ``shard`` is the firing node's view of it:
    ``node``, ``n_nodes``, ``placements``, ``static_local`` (the
    ``(rule, table)`` pairs ``check_locality`` proved co-located), what
    a firing needs (``program``, ``db``, ``plans``, ``check_mode``,
    ``stats``, ``traced``), and the two reads a backend prices or
    performs — ``select(query, meter)`` on the local shard and
    ``fetch(query, homes, meter)`` for the rows of remote shards,
    already filtered by the whole query."""

    __slots__ = ("_shard",)

    def __init__(self, shard, *args):
        super().__init__(shard.db, shard.program.decls, *args)
        self._shard = shard

    def _run_planned(self, plan: CompiledQueryPlan, query: Query) -> list[JTuple]:
        shard = self._shard
        name = plan.table_name
        meter = self._meter
        if (self._rule.name, name) in shard.static_local:
            results = shard.select(query, meter)
        else:
            node = shard.node
            homes = shard.placements.query_homes(query, node, shard.n_nodes)
            remote = [h for h in homes if h != node]
            results = shard.select(query, meter) if len(remote) < len(homes) else []
            if remote:
                results = results + shard.fetch(query, remote, meter)
                # per-shard result sets are value-sorted (TreeSetStore
                # scan order); re-sorting the union by value reproduces
                # the single-node order exactly
                results.sort(key=lambda t: t.values)
        if self._collector is not None:
            self._collector.on_query(
                self._rule.name,
                name,
                len(results),
                eq_fields=plan.stat_eq_fields,
                range_fields=plan.stat_range_fields,
            )
        if self._trace is not None:
            self._trace.append(
                (
                    "query",
                    {
                        "rule": self._rule.name,
                        "table": name,
                        "kind": query.kind.value,
                        "n_results": len(results),
                    },
                )
            )
        return results


def fire_records(shard, tup: JTuple, meter: CostMeter) -> list[dict]:
    """Fire every rule ``tup`` triggers on ``shard``'s node: one
    wire-safe record per rule in declaration order, which the
    coordinator merges in global (batch index, rule) order."""
    entries: list[dict] = []
    ts = shard.db.timestamp(tup)
    for rule in shard.program.rules_for(tup.schema.name):
        meter.charge("rule_fire")
        events: list | None = [] if shard.traced else None
        ctx = RoutedRuleContext(
            shard,
            meter,
            rule,
            tup,
            ts,
            shard.plans,
            shard.check_mode,
            shard.stats,
            None,
            None,
            events,
        )
        rule.body(ctx, tup)
        ctx.finish()
        entries.append(
            {
                "rule": rule.name,
                "puts": [(p.schema.name, tuple(p.values)) for p in ctx.puts],
                "output": list(ctx.output),
                "events": events or [],
            }
        )
    return entries


class Coordinator:
    """One distributed run's control state and superstep loop."""

    def __init__(
        self,
        program: Program,
        placements: Mapping | PlacementMap | None,
        n_nodes: int,
        backend: Backend,
        *,
        check_mode: str = "warn",
        max_steps: int | None = None,
        traced: bool = False,
    ):
        self.program = program
        self.n_nodes = n_nodes
        self.backend = backend
        self.check_mode = check_mode
        self.max_steps = max_steps
        self.schemas = program.schemas()
        self.placements = (
            placements
            if isinstance(placements, PlacementMap)
            else PlacementMap(self.schemas, placements, n_nodes=n_nodes)
        )
        # control replica: the authoritative copy of Gamma, committed
        # only after a backend executed the step — so a backend that
        # loses a shard mid-step can rebuild it from the last
        # *completed* superstep
        registry = StoreRegistry(lambda schema: TreeSetStore(schema))
        self.db = Database(self.schemas, registry, program.decls)
        self.delta = DeltaTree()
        self.stats = StatsCollector()
        self.tracer = TraceRecorder() if traced else None
        self.output: list[str] = []
        self.steps = 0
        self.node_fires = [0] * n_nodes
        self.node_puts = [0] * n_nodes
        #: rule name -> position, for canonical output keys (records
        #: identify rules by name)
        self._rule_pos = {r.name: i for i, r in enumerate(program.rules)}
        # queries the static locality checker proved co-located skip
        # placement routing.  Keyed (rule, table): a pair qualifies only
        # when EVERY query that rule makes on that table is local — one
        # routed query among locals must still route
        verdicts: dict[tuple[str, str], bool] = {}
        for f in check_locality(program, self.placements):
            key = (f.rule, f.table)
            verdicts[key] = verdicts.get(key, True) and f.verdict == "local"
        self.static_local = frozenset(k for k, ok in verdicts.items() if ok)

    # -- the plan ----------------------------------------------------------------

    def fire_node(self, tup: JTuple) -> int:
        """Node that fires this tuple's rules — the partition home, or
        the stable-hash spread for replicated triggers.  Always one of
        the tuple's owners, so the firing sees its own phase-A insert."""
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            return home
        return spread_hash(tup.values) % self.n_nodes

    # -- the run -----------------------------------------------------------------

    def feed_initial(self) -> list[bool]:
        """Initial puts, exactly like the kernel's ``<init>`` feed (no
        admission boundary exists before the first step); returns the
        per-put accepted flags."""
        puts = list(self.program.initial_puts)
        for tup in puts:
            self.stats.on_put("<init>", tup.schema.name)
        flags = self._enqueue(puts)
        if self.tracer is not None:
            for tup, accepted in zip(puts, flags):
                self.tracer.emit("admit", {"tuple": repr(tup), "accepted": accepted})
        return flags

    def drain(self) -> None:
        while self.delta:
            if self.max_steps is not None and self.steps >= self.max_steps:
                raise EngineError(
                    f"program exceeded max_steps={self.max_steps}; "
                    f"{len(self.delta)} tuples still pending"
                )
            self.steps += 1
            self._superstep(self.delta.pop_min_class())

    def _superstep(self, batch: list[JTuple]) -> None:
        step = self.steps
        self.stats.on_step(len(batch))
        if self.tracer is not None:
            self.tracer.step = step
            self.tracer.emit(
                "step",
                {"step": step, "width": len(batch), "frontier": [repr(t) for t in batch]},
            )
        db = self.db
        plan = [(tup, tup in db, self.fire_node(tup)) for tup in batch]
        records = self.backend.execute(step, plan)
        db.insert_batch(batch)
        self.backend.committed(step, self._merge(plan, records))

    def _merge(self, plan: list[Planned], records: dict) -> list[Effect]:
        """Fold a step's records into stats, trace and output in (batch
        index, rule) order, then run phase C over its put-set."""
        stats = self.stats
        tracer = self.tracer
        puts: list[JTuple] = []
        origins: list[int] = []
        lines: list[tuple[tuple, str]] = []
        for idx, (tup, dup, node) in enumerate(plan):
            name = tup.schema.name
            fired: list[str] = []
            n_puts = n_output = 0
            if dup:
                stats.table(name).duplicates += 1
            else:
                stats.table(name).gamma_inserts += 1
                for entry in records.get(idx, ()):
                    rule = entry["rule"]
                    fired.append(rule)
                    stats.on_fire(name, rule)
                    if tracer is not None:
                        for kind, data in entry["events"]:
                            tracer.emit(kind, {**data, "node": node})
                    out = entry["output"]
                    if out:
                        keys = output_keys(
                            self.db.timestamp(tup), tup, self._rule_pos[rule], len(out)
                        )
                        lines.extend(zip(keys, out))
                        stats.rule(rule).output_lines += len(out)
                        n_output += len(out)
                    for tname, vals in entry["puts"]:
                        stats.on_put(rule, tname)
                        puts.append(JTuple(self.schemas[tname], tuple(vals)))
                        origins.append(node)
                    n_puts += len(entry["puts"])
                self.node_fires[node] += len(fired)
                self.node_puts[node] += n_puts
            if tracer is not None:
                tracer.emit(
                    "task",
                    {
                        "trigger": repr(tup),
                        "duplicate": dup,
                        "fired": fired,
                        "n_puts": n_puts,
                        "n_output": n_output,
                        "cost": 0.0,
                        "node": node,
                    },
                )
        # a step is one equivalence class: keyed order is the
        # single-node kernel's order when several of its firings print
        if len(lines) > 1:
            lines.sort(key=lambda kl: kl[0])
        self.output.extend(line for _key, line in lines)
        effects = list(zip(puts, origins, self._enqueue(puts)))
        if tracer is not None:
            for tup, origin, ok in effects:
                tracer.emit("effect", {"tuple": repr(tup), "accepted": ok, "node": origin})
        return effects

    def _enqueue(self, puts: list[JTuple]) -> list[bool]:
        """Phase C against the control replica — per-put semantics are
        exactly ``StepKernel._enqueue_delta_batch`` (Gamma-duplicate
        precheck, then Delta dedup), minus the cost metering."""
        flags = [False] * len(puts)
        items: list[tuple[JTuple, object]] = []
        idx: list[int] = []
        db = self.db
        for i, tup in enumerate(puts):
            if tup in db:
                self.stats.table(tup.schema.name).duplicates += 1
                continue
            items.append((tup, db.timestamp(tup)))
            idx.append(i)
        if not items:
            return flags
        for i, ok in zip(idx, self.delta.insert_batch(items)):
            table = self.stats.table(puts[i].schema.name)
            if ok:
                flags[i] = True
                table.delta_inserts += 1
            else:
                table.duplicates += 1
        return flags

    def check_shards(self, shard_sizes: dict[str, list[int]]) -> None:
        """The shards must jointly equal the control replica:
        replicated tables everywhere in full, partitioned/pinned tables
        exactly once across the cluster."""
        for name, total in self.db.table_sizes().items():
            per_node = shard_sizes[name]
            placement = self.placements[name]
            if isinstance(placement, Partitioned):
                ok = sum(per_node) == total
                detail = f"shards sum to {sum(per_node)}"
            elif isinstance(placement, OnNode):
                ok = per_node[placement.node] == total and sum(per_node) == total
                detail = f"pinned shard holds {per_node[placement.node]}"
            else:  # replicated
                ok = all(s == total for s in per_node)
                detail = f"replica sizes {per_node}"
            if not ok:
                raise EngineError(
                    f"shard integrity check failed for table {name!r}: "
                    f"control replica has {total} tuples, {detail}"
                )

    # -- trace bookends ----------------------------------------------------------

    def emit_run_start(self) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(
            "run-start",
            {
                "program": self.program.name,
                "strategy": "processes",
                "threads": self.n_nodes,
                "nodes": self.n_nodes,
                "chaos_seed": None,
                "fault_plan": None,
                "task_granularity": "tuple",
            },
            meta=True,
        )

    def emit_run_end(self) -> None:
        if self.tracer is None:
            return
        self.tracer.step = self.steps
        self.tracer.emit(
            "run-end",
            {
                "steps": self.steps,
                "output": output_hash(self.output),
                "n_output": len(self.output),
                "table_sizes": dict(sorted(self.db.table_sizes().items())),
            },
        )
