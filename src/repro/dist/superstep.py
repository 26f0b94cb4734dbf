"""The sharded execution tier — what a distributed run adds to the one
step loop.

§5 has one run loop ("it takes all minimal tuples out of the Delta set,
and executes all those tuples in parallel") and §2 stage 3 makes
placement and "how the communication should be implemented" hints
outside the program, so where a class fires may change *time*, never
what the loop does.  A sharded run is therefore an ordinary
:class:`~repro.core.session.EngineSession` over an ordinary
:class:`~repro.core.kernel.StepKernel` — its Delta tree, ``<init>``
feed, ``max_steps`` guard, phase A into Gamma (here the **control
replica**), phase C, stats, trace and keyed output — whose phase B is
:class:`ShardedExecutor`.  Only what is distributed lives here:

* the **placement plan** of a popped class: the kernel's duplicate
  verdict per tuple plus one fire node — the tuple's partition home, or
  a stable-hash spread for replicated triggers;
* :func:`fire_records` / :class:`RoutedRuleContext`, through which
  every backend fires rules and routes queries
  (:meth:`~repro.dist.placement.PlacementMap.query_homes`), so record
  shape and gather order have one definition;
* the conversion of the records a backend returns into the kernel's
  :class:`~repro.exec.base.TaskResult` list, in (batch index, rule
  declaration) order — the single-node task order — tagged with the
  node that fired them;
* the shard integrity check both backends run before they report.

A :class:`Backend` only *executes* a planned class on its shards.  That
is what keeps the cost-model backend (:mod:`repro.dist.engine`) and the
worker mesh (:mod:`repro.dist.procrun`) byte-identical to the
sequential engine and to each other.
"""

from __future__ import annotations

from typing import Mapping, Protocol

from repro.core.database import InsertOutcome
from repro.core.errors import EngineError
from repro.core.executors.base import StepExecutor
from repro.core.kernel import StepKernel
from repro.core.ordering import output_keys
from repro.core.program import ExecOptions, Program
from repro.core.query import Query
from repro.core.rules import RuleContext
from repro.core.tuples import JTuple
from repro.dist.check import check_locality
from repro.dist.placement import OnNode, Partitioned, PlacementMap, spread_hash
from repro.exec.base import EngineTask, Strategy, TaskResult
from repro.exec.metering import CostMeter
from repro.plan.compile import CompiledQueryPlan

__all__ = [
    "Backend",
    "RoutedRuleContext",
    "ShardedExecutor",
    "fire_records",
    "sharded_kernel",
]

#: one planned tuple of a class: (tuple, already in Gamma, fire node)
Planned = tuple[JTuple, bool, int]


class Backend(Protocol):
    """What a wire implements.  It may not decide anything a run's
    result depends on: which class runs, which node fires a tuple,
    whether a tuple is a duplicate, where a query goes, the order
    records merge in, or what phase C accepts — those are the kernel's,
    :class:`ShardedExecutor`'s and :class:`RoutedRuleContext`'s.  It
    may price, ship, retry and account."""

    def execute(self, step: int, plan: list[Planned]) -> dict[int, list[dict]]:
        """Land the planned class on its owner shards, fire each
        non-duplicate tuple on its assigned node through
        :func:`fire_records`, and return batch index → records.  The
        kernel committed the class to the control replica before this
        call (phase A precedes phase B, as on one node), so a backend
        that loses a shard mid-step rebuilds it from a replica that
        already holds the class: re-sending the step re-inserts, and
        shard inserts are idempotent.  Failures the wire can recover
        from are retried in here."""


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


class _ShardStrategy(Strategy):
    """What the kernel asks of a strategy, for a run whose classes fire
    on shards: its name and its width.  It schedules nothing — the
    sharded tier hands whole classes to its backend — and keeps no
    virtual-time machine: both backends account for themselves."""

    name = "processes"

    def __init__(self, n_nodes: int):
        self.n_threads = n_nodes

    def run_batch(self, tasks: list[EngineTask]) -> list[TaskResult]:
        raise NotImplementedError  # classes go to the backend whole

    def account_step(self, results, allocations: float, retained: float) -> None:
        pass  # never called: the kernel runs unmetered


class ShardedExecutor(StepExecutor):
    """Phase B on the shards of a :class:`Backend`: plan the class,
    have the backend execute it, hand the kernel its records as task
    results."""

    name = "sharded"

    def __init__(
        self,
        kernel: StepKernel,
        placements: Mapping | PlacementMap | None,
        n_nodes: int,
        backend: Backend,
    ):
        super().__init__(kernel)
        program = kernel.program
        self.n_nodes = n_nodes
        self.backend = backend
        self.schemas = program.schemas()
        self.placements = (
            placements
            if isinstance(placements, PlacementMap)
            else PlacementMap(self.schemas, placements, n_nodes=n_nodes)
        )
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

    def fire_node(self, tup: JTuple) -> int:
        """Node that fires this tuple's rules — the partition home, or
        the stable-hash spread for replicated triggers.  Always one of
        the tuple's owners, so the firing sees its own phase-A insert."""
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            return home
        return spread_hash(tup.values) % self.n_nodes

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        k = self.kernel
        plan = [
            (tup, outcome is InsertOutcome.DUPLICATE, self.fire_node(tup))
            for tup, outcome in prepared
        ]
        records = self.backend.execute(k.steps, plan)
        traced = k.tracer is not None
        fire_tallies, tt, handle_puts = k._fire_tallies, k._tt, k._handle_puts
        schemas, node_fires, node_puts = self.schemas, self.node_fires, self.node_puts
        # traced, one result per tuple: each task and effect event names
        # its node.  Untraced, one sink result carries the class's puts
        # and output in the order the per-tuple results would
        # concatenate to (the codegen tier's arrangement): a result per
        # popped tuple is seven containers, and on the coordinator —
        # which holds the whole control replica — the extra GC passes
        # they trigger sit on every step's critical path
        sink = None if traced else k._new_result(None)  # type: ignore[arg-type]
        results: list[TaskResult] = [] if sink is None else [sink]
        for idx, (tup, dup, node) in enumerate(plan):
            name = tup.schema.name
            result = sink
            if result is None:
                result = k._new_result(tup)
                result.node = node
                results.append(result)
            if dup:
                result.duplicate = True
                tt(name)[1] += 1
                continue
            tt(name)[2] += 1
            for entry in records.get(idx, ()):
                rule = entry["rule"]
                key = (name, rule)
                fire_tallies[key] = fire_tallies.get(key, 0) + 1
                node_fires[node] += 1
                node_puts[node] += len(entry["puts"])
                if traced:
                    result.fired_rules.append(rule)
                    result.events.extend(
                        (kind, {**data, "node": node}) for kind, data in entry["events"]
                    )
                out = entry["output"]
                if out:
                    result.output.extend(out)
                    result.out_keys.extend(
                        output_keys(k.db.timestamp(tup), tup, self._rule_pos[rule], len(out))
                    )
                    k.stats.rule(rule).output_lines += len(out)
                handle_puts(
                    [JTuple(schemas[t], tuple(vals)) for t, vals in entry["puts"]],
                    result,
                    rule,
                )
        return results

    def check_shards(self, shard_sizes: dict[str, list[int]]) -> None:
        """The shards must jointly equal the control replica:
        replicated tables everywhere in full, partitioned/pinned tables
        exactly once across the cluster."""
        for name, total in self.kernel.db.table_sizes().items():
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


def sharded_kernel(
    program: Program,
    options: ExecOptions | None,
    placements: Mapping | PlacementMap | None,
    n_nodes: int,
    backend: Backend,
) -> StepKernel:
    """The step kernel of a sharded run on ``n_nodes`` shards of
    ``backend``; its ``executor`` is the :class:`ShardedExecutor`.

    Whatever options the caller holds are normalised to the sharded
    tier's — ``strategy="processes"``, one 'thread' per node, no kernel
    metering (both backends account for themselves) — so the one
    refusal table (:mod:`repro.core.executors.registry`) decides what
    composes, before any state exists: the ``with_`` below is what
    raises."""
    options = (options if options is not None else ExecOptions()).with_(
        strategy="processes", threads=n_nodes, metering="off"
    )
    return StepKernel(
        program,
        options,
        _ShardStrategy(n_nodes),
        executor=lambda k: ShardedExecutor(k, placements, n_nodes, backend),
    )
