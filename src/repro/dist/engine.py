"""The cost-model backend of the superstep coordinator (§2 stage 3,
the [7] track).

A :class:`DistEngine` runs an *unmodified* program on a simulated
cluster.  What runs — class order, fire nodes, query routing, merge
order, phase C — is the shared
:class:`~repro.dist.superstep.Coordinator`'s; this module only holds the
per-node Gamma shards in one process and **prices** what the
coordinator has it execute: a :class:`~repro.exec.metering.CostMeter`
per firing, routed queries as round trips and puts as batched messages
on a :class:`~repro.dist.network.NetModel`.  Outputs are therefore
**identical to the single-node engine** and to the worker mesh (the
same §1.3 determinism guarantee, asserted by the tests).

Virtual time per superstep::

    max_node(compute) + comm(batched sends, remote-query round trips)
    + coordination barrier

Limitations (documented, not hidden): one core per node (compose with
the fork/join machine mentally, not in code), no ``-noDelta`` path, and
the Delta order is coordinated globally — the cost of that coordination
is charged per superstep but its distribution is future work in the
paper's lineage too ([7]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.database import Database
from repro.core.errors import EngineError
from repro.core.program import ExecOptions, Program
from repro.core.query import Query
from repro.core.tuples import JTuple
from repro.dist.network import NetModel, StepTraffic
from repro.dist.placement import Placement
from repro.dist.superstep import Coordinator, fire_records, surface_exec_knobs
from repro.exec.metering import DEFAULT_WEIGHTS, CostMeter
from repro.gamma.base import StoreRegistry
from repro.gamma.treeset import TreeSetStore
from repro.plan.cache import PlanCache
from repro.stats.collector import StatsCollector
from repro.trace.recorder import TraceRecorder

__all__ = ["DistOptions", "DistRunResult", "DistEngine", "run_distributed"]

#: per-superstep coordination cost (the global minimal-class agreement)
_BARRIER_COST = 6.0


@dataclass(frozen=True)
class DistOptions:
    """Cluster-level hints (all outside the program, §2)."""

    n_nodes: int = 4
    placements: Mapping[str, Placement] = field(default_factory=dict)
    net: NetModel = field(default_factory=NetModel)
    causality_check: str = "warn"
    max_steps: int | None = None
    #: the single-node options this distributed run stands in for; the
    #: engine honours what it can (``causality_check``, ``max_steps``,
    #: ``trace``) and surfaces every other non-default knob as a stats
    #: note — an :class:`EngineWarning` under strict checking — instead
    #: of silently dropping it
    exec_options: ExecOptions | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise EngineError("a cluster needs at least one node")


@dataclass
class DistRunResult:
    program: str
    n_nodes: int
    output: list[str]
    elapsed: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    barrier_time: float = 0.0
    node_busy: list[float] = field(default_factory=list)
    messages: int = 0
    tuples_moved: int = 0
    remote_queries: int = 0
    steps: int = 0
    stats: StatsCollector = field(default_factory=StatsCollector)
    shard_sizes: dict[str, list[int]] = field(default_factory=dict)
    shards: list[Database] = field(repr=False, default_factory=list)
    #: the coordinator's node-tagged trace under ``exec_options.trace``
    trace: TraceRecorder | None = field(repr=False, default=None)

    @property
    def imbalance(self) -> float:
        """Busiest node's share of compute vs a perfect split."""
        total = sum(self.node_busy)
        if total == 0:
            return 1.0
        return max(self.node_busy) * self.n_nodes / total

    def table_total(self, table: str) -> int:
        return sum(self.shard_sizes[table])


class _SimShard:
    """One node's view of the simulated cluster — the shard interface
    of :class:`~repro.dist.superstep.RoutedRuleContext`, with every
    read priced on the firing's meter."""

    def __init__(self, engine: "DistEngine", node: int):
        core = engine.core
        self.engine = engine
        self.node = node
        self.n_nodes = core.n_nodes
        self.placements = core.placements
        self.static_local = core.static_local
        self.program = core.program
        self.db = engine.shards[node]
        self.plans = engine._plans
        self.check_mode = core.check_mode
        self.stats = core.stats
        self.traced = core.tracer is not None

    def _read(self, home: int, query: Query, meter: CostMeter) -> list[JTuple]:
        shard = self.engine.shards[home]
        store = shard.store(query.schema.name)
        rows = shard.select(query)
        meter.charge_store_op("lookup", store)
        if rows:
            meter.charge_store_op("result", store, len(rows))
        return rows

    def select(self, query: Query, meter: CostMeter) -> list[JTuple]:
        return self._read(self.node, query, meter)

    def fetch(self, query: Query, homes: list[int], meter: CostMeter) -> list[JTuple]:
        engine = self.engine
        rows: list[JTuple] = []
        for home in homes:
            part = self._read(home, query, meter)
            engine.traffic.remote_query(self.node, home, len(part))
            engine._totals.remote_queries += 1
            rows.extend(part)
        return rows


class DistEngine:
    """One distributed execution of one program on the cost model."""

    def __init__(self, program: Program, options: DistOptions):
        program.freeze()
        self.program = program
        self.options = options
        self.n_nodes = options.n_nodes
        # honour what we can from the single-node options, surface the rest
        check_mode = options.causality_check
        max_steps = options.max_steps
        eo = options.exec_options
        if eo is not None:
            if check_mode == "warn":
                check_mode = eo.causality_check
            if max_steps is None:
                max_steps = eo.max_steps
        self.core = Coordinator(
            program,
            options.placements,
            self.n_nodes,
            self,
            check_mode=check_mode,
            max_steps=max_steps,
            traced=eo is not None and eo.trace,
        )
        surface_exec_knobs(
            options.exec_options,
            self.core.stats.note,
            strict=check_mode == "strict",
            runtime="the simulated DistEngine",
            supported=frozenset({"trace"}),
        )
        schemas = program.schemas()
        registry = StoreRegistry(lambda s: TreeSetStore(s))
        self.shards = [
            Database(schemas, registry, program.decls) for _ in range(self.n_nodes)
        ]
        # query shapes compile once for the whole cluster: contexts use
        # only the db-independent half of a plan (build, bound, stat
        # fields) and the shard views do the selects themselves
        self._plans = PlanCache(self.shards[0], program)
        self._views = [_SimShard(self, n) for n in range(self.n_nodes)]
        self.traffic = StepTraffic(options.net)
        self._node_cost = [0.0] * self.n_nodes
        self._totals = DistRunResult(
            program.name,
            self.n_nodes,
            self.core.output,
            node_busy=[0.0] * self.n_nodes,
            stats=self.core.stats,
        )
        self._ran = False

    # -- the backend contract ----------------------------------------------------

    def execute(self, step: int, plan: list) -> dict[int, list[dict]]:
        core = self.core
        self.traffic = StepTraffic(self.options.net)
        self._node_cost = [0.0] * self.n_nodes
        # phase A: land the class on its shards
        for tup, _dup, _node in plan:
            for owner in core.placements.owners_of(tup, self.n_nodes):
                self.shards[owner].insert(tup)
        # phase B: fire, in class order, on the assigned nodes
        records: dict[int, list[dict]] = {}
        for idx, (tup, dup, node) in enumerate(plan):
            if dup:
                continue
            meter = CostMeter()
            meter.charge("delta_pop")
            records[idx] = fire_records(self._views[node], tup, meter)
            self._node_cost[node] += meter.total_cost
        return records

    def committed(self, step: int, effects: list) -> None:
        core = self.core
        for tup, origin, accepted in effects:
            # a put travels to its owners unless Gamma already holds it
            # (one Delta still holds is sent again: the producer cannot
            # know)
            if accepted or tup not in core.db:
                for owner in core.placements.owners_of(tup, self.n_nodes):
                    self.traffic.send(origin, owner, 1)
        compute = max(self._node_cost)
        comm = self.traffic.comm_time(self.n_nodes)
        barrier = _BARRIER_COST * math.log2(max(2, self.n_nodes))
        t = self._totals
        t.compute_time += compute
        t.comm_time += comm
        t.barrier_time += barrier
        t.elapsed += compute + comm + barrier
        t.messages += self.traffic.messages()
        t.tuples_moved += self.traffic.tuples_moved()
        for i, c in enumerate(self._node_cost):
            t.node_busy[i] += c

    # -- run ------------------------------------------------------------

    def run(self) -> DistRunResult:
        if self._ran:
            raise EngineError("a DistEngine instance can only run once")
        self._ran = True
        core = self.core
        t = self._totals
        # the initial puts are priced as Delta inserts on the
        # coordinator; their traffic is not modelled
        t.elapsed += sum(core.feed_initial()) * DEFAULT_WEIGHTS["delta_insert"]
        core.drain()
        t.steps = core.steps
        t.shard_sizes = {
            name: [shard.size(name) for shard in self.shards]
            for name in self.program.tables
        }
        core.check_shards(t.shard_sizes)
        t.shards = self.shards
        core.emit_run_end()
        t.trace = core.tracer
        return t


def run_distributed(
    program: Program, options: DistOptions | None = None, **kw
) -> DistRunResult:
    """Run a program on the simulated cluster."""
    opts = options or DistOptions()
    if kw:
        opts = replace(opts, **kw)
    return DistEngine(program, opts).run()
