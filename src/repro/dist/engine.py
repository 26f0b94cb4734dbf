"""The cost-model backend of the sharded tier (§2 stage 3, the [7]
track).

A :class:`DistEngine` runs an *unmodified* program on a simulated
cluster.  What runs is the one step loop
(:class:`~repro.core.kernel.StepKernel`, driven through an ordinary
:class:`~repro.core.session.EngineSession`) with the sharded tier
(:class:`~repro.dist.superstep.ShardedExecutor`) as its phase B; this
module only holds the per-node shards
(:class:`~repro.dist.superstep.Shard`) in one process and **prices**
what the tier has it execute: a :class:`~repro.exec.metering.CostMeter`
per firing — on which a routed select charges one store lookup per
shard it reads, like any prepared select — reads of other shards as
one round trip per (node, owner, step) plus one per read no plan
predicted, and puts as batched messages, on a
:class:`~repro.dist.network.NetModel`.  Outputs are therefore
**identical to the single-node engine** and to the worker mesh (the
same §1.3 determinism guarantee, asserted by the tests).

Virtual time per superstep::

    max_node(compute) + comm(batched sends, remote-query round trips)
    + coordination barrier

Limitations (documented, not hidden): one core per node (compose with
the fork/join machine mentally, not in code), and the Delta order is
coordinated globally — the cost of that coordination is charged per
superstep but its distribution is future work in the paper's lineage
too ([7]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping

from repro.core.database import Database
from repro.core.errors import EngineError
from repro.core.program import ExecOptions, Program
from repro.core.session import EngineSession
from repro.core.tuples import JTuple
from repro.dist.network import NODE_COUNTERS, NetModel, StepTraffic
from repro.dist.placement import Placement
from repro.dist.superstep import Probes, Shard, fire_records, sharded_kernel
from repro.exec.metering import DEFAULT_WEIGHTS, CostMeter
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
    #: the single-node options this distributed run stands in for, and
    #: the only source of ``causality_check``, ``max_steps`` and
    #: ``trace``; normalised to the sharded tier's
    #: (:func:`~repro.dist.superstep.sharded_kernel`), so a knob either
    #: composes through the step loop or refuses before any state exists
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
    #: the shards' :data:`~repro.dist.network.NODE_COUNTERS`, summed and
    #: readable as attributes: ``remote_queries`` (round trips priced),
    #: ``probes_remote``, ``probes_planned``; the wire ones stay 0
    counters: dict[str, int] = field(default_factory=dict)
    steps: int = 0
    stats: StatsCollector = field(default_factory=StatsCollector)
    shard_sizes: dict[str, list[int]] = field(default_factory=dict)
    shards: list[Database] = field(repr=False, default_factory=list)
    #: the kernel's node-tagged trace under ``exec_options.trace``
    trace: TraceRecorder | None = field(repr=False, default=None)

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["counters"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def imbalance(self) -> float:
        """Busiest node's share of compute vs a perfect split."""
        total = sum(self.node_busy)
        if total == 0:
            return 1.0
        return max(self.node_busy) * self.n_nodes / total

    def table_total(self, table: str) -> int:
        return sum(self.shard_sizes[table])


class DistEngine:
    """One distributed execution of one program on the cost model."""

    def __init__(self, program: Program, options: DistOptions):
        self.program = program
        self.options = options
        self.n_nodes = options.n_nodes
        self.kernel = sharded_kernel(
            program, options.exec_options, options.placements, self.n_nodes, self
        )
        self.tier = self.kernel.executor
        k = self.kernel
        self._views = [
            Shard(
                program,
                self.tier.placements,
                n,
                self.n_nodes,
                partial(self._fetch, n),
                k.options.causality_check,
                k.tracer is not None,
            )
            for n in range(self.n_nodes)
        ]
        self.shards = [view.db for view in self._views]
        self.traffic = StepTraffic(options.net)
        self._totals = DistRunResult(
            program.name,
            self.n_nodes,
            self.kernel.output,
            node_busy=[0.0] * self.n_nodes,
            stats=self.kernel.stats,
        )
        self._ran = False

    # -- the backend contract ----------------------------------------------------

    def _fetch(self, node: int, asks: dict[int, Probes]) -> dict[int, list]:
        """``node`` reads other shards: each owner serves its batch, and
        one round trip per owner — per (node, owner, step) for a class's
        exchange — is priced on the step's traffic (a firing's lookups
        on its meter, by the shape's prepared select)."""
        answers = {}
        for owner, probes in asks.items():
            answers[owner] = part = self._views[owner].serve(probes)
            self.traffic.remote_query(node, owner, sum(map(len, part)))
            self._views[node].counters["remote_queries"] += 1
        return answers

    def execute(self, step: int, plan: list) -> dict[int, list[dict]]:
        n = self.n_nodes
        owners_of = self.tier.placements.owners_of
        schemas = self.tier.schemas
        gamma = self.kernel.db
        self.traffic = traffic = StepTraffic(self.options.net)
        node_cost = [0.0] * n
        # phase A: land the class on its shards
        for tup, _dup, _node in plan:
            for owner in owners_of(tup, n):
                self.shards[owner].insert(tup)
        # phase B: one exchange per node, then fire, in class order, on
        # the assigned nodes
        for node, view in enumerate(self._views):
            view.exchange([tup for tup, dup, at in plan if at == node and not dup])
        records: dict[int, list[dict]] = {}
        for idx, (tup, dup, node) in enumerate(plan):
            if dup:
                continue
            meter = CostMeter()
            meter.charge("delta_pop")
            records[idx] = fire_records(self._views[node], tup, meter)
            node_cost[node] += meter.total_cost
            for entry in records[idx]:
                for table, values in entry["puts"]:
                    # a put travels to its owners unless Gamma already
                    # holds it (one Delta still holds is sent again: the
                    # producer cannot know)
                    put = JTuple(schemas[table], values)
                    if put not in gamma:
                        for owner in owners_of(put, n):
                            traffic.send(node, owner, 1)
        compute = max(node_cost)
        comm = traffic.comm_time(n)
        barrier = _BARRIER_COST * math.log2(max(2, n))
        t = self._totals
        t.compute_time += compute
        t.comm_time += comm
        t.barrier_time += barrier
        t.elapsed += compute + comm + barrier
        t.messages += traffic.messages()
        t.tuples_moved += traffic.tuples_moved()
        for i, c in enumerate(node_cost):
            t.node_busy[i] += c
        return records

    # -- run ------------------------------------------------------------

    def run(self) -> DistRunResult:
        if self._ran:
            raise EngineError("a DistEngine instance can only run once")
        self._ran = True
        kernel = self.kernel
        t = self._totals
        with EngineSession(self.program, _kernel=kernel) as session:
            session.feed(self.program.initial_puts, source="<init>")
            # the initial puts are priced as Delta inserts on the
            # coordinator; their traffic is not modelled
            t.elapsed += len(kernel.delta) * DEFAULT_WEIGHTS["delta_insert"]
            session.settle()
            t.shard_sizes = {
                name: [shard.size(name) for shard in self.shards]
                for name in self.program.tables
            }
            self.tier.check_shards(t.shard_sizes)
            # queries were counted on the shards' plans: fold them, as
            # the mesh folds what its workers send home with their bye
            for view in self._views:
                kernel.stats.absorb_planned(view.plans.plans())
        t.steps = kernel.steps
        t.counters = {
            name: sum(view.counters[name] for view in self._views) for name in NODE_COUNTERS
        }
        t.shards = self.shards
        t.trace = kernel.tracer
        return t


def run_distributed(
    program: Program, options: DistOptions | None = None, **kw
) -> DistRunResult:
    """Run a program on the simulated cluster."""
    opts = options or DistOptions()
    if kw:
        opts = replace(opts, **kw)
    return DistEngine(program, opts).run()
