"""The cost-model backend of the sharded tier (§2 stage 3, the [7]
track) — ``DIST_TRANSPORT=model``.

A :class:`DistEngine` runs an *unmodified* program on a simulated
cluster.  What runs is an ordinary
:class:`~repro.core.session.EngineSession` over the one step loop
(:class:`~repro.core.kernel.StepKernel`) with the sharded tier
(:class:`~repro.dist.superstep.ShardedExecutor`) as its phase B; this
module only holds the per-node shards
(:class:`~repro.dist.superstep.Shard`) in one process and **prices**
what the tier has it execute: a :class:`~repro.exec.metering.CostMeter`
per firing — on which a routed select charges one store lookup per
shard it reads, like any prepared select — reads of other shards as
one round trip per (node, owner, step) plus one per read no plan
predicted, and puts as batched messages, on a
:class:`~repro.simcore.machine.StepTraffic`.  Outputs are therefore
**identical to the single-node engine** and to the worker mesh (the
same §1.3 determinism guarantee, asserted by the tests).

The price is the one step account every virtual-time strategy uses
(:meth:`~repro.simcore.machine.Machine.run_step`), on a machine with a
lane per node and the cluster's constants
(:data:`~repro.simcore.costs.CLUSTER`): per superstep the busiest
node's firings, the exchange's comm makespan and the coordination
barrier.  Its :class:`~repro.simcore.machine.MachineReport` is the run's
``RunResult.report`` and its snapshot state, as under any machine; the
lanes' compute and shard sizes are its ``nodes``.

Limitations (documented, not hidden): one core per node (compose with
the fork/join machine mentally, not in code), and the Delta order is
coordinated globally — the cost of that coordination is charged per
superstep but its distribution is future work in the paper's lineage
too ([7]).
"""

from __future__ import annotations

from functools import partial

from repro.dist.network import NODE_COUNTERS
from repro.dist.superstep import Backend, Probes, Shard, ShardedExecutor
from repro.dist.superstep import done_record, fire_records, unpack_rows
from repro.exec.metering import CostMeter
from repro.simcore import CLUSTER, NET, Machine, SimTask, StepTraffic

__all__ = ["DistEngine"]


class DistEngine(Backend):
    """The cost model: every node's shard in this process, priced."""

    def attach(self, tier: ShardedExecutor) -> None:
        super().attach(tier)
        k, n = self.kernel, self.n_nodes
        self._views = [
            Shard(
                k.program,
                tier.placements,
                node,
                n,
                partial(self._fetch, node),
                k.options.causality_check,
                k.tracer is not None,
            )
            for node in range(n)
        ]
        self.machine = Machine(n, CLUSTER)

    def start(self) -> None:
        # a restored replica is loaded slice by slice (a fresh one is empty)
        for node, view in enumerate(self._views):
            view.db.insert_batch(unpack_rows(self.tier.schemas, self.tier.replica_slice(node)))

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

    def execute(self, step: int, plan: list) -> list[dict]:
        n = self.n_nodes
        owners_of = self.tier.placements.owners_of
        gamma = self.kernel.db
        self.traffic = traffic = StepTraffic(NET)
        tasks = []
        # phase A: land the class on its shards
        for tup, _dup, _node in plan:
            for owner in owners_of(tup, n):
                self._views[owner].db.insert(tup)
        # phase B: one exchange per node, then fire, in class order, on
        # the assigned nodes
        for node, view in enumerate(self._views):
            view.exchange([tup for tup, dup, at in plan if at == node and not dup])
        records = [done_record(view.traced) for view in self._views]
        for idx, (tup, dup, node) in enumerate(plan):
            if dup:
                continue
            meter = CostMeter()
            meter.charge("delta_pop")
            puts = fire_records(self._views[node], idx, tup, meter, records[node])
            tasks.append(SimTask(meter.total_cost, lane=node))
            for put in puts:
                # a put travels to its owners unless Gamma already
                # holds it (one Delta still holds is sent again: the
                # producer cannot know)
                if put not in gamma:
                    for owner in owners_of(put, n):
                        traffic.send(node, owner, 1)
        self.machine.run_step(tasks, traffic=traffic)
        return records

    def nodes(self) -> list[dict]:
        sizes = {
            name: [view.db.size(name) for view in self._views] for name in self.program.tables
        }
        self.tier.check_shards(sizes)
        tier = self.tier
        compute = self.machine.report.lanes or [0.0] * self.n_nodes
        return [
            {
                "node": node,
                "fires": tier.node_fires[node],
                "puts": tier.node_puts[node],
                **{name: view.counters[name] for name in NODE_COUNTERS},
                "recovered": 0,
                "compute": compute[node],
                "tables": {name: per_node[node] for name, per_node in sizes.items()},
            }
            for node, view in enumerate(self._views)
        ]

    def _fold_queries(self) -> None:
        # queries were counted on the shards' plans, as on a mesh worker
        for view in self._views:
            self.kernel.stats.absorb_planned(view.plans.plans())

    def state_dict(self) -> dict:
        self._fold_queries()
        return super().state_dict()

    def close(self) -> None:
        self._fold_queries()
