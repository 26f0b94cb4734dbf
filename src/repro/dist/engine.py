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
:class:`~repro.dist.network.NetModel`.  Outputs are therefore
**identical to the single-node engine** and to the worker mesh (the
same §1.3 determinism guarantee, asserted by the tests).

Virtual time per superstep::

    max_node(compute) + comm(batched sends, remote-query round trips)
    + coordination barrier

plus each feed's admitted tuples, priced as Delta inserts on the
coordinator (their traffic is not modelled).  The account is the run's
``RunResult.report`` (a :class:`~repro.dist.network.NetReport`, carried
through snapshots); per-node compute and shard sizes are its ``nodes``.

Limitations (documented, not hidden): one core per node (compose with
the fork/join machine mentally, not in code), and the Delta order is
coordinated globally — the cost of that coordination is charged per
superstep but its distribution is future work in the paper's lineage
too ([7]).
"""

from __future__ import annotations

import math
from dataclasses import asdict
from functools import partial

from repro.dist.network import NODE_COUNTERS, NetModel, NetReport, StepTraffic
from repro.dist.superstep import Backend, Probes, Shard, ShardedExecutor
from repro.dist.superstep import done_record, fire_records, unpack_rows
from repro.exec.metering import DEFAULT_WEIGHTS, CostMeter

__all__ = ["DistEngine"]

#: per-superstep coordination cost (the global minimal-class agreement)
_BARRIER_COST = 6.0
#: the interconnect every priced run assumes
NET = NetModel()


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
        self.account = NetReport(n)
        self._compute = [0.0] * n

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
        node_cost = [0.0] * n
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
            node_cost[node] += meter.total_cost
            for put in puts:
                # a put travels to its owners unless Gamma already
                # holds it (one Delta still holds is sent again: the
                # producer cannot know)
                if put not in gamma:
                    for owner in owners_of(put, n):
                        traffic.send(node, owner, 1)
        compute = max(node_cost)
        comm = traffic.comm_time(n)
        barrier = _BARRIER_COST * math.log2(max(2, n))
        a = self.account
        a.compute += compute
        a.comm += comm
        a.barrier += barrier
        a.elapsed += compute + comm + barrier
        a.messages += traffic.messages()
        a.tuples_moved += traffic.tuples_moved()
        for i, c in enumerate(node_cost):
            self._compute[i] += c
        return records

    # -- the account -------------------------------------------------------------

    def account_feed(self, admitted: int) -> None:
        self.account.elapsed += admitted * DEFAULT_WEIGHTS["delta_insert"]

    def report(self) -> NetReport:
        return self.account

    def nodes(self) -> list[dict]:
        sizes = {
            name: [view.db.size(name) for view in self._views] for name in self.program.tables
        }
        self.tier.check_shards(sizes)
        tier = self.tier
        return [
            {
                "node": node,
                "fires": tier.node_fires[node],
                "puts": tier.node_puts[node],
                **{name: view.counters[name] for name in NODE_COUNTERS},
                "recovered": 0,
                "compute": self._compute[node],
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
        return {"account": asdict(self.account), "compute": list(self._compute)}

    def load_state(self, state: dict) -> None:
        if "account" in state:  # a snapshot the mesh took carries none
            self.account = NetReport(**state["account"])
            self._compute = [float(c) for c in state["compute"]]

    def close(self) -> None:
        self._fold_queries()
