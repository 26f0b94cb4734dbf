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
* :class:`Shard` and :func:`fire_records`, through which every backend
  fires rules.  *Where a table's rows live is a property of its access
  path* (§1.4, §2 stage 3), not of the rule that reads it: a shard's
  plan cache is built with a **routed prepare**, so a rule fired there
  runs the ordinary :class:`~repro.core.rules.RuleContext` — and *when*
  they are fetched is a hint too: once per class for the reads the
  rules' plans predict (:mod:`repro.dist.readplan`), as asked otherwise;
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

from typing import Callable, Mapping, Protocol

from repro.core.database import Database, InsertOutcome
from repro.core.errors import EngineError
from repro.core.executors.base import StepExecutor
from repro.core.kernel import StepKernel
from repro.core.program import ExecOptions, Program
from repro.core.query import Query, QueryKind, probe_key, residual
from repro.core.rules import RuleContext
from repro.core.tuples import JTuple
from repro.dist.network import NODE_COUNTERS
from repro.dist.placement import OnNode, Partitioned, PlacementMap, spread_hash
from repro.dist.readplan import read_plan
from repro.exec.base import EngineTask, Strategy, TaskResult
from repro.exec.metering import CostMeter
from repro.gamma.base import PreparedSelect, StoreRegistry
from repro.gamma.treeset import TreeSetStore
from repro.plan.cache import PlanCache

__all__ = [
    "Backend",
    "Probes",
    "Shard",
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
    :class:`ShardedExecutor`'s and :class:`Shard`'s.  It may price,
    ship, retry and account: :meth:`execute`, and the one read it hands
    each :class:`Shard` it builds — ``fetch(owner -> Probes)``, every
    owner's :meth:`Shard.serve` of its batch, traffic counted."""

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


#: one batch of reads, as a shard asks it of one owner and a backend
#: ships it: ``(table, eq positions, range items) -> eq values ->
#: None``; answered with one list of row values per key, in order
Probes = dict[tuple[str, tuple, tuple], dict[tuple, None]]


class Shard:
    """One node's shard of Gamma and the access paths into it — the
    view :func:`fire_records` fires against: ``program``, ``db``,
    ``plans``, ``check_mode``, ``traced``.  ``plans`` is an
    ordinary :class:`~repro.plan.cache.PlanCache` built with
    :meth:`prepare`: routing is resolved when a query shape compiles.

    Rows of other shards arrive through one call, ``fetch(owner ->
    Probes) -> owner -> answer``, each owner's :meth:`serve`.
    :meth:`exchange` makes it once per class, for every read the rules'
    plans (:mod:`repro.dist.readplan`) predict; a read none predicted
    makes it for itself, a batch of one.  ``counters`` holds this
    node's :data:`~repro.dist.network.NODE_COUNTERS`: the shard counts
    its reads of other shards, its backend the frames they travel in."""

    def __init__(
        self,
        program: Program,
        placements: PlacementMap,
        node: int,
        n_nodes: int,
        fetch: Callable[[dict[int, Probes]], dict[int, list]],
        check_mode: str,
        traced: bool,
    ):
        self.program = program
        self.db = Database(program.schemas(), StoreRegistry(TreeSetStore), program.decls)
        self.check_mode = check_mode
        self.traced = traced
        self.counters = dict.fromkeys(NODE_COUNTERS, 0)
        self._placements = placements
        self._node = node
        self._n_nodes = n_nodes
        self._fetch = fetch
        self._local: dict[tuple, PreparedSelect] = {}
        self._routes: dict[tuple, tuple] = {}
        self._sites: dict[str, list] = {}
        #: owner -> (table, eq positions, ()) -> key -> the row values
        #: :meth:`exchange` fetched.  Phase B reads a Gamma that phase A
        #: froze for the step — the sharded tier refuses ``-noDelta``
        #: cascades — so a read commutes with every firing of its class
        #: and may be made before any of them; it says nothing about the
        #: next class, or the next attempt at this one: every exchange
        #: starts it afresh
        self._cache: dict[int, dict] = {}
        self.plans = PlanCache(self.db, program, self.prepare)

    def local(self, query: Query) -> PreparedSelect:
        """This shard's own access path for the query's shape: what a
        routed select runs when the home is this node, and what a
        peer's fetch is answered through."""
        key = (query.schema.name, tuple(query.eq), tuple(query.ranges))
        prepared = self._local.get(key)
        if prepared is None:
            prepared = self._local[key] = self.db.store(key[0]).prepare(query)
        return prepared

    def _route(self, schema, eq) -> tuple[str, Callable[[Mapping], list[int]]]:
        """The placement's verdict for queries on ``schema`` binding the
        positions ``eq``, and the nodes holding such a query's rows
        given its ``eq`` values — taken once per (table, positions)."""
        key = (schema.name, tuple(sorted(eq)))
        if key not in self._routes:
            placement, n_nodes = self._placements[schema.name], self._n_nodes
            verdict = self._placements.query_verdict(
                schema.name, [schema.field_names[i] for i in key[1]]
            )
            if verdict == "routed" and isinstance(placement, Partitioned):
                pos = schema.field_position(placement.field)
                self._routes[key] = verdict, lambda eq: [
                    placement.home_for_value(eq[pos], n_nodes)
                ]
            else:  # the pin, this node's own replica, or every shard
                homes = list(range(n_nodes))
                if verdict != "broadcast":
                    homes = [placement.node if verdict == "routed" else self._node]
                self._routes[key] = verdict, lambda eq: homes
        return self._routes[key]

    def prepare(self, query: Query) -> PreparedSelect:
        """The routed prepare.  A ``local`` shape is the store's own
        access path, untouched; a ``routed`` one reads its one home —
        the pin, or the home of the bound partition value — here or
        remotely; a ``broadcast`` one reads every shard and re-sorts the
        union by value (per-shard results are value-sorted, so this is
        the single-node order).  Priced as one store lookup per shard
        read."""
        schema = query.schema
        local = self.local(query)
        verdict, homes_of = self._route(schema, query.eq)
        if verdict == "local" or self._n_nodes == 1:
            return local
        node, here, run_local, remote = self._node, [self._node], local.run, self._remote(query)

        def run(q: Query) -> list[JTuple]:
            homes = homes_of(q.eq)
            if homes == here:
                return run_local(q)
            rows = remote(q, [h for h in homes if h != node])
            if node in homes:
                rows = run_local(q) + rows
                rows.sort(key=lambda t: t.values)
            return rows

        return PreparedSelect(
            run,
            local.lookup_cost * (self._n_nodes if verdict == "broadcast" else 1),
            local.lookup_tag,
            self.db.store(schema.name).cost,
            schema.name,
        )

    # -- reads of other shards ---------------------------------------------------

    def _pull(self, asks: dict[int, Probes]) -> None:
        """The one read of other shards: one fetch carries ``asks`` out,
        and each key's None comes back as its row values."""
        answers = self._fetch(asks)
        for owner, shapes in asks.items():
            parts = iter(answers[owner])
            for shape, keys in shapes.items():
                shapes[shape] = dict(zip(keys, parts))

    def serve(self, probes: Probes) -> list[list[tuple]]:
        """Answer another shard's batch through this shard's own access
        paths.  Only what ships is applied (eq, ranges); a ``where`` is
        the asker's."""
        out = []
        for (table, pos, ranges), keys in probes.items():
            schema, ranges = self.program.schemas()[table], dict(ranges)
            for key in keys:
                q = Query(schema, dict(zip(pos, key)), ranges, None, QueryKind.POSITIVE)
                out.append([t.values for t in self.local(q).run(q)])
        return out

    def _remote(self, shape: Query) -> Callable[[Query, list[int]], list[JTuple]]:
        """``(q, owners) ->`` rows of a query of ``shape`` on ``owners``:
        from the class's exchange when it fetched them all, else asked
        for now.  Owners apply the eq constraints; the exchange asks
        eq-only, so ranges and ``where`` are the compiled residual's."""
        schema, pos, counters = shape.schema, tuple(sorted(shape.eq)), self.counters
        key_of, keep, planned = probe_key(pos), residual(shape, pos), (schema.name, pos, ())

        def rows(q: Query, owners: list[int]) -> list[JTuple]:
            key = key_of(q.eq)
            parts = [self._cache.get(o, {}).get(planned, {}).get(key) for o in owners]
            counters["probes_remote"] += len(owners)
            if None in parts:
                asked = (schema.name, pos, tuple(sorted(q.ranges.items())))
                asks = {o: {asked: {key: None}} for o in owners}
                self._pull(asks)
                parts = [asks[o][asked][key] for o in owners]
            else:
                counters["probes_planned"] += len(owners)
            return keep(q, [JTuple(schema, values) for part in parts for values in part])

        return rows

    def _here(self, query: Query) -> list[JTuple]:
        """A plan's generator rows when this node holds them all."""
        if self._route(query.schema, query.eq)[1](query.eq) != [self._node]:
            return []
        return self.local(query).run(query)

    def exchange(self, triggers: list[JTuple]) -> None:
        """Before this shard fires ``triggers`` — its slice of a class,
        phase A landed everywhere — fetch every row of other shards
        their rules' read plans predict, one fetch for the class."""
        asks: dict[int, Probes] = {}
        for tup in triggers:
            for rule in self.program.rules_for(tup.schema.name):
                if rule.name not in self._sites:
                    verdict = lambda schema, pos: self._route(schema, pos)[0]  # noqa: E731
                    self._sites[rule.name] = [
                        (s, self._route(s.schema, s.pos)[1], (s.schema.name, s.pos, ()))
                        for s in read_plan(rule, self._placements, verdict)
                        if s.reason is None and s.verdict != "local"
                    ]
                for site, homes_of, shape in self._sites[rule.name]:
                    for key in site.keys(tup, self._here):
                        for owner in homes_of(dict(zip(site.pos, key))):
                            if owner != self._node:
                                asks.setdefault(owner, {}).setdefault(shape, {})[key] = None
        self._cache = asks
        if asks:
            self._pull(asks)


def fire_records(shard: Shard, tup: JTuple, meter: CostMeter) -> list[dict]:
    """Fire every rule ``tup`` triggers on ``shard``'s node: one
    wire-safe record per rule in declaration order, which the
    coordinator merges in global (batch index, rule) order."""
    entries: list[dict] = []
    ts = shard.db.timestamp(tup)
    for rule in shard.program.rules_for(tup.schema.name):
        meter.charge("rule_fire")
        events: list | None = [] if shard.traced else None
        ctx = RuleContext(
            shard.db,
            shard.program.decls,
            meter,
            rule,
            tup,
            ts,
            shard.plans,
            shard.check_mode,
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
        edges, events, handle_puts = k.stats.trigger_edges, k.stats.table, k._handle_puts
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
                events(name).duplicates += 1
                continue
            events(name).gamma_inserts += 1
            for entry in records.get(idx, ()):
                rule = entry["rule"]
                key = (name, rule)
                edges[key] = edges.get(key, 0) + 1
                node_fires[node] += 1
                node_puts[node] += len(entry["puts"])
                if traced:
                    result.fired_rules.append(rule)
                    result.events.extend(
                        (kind, {**data, "node": node}) for kind, data in entry["events"]
                    )
                out = entry["output"]
                if out:
                    self.deliver(
                        result, rule, self._rule_pos[rule], tup, k.db.timestamp(tup), out
                    )
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
