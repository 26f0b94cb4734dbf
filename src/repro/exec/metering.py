"""Cost metering: the bridge between real execution and virtual time.

Every run of a JStar program *really executes* the rule bodies (so all
outputs are exact and deterministic), while a :class:`CostMeter`
records the abstract work each task performed: tuples created, Delta
and Gamma operations, query results, reducer steps, and explicit
``ctx.charge`` work for numeric inner loops.  The simulated fork/join
machine (:mod:`repro.simcore`) then schedules those per-task costs onto
*N* virtual cores.

Two ledgers per meter:

* ``costs[counter]`` — work units per named counter (also ``counters``
  with raw op counts);
* ``shared[resource]`` — work units that must *serialise* on a named
  shared resource (the Delta tree, a concurrent Gamma table, memory
  bandwidth).  These are the paper's scalability villains: "the inner
  loop of the program puts several million Estimate tuples through the
  Delta tree, which is still not sufficiently scalable" (§6.5).

Costs for store operations come from each store's
:class:`~repro.gamma.base.CostProfile`; everything else uses
:data:`DEFAULT_WEIGHTS`.  All constants are calibrated in one place —
see :mod:`repro.simcore.contention` for the machine-level ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.gamma.base import PreparedSelect, TableStore

__all__ = ["DEFAULT_WEIGHTS", "CostMeter", "NullMeter", "NULL_METER"]

#: Work units charged per op for non-store counters.
DEFAULT_WEIGHTS: dict[str, float] = {
    "tuple_put": 1.0,      # a rule issuing put (allocation + handoff)
    "delta_insert": 7.0,   # insertion into the Delta tree (calibrated to the paper's §6.2 noDelta effect)
    "delta_pop": 5.5,      # removal of one tuple from the Delta tree
    "rule_fire": 0.5,      # dispatch overhead of firing a rule
    "reduce_op": 0.3,      # one reducer step
    "user_work": 1.0,      # explicit ctx.charge (cost given by caller)
    "csv_parse": 0.6,      # parsing one CSV record (byte-level reader)
    "csv_parse_slow": 1.4, # parsing via split/str (baseline style)
    "task_spawn": 0.8,     # fork/join task creation overhead
    "io_record": 0.2,      # reading one record's bytes
}


class CostMeter:
    """Accumulates abstract work, split by counter and shared resource."""

    __slots__ = ("counters", "costs", "shared", "total_cost", "splittable")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.costs: dict[str, float] = {}
        self.shared: dict[str, float] = {}
        self.total_cost: float = 0.0
        #: (cost, chunks) slices of this task's work that an in-rule
        #: parallel loop could divide across cores (§5.2's reducer-tree
        #: extension); the fork/join account fans these out
        self.splittable: list[tuple[float, int]] = []

    # -- charging ---------------------------------------------------------

    def charge(self, counter: str, n: int = 1, cost: float | None = None) -> None:
        """Charge ``n`` ops on ``counter``; total cost defaults to
        ``n * DEFAULT_WEIGHTS[counter]`` (``cost`` overrides, already
        multiplied)."""
        if cost is None:
            cost = n * DEFAULT_WEIGHTS.get(counter, 1.0)
        self.counters[counter] = self.counters.get(counter, 0) + n
        self.costs[counter] = self.costs.get(counter, 0.0) + cost
        self.total_cost += cost

    def charge_shared(self, resource: str, cost: float) -> None:
        """Mark ``cost`` work units as serialising on ``resource``."""
        if cost:
            self.shared[resource] = self.shared.get(resource, 0.0) + cost

    def charge_parallel(self, cost: float, chunks: int, counter: str = "par_loop") -> None:
        """Charge ``cost`` of work that is divisible into ``chunks``
        independent pieces (an in-rule parallel loop, §5.2)."""
        self.charge(counter, n=1, cost=cost)
        if chunks > 1 and cost > 0:
            self.splittable.append((cost, chunks))

    def charge_store_op(self, op: str, store: "TableStore", n: int = 1) -> None:
        """Charge a Gamma store mutation using its cost profile and
        route the serialisable fraction to the store's resource.
        ``insert`` is the one op: selects are priced per shape and
        charged by :meth:`charge_planned`."""
        profile = store.cost
        cost = {"insert": profile.insert_cost}[op] * n
        counter = f"gamma_{op}:{store.schema.name}"
        self.counters[counter] = self.counters.get(counter, 0) + n
        self.costs[counter] = self.costs.get(counter, 0.0) + cost
        self.total_cost += cost
        if profile.resource is not None and profile.serial_fraction > 0.0:
            self.charge_shared(profile.resource, cost * profile.serial_fraction)

    def charge_planned(self, ps: "PreparedSelect", n_results: int) -> None:
        """Charge one select served through a compiled plan: the lookup
        as the store priced the shape in
        :meth:`~repro.gamma.base.TableStore.prepare` (plain paths charge
        ``gamma_lookup:``, index-served shapes the cheaper
        ``gamma_ixlookup:``, a routed path one lookup per shard read),
        then ``gamma_result:`` per result yielded.  Costs, counters and
        shared fractions were precomputed per shape on the
        :class:`~repro.gamma.base.PreparedSelect`."""
        counters = self.counters
        costs = self.costs
        counter = ps.lookup_counter
        counters[counter] = counters.get(counter, 0) + 1
        costs[counter] = costs.get(counter, 0.0) + ps.lookup_cost
        self.total_cost += ps.lookup_cost
        if ps.lookup_shared:
            self.shared[ps.resource] = (
                self.shared.get(ps.resource, 0.0) + ps.lookup_shared
            )
        if n_results:
            cost = ps.result_cost * n_results
            counter = ps.result_counter
            counters[counter] = counters.get(counter, 0) + n_results
            costs[counter] = costs.get(counter, 0.0) + cost
            self.total_cost += cost
            shared = ps.result_shared * n_results
            if shared:
                self.shared[ps.resource] = self.shared.get(ps.resource, 0.0) + shared

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "CostMeter") -> None:
        self.splittable.extend(other.splittable)
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        for k, v in other.costs.items():
            self.costs[k] = self.costs.get(k, 0.0) + v
        for k, v in other.shared.items():
            self.shared[k] = self.shared.get(k, 0.0) + v
        self.total_cost += other.total_cost

    def reset(self) -> None:
        self.counters.clear()
        self.costs.clear()
        self.shared.clear()
        self.splittable.clear()
        self.total_cost = 0.0

    # -- checkpointing --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serialisable form, for session snapshots."""
        return {
            "counters": dict(self.counters),
            "costs": dict(self.costs),
            "shared": dict(self.shared),
            "total_cost": self.total_cost,
            "splittable": [[c, n] for c, n in self.splittable],
        }

    def load_state(self, state: dict) -> None:
        self.counters = {str(k): int(v) for k, v in state.get("counters", {}).items()}
        self.costs = {str(k): float(v) for k, v in state.get("costs", {}).items()}
        self.shared = {str(k): float(v) for k, v in state.get("shared", {}).items()}
        self.total_cost = float(state.get("total_cost", 0.0))
        self.splittable = [
            (float(c), int(n)) for c, n in state.get("splittable", [])
        ]

    # -- reporting ----------------------------------------------------------

    def cost_by_prefix(self, prefix: str) -> float:
        """Sum of costs whose counter name starts with ``prefix`` —
        used for the §6.3 phase breakdown."""
        return sum(c for name, c in self.costs.items() if name.startswith(prefix))

    def count(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def __repr__(self) -> str:
        return (
            f"CostMeter(total={self.total_cost:.1f}, "
            f"counters={len(self.counters)}, shared={list(self.shared)})"
        )


class NullMeter(CostMeter):
    """The ``metering="off"`` meter: every charge is a no-op, so the
    hot path spends zero time on cost dict traffic.  The ledgers stay
    empty (``total_cost == 0.0``), which is visible — and documented —
    in ``RunResult.meter`` / ``virtual_time`` for unmetered runs.
    Strategies that *consume* meters (the fork/join virtual machine)
    declare :attr:`~repro.exec.base.Strategy.requires_metering`, and
    the engine forces metering back on for them.
    """

    __slots__ = ()

    def charge(self, counter: str, n: int = 1, cost: float | None = None) -> None:
        pass

    def charge_shared(self, resource: str, cost: float) -> None:
        pass

    def charge_parallel(self, cost: float, chunks: int, counter: str = "par_loop") -> None:
        pass

    def charge_store_op(self, op: str, store: "TableStore", n: int = 1) -> None:
        pass

    def charge_planned(self, ps: "PreparedSelect", n_results: int) -> None:
        pass

    def merge(self, other: CostMeter) -> None:
        pass


#: shared instance — a NullMeter has no state, so every unmetered task
#: can use the same one (no per-task allocation at all)
NULL_METER = NullMeter()
