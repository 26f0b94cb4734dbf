"""The virtual machine: one step account for cores and computers.

This is the substitute for the paper's Xeon testbeds and its cluster
(see DESIGN.md §2).  The engine executes rule bodies for real and hands
the machine one :class:`SimTask` batch per all-minimums step; the
machine returns the step's virtual duration and advances its clock.
Every step has the bulk-synchronous shape — local compute, then one
exchange, then a barrier:

``step = max( LPT(free tasks over the lanes' pinned loads),  max_r serial_r · (1 + growth_r·(n-1)) )
         + spawn·|T|/n + barrier·log2(n) + comm + gc``

* a *free* task (``lane is None``) may run on any core: the paper's
  Fork/Join pool, modelled by **LPT list scheduling** (sort by
  descending cost, always assign to the least-loaded core — within 4/3
  of optimal and within a few percent of what a work-stealing executor
  achieves on batch workloads);
* a *pinned* task runs on its lane: a sharded node fires the tuples
  its placements send it (§2 stage 3);
* ``serial_r`` is the batch's summed work on shared resource *r* (from
  the cost meters) and ``growth_r`` models cache-line ping-pong getting
  *worse* as more cores hammer the same structure;
* ``comm`` is the exchange's makespan on the interconnect
  (:meth:`StepTraffic.comm_time`); ``gc`` the collector's serial tax.

A step without an exchange on one core collapses to the exact
sequential sum with no contention and no spawn/barrier overheads —
sequential code generation has neither (§5).  All weights are
:mod:`repro.simcore.costs`.

Because outputs are computed before any scheduling happens, the
machine can *only* influence reported time — program results are
identical for every core count, which is the determinism guarantee the
language promises (§1.3) and which our property tests assert.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.simcore.costs import CalibratedCosts, NetModel

__all__ = [
    "SimTask",
    "lpt_makespan",
    "StepTiming",
    "step_makespan",
    "StepTraffic",
    "MachineReport",
    "Machine",
]


@dataclass(slots=True)
class SimTask:
    """The virtual-time shadow of one task: ``cost`` is its total work
    in work units; ``shared`` maps shared-resource names (``"delta"``,
    ``"gamma:PvWatts"``, ``"membw"``) to the work units that must
    serialise on that resource; ``lane`` pins it to one core or node."""

    cost: float
    shared: dict[str, float] = field(default_factory=dict)
    lane: int | None = None


def lpt_makespan(
    costs: Sequence[float], n_cores: int, loads: list[float] | None = None
) -> float:
    """Makespan of LPT list scheduling of ``costs`` on ``n_cores`` whose
    loads start at ``loads`` (idle when None)."""
    if loads is None:
        if not costs:
            return 0.0
        if n_cores <= 1:
            return sum(costs)
        if len(costs) <= n_cores:
            return max(costs)
        loads = [0.0] * n_cores
    heap = list(loads)
    heapq.heapify(heap)
    for c in sorted(costs, reverse=True):
        heapq.heapreplace(heap, heap[0] + c)
    return max(heap)


@dataclass(frozen=True, slots=True)
class StepTiming:
    """Virtual-time account of one step's compute (see module docstring)."""

    compute: float         # the scheduled batch, contention included
    busy: float            # total useful work in the batch
    contention: float      # extra time attributable to shared resources
    overhead: float        # spawn + barrier
    n_tasks: int
    #: per-lane work of the pinned tasks (None: no task was pinned)
    lanes: list[float] | None = None

    @property
    def makespan(self) -> float:
        return self.compute + self.overhead

    @property
    def efficiency(self) -> float:
        return self.busy / self.makespan if self.makespan > 0 else 1.0


def step_makespan(
    tasks: Sequence[SimTask],
    n_cores: int,
    calib: CalibratedCosts,
    superstep: bool = False,
) -> StepTiming:
    """Virtual compute time of one all-minimums step.  A ``superstep``
    ends in an exchange, so it pays its barrier even on one core or
    with nothing to run."""
    busy = sum(t.cost for t in tasks)
    if not superstep:
        if not tasks:
            return StepTiming(0.0, 0.0, 0.0, 0.0, 0)
        if n_cores <= 1:
            return StepTiming(busy, busy, 0.0, 0.0, len(tasks))
    free: list[float] = []
    lanes = [0.0] * n_cores
    pinned = False
    serial: dict[str, float] = {}
    for t in tasks:
        if t.lane is None:
            free.append(t.cost)
        else:
            lanes[t.lane] += t.cost
            pinned = True
        for r, c in t.shared.items():
            serial[r] = serial.get(r, 0.0) + c
    base = lpt_makespan(free, n_cores, lanes if pinned else None)
    bottleneck = 0.0
    for r, s in serial.items():
        bottleneck = max(bottleneck, s * (1.0 + calib.growth(r) * (n_cores - 1)))
    overhead = calib.spawn_cost * len(tasks) / n_cores + calib.barrier_cost * math.log2(
        max(2, n_cores)
    )
    compute = max(base, bottleneck)
    return StepTiming(
        compute, busy, compute - base, overhead, len(tasks), lanes if pinned else None
    )


@dataclass
class StepTraffic:
    """One superstep's exchange, priced on a :class:`NetModel` — the
    standard LogP-flavoured account:

    * each message pays ``latency`` once plus ``per_tuple`` marshalling
      per carried tuple;
    * messages between the same (src, dst) pair within one superstep
      are **batched**: one latency, summed payload — distributed JStar's
      natural bulk exchange (the engine moves whole put-sets per step);
    * a read of another shard is a synchronous round trip: one per
      (node, owner) for all the probes of a class that the rules' read
      plans predict, one more per read they did not;
    * a node's send/receive work serialises on its NIC: the step's comm
      makespan is the busiest node's total (full-duplex between
      distinct pairs), plus the round trips' stalls."""

    net: NetModel
    #: (src, dst) -> tuples carried this step
    batches: dict[tuple[int, int], int] = field(default_factory=dict)
    #: synchronous round trips issued this step (one per batch of
    #: probes a node asks an owner): each pays latency twice
    round_trips: int = 0
    shipped_results: int = 0

    def send(self, src: int, dst: int, n_tuples: int = 1) -> None:
        if src == dst or n_tuples <= 0:
            return
        key = (src, dst)
        self.batches[key] = self.batches.get(key, 0) + n_tuples

    def remote_query(self, src: int, dst: int, n_results: int) -> None:
        if src == dst:
            return
        self.round_trips += 1
        self.shipped_results += n_results

    def tuples_moved(self) -> int:
        return sum(self.batches.values())

    def messages(self) -> int:
        return len(self.batches) + 2 * self.round_trips

    def comm_time(self, n_nodes: int) -> float:
        """The step's communication makespan (busiest NIC)."""
        per_node = [0.0] * n_nodes
        for (src, dst), n in self.batches.items():
            cost = self.net.latency + self.net.per_tuple * n
            per_node[src] += cost
            per_node[dst] += cost
        # a round trip stalls its issuing node; the owner marshals rows
        rt = self.round_trips * 2 * self.net.latency + (
            self.shipped_results * self.net.per_result
        )
        return (max(per_node) if per_node else 0.0) + rt


@dataclass
class MachineReport:
    """Aggregate virtual-time account of a whole run — every
    virtual-time strategy's ``RunResult.report`` and snapshot state.
    Per step: the ``compute`` makespan, its spawn/join or coordination
    ``overhead``, its exchange's ``comm`` makespan and the GC tax, summed
    with the serial stretches into ``elapsed``."""

    n_cores: int
    elapsed: float = 0.0
    busy: float = 0.0
    compute: float = 0.0
    comm: float = 0.0
    gc_time: float = 0.0
    contention: float = 0.0
    overhead: float = 0.0
    steps: int = 0
    tasks: int = 0
    max_batch: int = 0
    messages: int = 0
    tuples_moved: int = 0
    #: work pinned to each lane (a sharded node's compute); empty until
    #: a task is pinned
    lanes: list[float] = field(default_factory=list)

    @property
    def utilisation(self) -> float:
        denom = self.elapsed * self.n_cores
        return self.busy / denom if denom > 0 else 1.0

    def as_dict(self) -> dict:
        return {**vars(self), "utilisation": self.utilisation}


@dataclass
class Machine:
    """N virtual cores (or nodes) priced on one :class:`CalibratedCosts`."""

    n_cores: int
    calib: CalibratedCosts = field(default_factory=CalibratedCosts)
    report: MachineReport = field(init=False)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("a machine needs at least one core")
        self.report = MachineReport(self.n_cores)

    def run_step(
        self,
        tasks: Sequence[SimTask],
        allocations: float = 0.0,
        retained: float = 0.0,
        traffic: StepTraffic | None = None,
    ) -> StepTiming:
        """Execute one step batch in virtual time.

        ``allocations`` = objects allocated during the step,
        ``retained`` = boxed tuples currently live in Gamma (the GC
        tax), ``traffic`` = the step's exchange, if it ends in one.
        Returns the step timing; the machine's clock and aggregate
        report advance accordingly.
        """
        timing = step_makespan(tasks, self.n_cores, self.calib, traffic is not None)
        gc_tax = self.calib.gc_tax(allocations, retained)
        r = self.report
        comm = 0.0
        if traffic is not None:
            comm = traffic.comm_time(self.n_cores)
            r.comm += comm
            r.messages += traffic.messages()
            r.tuples_moved += traffic.tuples_moved()
        if timing.lanes is not None:
            r.lanes = [a + b for a, b in zip(r.lanes, timing.lanes)] if r.lanes else timing.lanes
        r.elapsed += timing.compute + comm + timing.overhead + gc_tax
        r.busy += timing.busy
        r.compute += timing.compute
        r.gc_time += gc_tax
        r.contention += timing.contention
        r.overhead += timing.overhead
        r.steps += 1
        r.tasks += timing.n_tasks
        r.max_batch = max(r.max_batch, timing.n_tasks)
        return timing

    def run_serial(self, cost: float) -> None:
        """Account a purely sequential stretch (e.g. program setup)."""
        self.report.elapsed += cost
        self.report.busy += cost

    @property
    def now(self) -> float:
        return self.report.elapsed

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """The account, JSON-ready: its non-zero fields (``n_cores`` is
        structural, rebuilt from the options)."""
        return {k: v for k, v in vars(self.report).items() if v and k != "n_cores"}

    def load_state(self, state: dict) -> None:
        report = self.report
        for name, value in state.items():
            setattr(report, name, type(getattr(report, name))(value))
