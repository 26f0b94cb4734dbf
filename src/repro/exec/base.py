"""Execution-strategy interface.

§5: "The compiler generates parallel Java code and data structures by
default, or can generate sequential code and data structures if the
``-sequential`` compiler flag is supplied."  Here the same choice is a
runtime *strategy* object, and — true to the language's promise — the
choice can only change *time*, never results.

A strategy decides three things:

1. whether default Gamma stores are the sequential or the concurrent
   variants (``concurrent_stores``);
2. how a step's task batch is *executed* (``run_batch``) — every
   built-in strategy except :class:`~repro.exec.threads.ThreadStrategy`
   runs bodies sequentially in deterministic order, because virtual
   time is accounted separately from real execution;
3. which virtual-time :class:`~repro.simcore.machine.Machine` the batch
   is *accounted* on (``machine``) — N cores for the fork/join pool,
   one for ``-sequential``, a node per shard for the sharded cost
   model, none for real threads and chaos.

``TaskResult`` order always equals submission order, so effect
application is deterministic regardless of strategy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.tuples import JTuple
from repro.exec.metering import CostMeter
from repro.simcore.costs import CalibratedCosts
from repro.simcore.machine import Machine, MachineReport, SimTask

__all__ = ["TaskResult", "EngineTask", "Strategy", "MachineStrategy"]


@dataclass(slots=True)
class TaskResult:
    """Outcome of executing one tuple-task."""

    trigger: JTuple
    puts: list[JTuple] = field(default_factory=list)
    output: list[str] = field(default_factory=list)
    meter: CostMeter = field(default_factory=CostMeter)
    fired_rules: list[str] = field(default_factory=list)
    duplicate: bool = False  # tuple was already in Gamma; nothing fired
    #: per-task trace micro events (kind, data), buffered here so the
    #: engine can flush them in submission order — a globally shared
    #: recorder would interleave nondeterministically under real threads
    events: list[tuple[str, dict]] = field(default_factory=list)
    #: per-task firing records (retraction mode only): one
    #: :class:`~repro.core.support.FiringRecord` per rule fired, buffered
    #: like ``events`` so registration happens in submission order — and
    #: so records of faulted/duplicate results are discarded with them
    firings: list = field(default_factory=list)
    #: deterministic sort keys parallel to ``output`` (non-retraction
    #: mode): (trigger ts key, trigger tie-break, rule index, line index).
    #: The engine sorts each step's lines by this key so output order is
    #: a pure function of the firing set — identical to the keyed order
    #: retraction mode maintains — instead of depending on the pop order
    #: within an equivalence class
    out_keys: list = field(default_factory=list)
    #: the node that ran this task (sharded tier only): placement, not
    #: semantics — the kernel copies it onto the task's ``task`` and
    #: ``effect`` trace events, where it is a volatile key
    node: int | None = None


@dataclass(slots=True)
class EngineTask:
    """One schedulable unit: a tuple plus the closure that processes it
    (Gamma insertion + firing every triggered rule).  §5.2: "Even if a
    tuple triggers more than one rule, we create only one task for that
    tuple"."""

    trigger: JTuple
    run: Callable[[], TaskResult]


class Strategy(ABC):
    """One way of executing and accounting all-minimums step batches."""

    #: diagnostic name ("sequential", "forkjoin", "threads")
    name: str = "abstract"
    #: True -> Database defaults to concurrent store variants
    concurrent_stores: bool = False
    #: worker count (1 for sequential)
    n_threads: int = 1
    #: True -> engine must guard shared mutation with a real lock
    needs_locks: bool = False
    #: True -> this strategy consumes per-task CostMeters (a virtual
    #: -time machine); the engine forces metering on even when the run
    #: asked for ``metering="off"``
    requires_metering: bool = False
    #: optional hook the engine installs into every RuleContext: called
    #: at each put/query boundary inside a rule body.  The chaos
    #: strategy uses it to interleave and fault task bodies; every other
    #: strategy leaves it None (zero overhead).
    yield_point: Callable[[], None] | None = None
    #: the virtual-time machine the steps are priced on; None keeps no
    #: account (``report()`` is None)
    machine: Machine | None = None

    def bind(self, tracer=None, stats=None) -> None:
        """Attach the run's trace recorder / stats collector.  Base
        strategies ignore both; the chaos strategy records scheduling
        decisions and fault counters through them."""

    @abstractmethod
    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        """Execute a batch; results in submission order."""

    def account_step(
        self,
        results: Sequence[TaskResult],
        allocations: float,
        retained: float,
    ) -> None:
        """Advance virtual time for one completed step: each result's
        meter is a free task on the machine, plus one per chunk of its
        divisible loops."""
        if self.machine is None:
            return
        sim: list[SimTask] = []
        for r in results:
            m = r.meter
            if not m.splittable:
                sim.append(SimTask(m.total_cost, m.shared))
                continue
            divisible = sum(c for c, _ in m.splittable)
            sim.append(SimTask(max(0.0, m.total_cost - divisible), m.shared))
            # §5.2 in-rule parallel loops: fan each divisible slice out
            # as chunk tasks inside the same step (the step's join
            # barrier approximates the loop's own join)
            for cost, chunks in m.splittable:
                per = cost / chunks
                sim.extend(SimTask(per) for _ in range(chunks))
        self.machine.run_step(sim, allocations=allocations, retained=retained)

    def account_serial(self, cost: float) -> None:
        """Account inherently sequential work (a feed, initial puts)."""
        if self.machine is not None:
            self.machine.run_serial(cost)

    def report(self) -> MachineReport | None:
        """The machine's virtual-time account, if this strategy keeps one."""
        return None if self.machine is None else self.machine.report

    def nodes(self) -> list[dict] | None:
        """Per-node summaries, if this strategy runs on nodes (the
        sharded tier's ``RunResult.nodes``)."""
        return None

    def start(self) -> None:
        """Called once when the session goes live — at ``open``, or at
        the end of ``restore``: a sharded backend starts its workers."""

    def close(self) -> None:
        """Release pools/threads/workers.  Must be idempotent: sessions
        close strategies through try/finally paths that can run twice."""

    # -- context-manager protocol -------------------------------------------

    def __enter__(self) -> "Strategy":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- checkpoint hooks ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable resumable state (RNG cursors, the machine's
        account).  Strategies without such state return ``{}``."""
        return {} if self.machine is None else {"machine": self.machine.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore what :meth:`state_dict` captured."""
        if self.machine is not None:
            self.machine.load_state(state.get("machine", {}))


class MachineStrategy(Strategy):
    """The virtual-time strategies: bodies run sequentially in
    submission order, and parallelism, where there is any, exists only
    in the account.

    ``"forkjoin"`` is the paper's default (§5): "It treats the Delta set
    as an event queue, ordered by the causality ordering.  At each
    execution step, it takes all minimal tuples out of the Delta set,
    and executes all those tuples in parallel" — here each task's
    metered cost is replayed on a ``cores``-core machine (the paper's
    ``--threads=N``) with concurrent stores; DESIGN.md §2 says why the
    substitution is sound on a GIL-bound host.  ``"sequential"`` (the
    ``-sequential`` flag) is one core with sequential stores: no
    spawn/barrier overhead, no contention, no concurrent-structure
    premium — the baseline *absolute* speedup is defined against (§6.2
    footnote 11)."""

    def __init__(
        self, name: str = "sequential", cores: int = 1, calib: CalibratedCosts | None = None
    ):
        self.name = name
        # the pool's virtual cores consume meters and share concurrent
        # stores; the sequential build needs neither
        self.concurrent_stores = self.requires_metering = name != "sequential"
        self.n_threads = cores
        self.machine = Machine(cores, calib if calib is not None else CalibratedCosts())

    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        return [t.run() for t in tasks]
