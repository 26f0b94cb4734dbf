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
3. how the batch is *accounted* (``account_step``) — the virtual-time
   machine for the fork/join simulator, a plain sum for sequential.

``TaskResult`` order always equals submission order, so effect
application is deterministic regardless of strategy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.tuples import JTuple
from repro.exec.metering import CostMeter
from repro.simcore.machine import Machine, MachineReport

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

    def bind(self, tracer=None, stats=None) -> None:
        """Attach the run's trace recorder / stats collector.  Base
        strategies ignore both; the chaos strategy records scheduling
        decisions and fault counters through them."""

    @abstractmethod
    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        """Execute a batch; results in submission order."""

    @abstractmethod
    def account_step(
        self,
        results: Sequence[TaskResult],
        allocations: float,
        retained: float,
    ) -> None:
        """Advance virtual time for one completed step."""

    def account_serial(self, cost: float) -> None:
        """Account inherently sequential work (e.g. initial puts)."""

    def report(self) -> MachineReport | None:
        """Virtual-time report, if this strategy keeps one."""
        return None

    def close(self) -> None:
        """Release pools/threads.  Must be idempotent: sessions close
        strategies through try/finally paths that can run twice."""

    # -- context-manager protocol -------------------------------------------

    def __enter__(self) -> "Strategy":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- checkpoint hooks ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable resumable state (RNG cursors, virtual-time
        accounts).  Strategies without such state return ``{}``."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore what :meth:`state_dict` captured.  Default no-op."""


class MachineStrategy(Strategy):
    """A strategy that replays its steps on a virtual-time
    :class:`~repro.simcore.machine.Machine`.  Bodies run sequentially
    in submission order — parallelism, where there is any, exists only
    in the account — and a subclass says how a step's results become
    the machine's tasks (:meth:`account_step`)."""

    def __init__(self, machine: Machine):
        self._machine = machine

    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        return [t.run() for t in tasks]

    def account_serial(self, cost: float) -> None:
        self._machine.run_serial(cost)

    def report(self) -> MachineReport:
        return self._machine.report

    def state_dict(self) -> dict:
        account = dict(vars(self._machine.report))
        del account["n_cores"]  # structural: rebuilt from the options
        return {"machine": account}

    def load_state(self, state: dict) -> None:
        report = self._machine.report
        for name, value in state.get("machine", {}).items():
            setattr(report, name, type(getattr(report, name))(value))
