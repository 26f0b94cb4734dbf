"""The simulated fork/join all-minimums strategy (the paper's default).

"Our current implementation uses a very simple parallelisation strategy
built on top of the Java 7 Fork/Join framework.  It treats the Delta
set as an event queue, ordered by the causality ordering.  At each
execution step, it takes all minimal tuples out of the Delta set, and
executes all those tuples in parallel." (§5)

Here the *effects* of each task are computed sequentially in
deterministic order (so program output is bit-identical to the
sequential strategy — the determinism guarantee of §1.3), while the
*time* each task took is replayed on an N-core virtual machine with
the calibrated contention and GC models (see DESIGN.md §2 for why this
substitution is sound on a GIL-bound single-core host).

``pool_size`` is the paper's ``--threads=N`` runtime flag.
"""

from __future__ import annotations

from typing import Sequence

from repro.exec.base import MachineStrategy, TaskResult
from repro.simcore.contention import CalibratedCosts
from repro.simcore.gc import GcModel
from repro.simcore.machine import Machine
from repro.simcore.task import SimTask

__all__ = ["ForkJoinStrategy"]


class ForkJoinStrategy(MachineStrategy):
    name = "forkjoin"
    concurrent_stores = True
    # the virtual machine schedules each task's metered cost onto its
    # cores — without meters there is nothing to simulate
    requires_metering = True

    def __init__(
        self,
        pool_size: int,
        calib: CalibratedCosts | None = None,
        gc: GcModel | None = None,
    ):
        if pool_size < 1:
            raise ValueError("fork/join pool needs at least one thread")
        self.n_threads = pool_size
        super().__init__(
            Machine(
                n_cores=pool_size,
                calib=calib if calib is not None else CalibratedCosts(),
                gc=gc if gc is not None else GcModel(),
            )
        )

    def account_step(
        self,
        results: Sequence[TaskResult],
        allocations: float,
        retained: float,
    ) -> None:
        sim: list[SimTask] = []
        for r in results:
            m = r.meter
            divisible = sum(c for c, _ in m.splittable)
            sim.append(
                SimTask(
                    max(0.0, m.total_cost - divisible),
                    dict(m.shared),
                    label=repr(r.trigger),
                )
            )
            # §5.2 in-rule parallel loops: fan each divisible slice out
            # as chunk tasks inside the same step (the step's join
            # barrier approximates the loop's own join)
            for cost, chunks in m.splittable:
                per = cost / chunks
                sim.extend(SimTask(per) for _ in range(chunks))
        self._machine.run_step(sim, allocations=allocations, retained=retained)

    @property
    def machine(self) -> Machine:
        return self._machine
