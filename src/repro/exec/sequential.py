"""The ``-sequential`` strategy.

Runs every task in submission order with sequential Gamma stores and a
one-core virtual machine: no spawn/barrier overhead, no contention, no
concurrent-structure premium — the baseline against which *absolute*
speedup is defined (§6.2 footnote 11: "absolute speedup is relative to
the fastest sequential or single-threaded parallel version").
"""

from __future__ import annotations

from typing import Sequence

from repro.exec.base import MachineStrategy, TaskResult
from repro.simcore.contention import CalibratedCosts
from repro.simcore.gc import GcModel
from repro.simcore.machine import Machine
from repro.simcore.task import SimTask

__all__ = ["SequentialStrategy"]


class SequentialStrategy(MachineStrategy):
    name = "sequential"
    concurrent_stores = False
    n_threads = 1

    def __init__(self, gc: GcModel | None = None):
        super().__init__(
            Machine(n_cores=1, calib=CalibratedCosts(), gc=gc if gc is not None else GcModel())
        )

    def account_step(
        self,
        results: Sequence[TaskResult],
        allocations: float,
        retained: float,
    ) -> None:
        sim = [
            SimTask(r.meter.total_cost, dict(r.meter.shared)) for r in results
        ]
        self._machine.run_step(sim, allocations=allocations, retained=retained)
