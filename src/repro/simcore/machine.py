"""The virtual multicore machine: clock + scheduler + contention + GC.

This is the substitute for the paper's Xeon testbeds (see DESIGN.md §2).
The engine executes rule bodies for real and feeds the machine one
:class:`~repro.simcore.task.SimTask` batch per all-minimums step; the
machine returns the step's virtual duration and advances its clock.

Because outputs are computed before any scheduling happens, the
machine can *only* influence reported time — program results are
identical for every core count, which is the determinism guarantee the
language promises (§1.3) and which our property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.simcore.contention import CalibratedCosts, StepTiming, step_makespan
from repro.simcore.gc import GcModel
from repro.simcore.task import SimTask

__all__ = ["MachineReport", "Machine"]


@dataclass
class MachineReport:
    """Aggregate virtual-time account of a whole run."""

    n_cores: int
    elapsed: float = 0.0
    busy: float = 0.0
    gc_time: float = 0.0
    contention: float = 0.0
    overhead: float = 0.0
    steps: int = 0
    tasks: int = 0
    max_batch: int = 0

    @property
    def utilisation(self) -> float:
        denom = self.elapsed * self.n_cores
        return self.busy / denom if denom > 0 else 1.0

    def as_dict(self) -> dict:
        return {**vars(self), "utilisation": self.utilisation}


@dataclass
class Machine:
    """N virtual cores with calibrated contention and GC models."""

    n_cores: int
    calib: CalibratedCosts = field(default_factory=CalibratedCosts)
    gc: GcModel = field(default_factory=GcModel)
    report: MachineReport = field(init=False)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("a machine needs at least one core")
        self.report = MachineReport(n_cores=self.n_cores)

    def run_step(
        self,
        tasks: Sequence[SimTask],
        allocations: float = 0.0,
        retained: float = 0.0,
    ) -> StepTiming:
        """Execute one step batch in virtual time.

        ``allocations`` = objects allocated during the step,
        ``retained`` = boxed tuples currently live in Gamma (feeds the
        GC model).  Returns the step timing; the machine's clock and
        aggregate report advance accordingly.
        """
        timing = step_makespan(tasks, self.n_cores, self.calib)
        gc_tax = self.gc.step_tax(allocations, retained)
        r = self.report
        r.elapsed += timing.makespan + gc_tax
        r.busy += timing.busy
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
