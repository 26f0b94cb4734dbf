"""Virtual-time machine — the hardware substitute (DESIGN.md §2).

Public surface: :class:`Machine` (N cores or nodes, one step account),
:class:`SimTask` records, :class:`StepTraffic` exchanges, and the one
table of weights (:mod:`repro.simcore.costs`).
"""

from repro.simcore.costs import CLUSTER, DEFAULT_WEIGHTS, NET, NO_GC, CalibratedCosts, NetModel
from repro.simcore.machine import (
    Machine,
    MachineReport,
    SimTask,
    StepTiming,
    StepTraffic,
    lpt_makespan,
    step_makespan,
)

__all__ = [
    "CLUSTER",
    "DEFAULT_WEIGHTS",
    "NET",
    "NO_GC",
    "CalibratedCosts",
    "NetModel",
    "Machine",
    "MachineReport",
    "SimTask",
    "StepTiming",
    "StepTraffic",
    "lpt_makespan",
    "step_makespan",
]
