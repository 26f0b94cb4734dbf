"""Execution strategies and cost metering (§5 parallelisation strategies)."""

from repro.exec.base import EngineTask, MachineStrategy, Strategy, TaskResult
from repro.exec.chaos import ChaosFault, ChaosStrategy, FaultPlan
from repro.exec.metering import CostMeter
from repro.exec.threads import ThreadStrategy

__all__ = [
    "EngineTask",
    "Strategy",
    "TaskResult",
    "ChaosFault",
    "ChaosStrategy",
    "FaultPlan",
    "MachineStrategy",
    "ThreadStrategy",
    "CostMeter",
]
