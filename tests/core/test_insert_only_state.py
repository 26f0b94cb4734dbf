"""An insert-only run builds no retraction state.

Retraction is one layer behind ``StepKernel._support``; with
``retraction`` off the kernel holds ``None`` there and no tier records
a firing.  ``FiringRecord`` is patched to raise, so a record built on
any insert-only path fails the run instead of costing it silently.
"""

from __future__ import annotations

import pytest

from repro.apps.sensors import build_sensor_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import ExecOptions
from repro.core.support import FiringRecord

PROGRAMS = {
    "shortestpath": lambda: build_shortestpath_program(GraphSpec(60, 180, seed=7)).program,
    "sensors": lambda: build_sensor_program(n_ticks=12, n_sensors=4).program,
}


@pytest.mark.parametrize("execution", ["scalar", "codegen"])
@pytest.mark.parametrize("app", sorted(PROGRAMS))
def test_insert_only_runs_build_no_retraction_state(app, execution, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an insert-only run built a FiringRecord")

    monkeypatch.setattr(FiringRecord, "__init__", refuse)
    program = PROGRAMS[app]()
    with program.session(ExecOptions(strategy="sequential", execution=execution)) as s:
        assert s.kernel._support is None
        s.feed(program.initial_puts)
        s.settle()
        assert s.steps > 0
        assert s.kernel._support is None
