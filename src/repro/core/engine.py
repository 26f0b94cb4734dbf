"""The one-shot engine facade over the step kernel (§3, §5, Fig 3).

Historically this module *was* the engine: one monolithic ``run`` that
did initial puts, the step loop, stats folding, and the run-end trace
event in a single breath.  That machinery now lives in two places:

* :class:`repro.core.kernel.StepKernel` — the step mechanism (pop the
  minimal class, fire, apply effects, statistics, retention);
* :class:`repro.core.session.EngineSession` — the lifecycle (open,
  incremental ``feed``/``settle``, checkpoint/restore, close).

:class:`Engine` remains the stable single-shot entry point:
``Engine(program, options).run()`` is exactly
``open -> feed(initial puts) -> settle -> close`` on a private session,
and is what ``Program.run`` drives.  Callers that want to stream input,
settle incrementally, or checkpoint mid-run should use
``Program.session`` / :class:`~repro.core.session.EngineSession`
directly.
"""

from __future__ import annotations

from repro.core.errors import EngineError
from repro.core.kernel import FeedReport, RunResult, StepKernel
from repro.core.program import ExecOptions, Program
from repro.exec.base import Strategy

__all__ = ["RunResult", "FeedReport", "Engine"]


class Engine:
    """One single-shot execution of one program under one set of options."""

    def __init__(
        self,
        program: Program,
        options: ExecOptions,
        strategy: Strategy | None = None,
    ):
        self.kernel = StepKernel(program, options, strategy)
        self._ran = False

    # construction helpers kept as Engine attributes — the replayer and
    # store-tuning paths call them without an Engine instance
    _make_strategy = staticmethod(StepKernel._make_strategy)
    _make_registry = staticmethod(StepKernel._make_registry)
    _index_plan = staticmethod(StepKernel._index_plan)

    # -- delegated views (tests and tools reach into these) -------------------

    @property
    def program(self) -> Program:
        return self.kernel.program

    @property
    def options(self) -> ExecOptions:
        return self.kernel.options

    @property
    def strategy(self) -> Strategy:
        return self.kernel.strategy

    @property
    def db(self):
        return self.kernel.db

    @property
    def delta(self):
        return self.kernel.delta

    @property
    def stats(self):
        return self.kernel.stats

    @property
    def tracer(self):
        return self.kernel.tracer

    @property
    def output(self) -> list[str]:
        return self.kernel.output

    @property
    def meter(self):
        return self.kernel.meter

    @property
    def _plans(self):
        return self.kernel._plans

    @property
    def _metered(self) -> bool:
        return self.kernel._metered

    # -- run -------------------------------------------------------------

    def run(self) -> RunResult:
        if self._ran:
            raise EngineError(
                "an Engine instance can only run once; construct a fresh "
                "Engine, or use EngineSession (open/feed/settle/close) for "
                "incremental, resumable execution"
            )
        self._ran = True
        from repro.core.session import EngineSession

        session = EngineSession(self.program, _kernel=self.kernel)
        with session:
            session.feed(self.program.initial_puts, source="<init>")
            session.settle()
        return session.result
