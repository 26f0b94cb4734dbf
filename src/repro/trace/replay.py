"""Trace replay: re-execute a recorded schedule exactly.

Fuzzing is only useful if a failing seed is reproducible.  A traced
chaos run records every scheduling decision — per-batch execution
order, interleaving picks, fault assignments — as ``sched`` meta
events; :class:`ReplaySchedule` parses them back and
:class:`TraceReplayer` re-runs the program with a scripted
:class:`~repro.exec.chaos.ChaosStrategy` that follows the recording
decision-for-decision instead of drawing fresh randomness.  For the
deterministic strategies a replay is simply a re-run under the recorded
options.  Either way, :meth:`TraceReplayer.verify` then diffs the two
traces *including* the meta events, proving the schedule itself — not
just the output — was reproduced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import EngineError
from repro.exec.chaos import ChaosStrategy, FaultPlan
from repro.trace.diff import Divergence, trace_diff
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceLike, load_events

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import RunResult
    from repro.core.program import ExecOptions, Program

__all__ = ["ReplayError", "ReplaySchedule", "TraceReplayer"]


class ReplayError(EngineError):
    """The trace cannot drive a replay (missing events, divergence)."""


class ReplaySchedule:
    """The chaos decisions of one recorded run, indexed by batch."""

    def __init__(self, events: list[TraceEvent]):
        self._batches: dict[int, dict] = {}
        for e in events:
            if e.kind == "sched":
                self._batches[int(e.data["batch"])] = e.data

    def __len__(self) -> int:
        return len(self._batches)

    def decisions_for(
        self, batch: int, n: int
    ) -> tuple[str, list[int], dict[int, str], dict[int, int]]:
        """(mode, order, faults, raise points) recorded for ``batch``;
        raises :class:`ReplayError` when the replayed run has diverged
        from the recording (different batch count or width)."""
        d = self._batches.get(batch)
        if d is None:
            raise ReplayError(
                f"no recorded schedule for batch {batch}: the replayed run "
                "has more steps than the recording"
            )
        if int(d["n"]) != n:
            raise ReplayError(
                f"batch {batch} width diverged: recorded {d['n']} tasks, "
                f"replay produced {n}"
            )
        faults = {int(k): str(v) for k, v in d.get("faults", {}).items()}
        points = {int(k): int(v) for k, v in d.get("fault_points", {}).items()}
        return str(d["mode"]), [int(i) for i in d["order"]], faults, points

    def picks_for(self, batch: int) -> list[int]:
        d = self._batches.get(batch)
        if d is None:
            raise ReplayError(f"no recorded schedule for batch {batch}")
        return [int(i) for i in d.get("picks", [])]


class TraceReplayer:
    """Re-execute a recorded run and check it lands on the same history.

    ``trace`` may be a :class:`~repro.trace.recorder.TraceRecorder`, a
    list of events, or a JSONL path.  The caller supplies the
    :class:`~repro.core.program.Program` (rule bodies are Python
    closures — they cannot live inside the trace) plus any
    non-serialisable base options (store overrides etc.); the replayer
    overrides the schedule-relevant fields from the recorded
    ``run-start`` configuration.
    """

    def __init__(self, trace: TraceLike):
        self.events = load_events(trace)
        starts = [e for e in self.events if e.kind == "run-start"]
        if not starts:
            raise ReplayError("trace has no run-start event; was tracing on?")
        self.config = dict(starts[0].data)

    # -- option reconstruction ---------------------------------------------

    def options(self, base: "ExecOptions | None" = None) -> "ExecOptions":
        """The recorded execution options, layered over ``base``."""
        from repro.core.program import ExecOptions

        opts = base if base is not None else ExecOptions()
        fp = self.config.get("fault_plan")
        return opts.with_(
            strategy=self.config["strategy"],
            threads=int(self.config.get("threads", 1)),
            chaos_seed=self.config.get("chaos_seed"),
            fault_plan=FaultPlan.from_dict(fp) if fp else None,
            trace=True,
        )

    # -- execution ----------------------------------------------------------

    def replay(
        self, program: "Program", base_options: "ExecOptions | None" = None
    ) -> "RunResult":
        """Run ``program`` under the recorded schedule; returns the
        replay's :class:`~repro.core.engine.RunResult` (with its own
        trace attached, for diffing)."""
        from repro.core.engine import Engine

        opts = self.options(base_options)
        if opts.strategy == "chaos":
            strategy = ChaosStrategy(
                seed=opts.chaos_seed or 0,
                fault_plan=opts.fault_plan,
                script=ReplaySchedule(self.events),
            )
            engine = Engine(program, opts, strategy=strategy)
        else:
            engine = Engine(program, opts)
        return engine.run()

    def verify(
        self, program: "Program", base_options: "ExecOptions | None" = None
    ) -> Divergence | None:
        """Replay and diff against the recording — *including* the
        scheduling meta events, so a verified replay reproduced the
        exact schedule, not merely the same output."""
        result = self.replay(program, base_options)
        assert result.trace is not None
        return trace_diff(self.events, result.trace, include_meta=True)
