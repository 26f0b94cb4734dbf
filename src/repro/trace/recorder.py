"""The trace recorder and its exporters (JSONL, Chrome trace format).

The engine owns one :class:`TraceRecorder` per traced run
(``ExecOptions(trace=True)``) and emits events through it; strategies
that perturb schedules (:class:`repro.exec.chaos.ChaosStrategy`) emit
their scheduling decisions and injected faults through the same
recorder, flagged ``meta``.  The recorder is append-only and
deterministic: event order equals emission order, and emission happens
only from the engine's sequential phases (per-task micro events are
buffered on the :class:`~repro.exec.base.TaskResult` and flushed in
submission order), so the same run always produces the same stream.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO, Any, Iterable, Sequence, Union

from repro.trace.events import TraceEvent

__all__ = ["TraceRecorder", "output_hash", "load_events", "TraceLike"]

#: anything the diff / replay helpers accept as "a trace"
TraceLike = Union["TraceRecorder", Sequence[TraceEvent], str, Path]


def output_hash(output: Iterable[str]) -> str:
    """Stable digest of a run's output lines (the byte-identity check
    carried in the ``run-end`` event)."""
    h = hashlib.sha256()
    for line in output:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class TraceRecorder:
    """Append-only event log for one engine run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        #: current engine step, stamped onto emitted events (0 = init)
        self.step: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def emit(self, kind: str, data: dict[str, Any], meta: bool = False) -> TraceEvent:
        ev = TraceEvent(
            seq=len(self.events), step=self.step, kind=kind, data=data, meta=meta
        )
        self.events.append(ev)
        return ev

    def semantic_events(self) -> list[TraceEvent]:
        return [e for e in self.events if not e.meta]

    def run_end(self) -> TraceEvent | None:
        """The run summary event, if the run completed."""
        for e in reversed(self.events):
            if e.kind == "run-end":
                return e
        return None

    # -- JSONL ------------------------------------------------------------

    def to_jsonl(self, dest: str | Path | IO[str]) -> None:
        """One JSON object per line — greppable, diffable, appendable."""
        close, fh = _open_for_write(dest)
        try:
            for e in self.events:
                fh.write(json.dumps(e.to_json(), sort_keys=True))
                fh.write("\n")
        finally:
            if close:
                fh.close()

    @classmethod
    def from_jsonl(cls, src: str | Path | IO[str]) -> "TraceRecorder":
        rec = cls()
        close, fh = _open_for_read(src)
        try:
            for line in fh:
                line = line.strip()
                if line:
                    rec.events.append(TraceEvent.from_json(json.loads(line)))
        finally:
            if close:
                fh.close()
        if rec.events:
            rec.step = rec.events[-1].step
        return rec

    # -- Chrome trace format ----------------------------------------------

    def to_chrome(self, dest: str | Path | IO[str]) -> None:
        """Export as Chrome trace-event JSON (load in ``chrome://tracing``
        or Perfetto).  Steps become frames on track 0; tasks become
        duration slices whose length is their metered cost (work units
        stand in for microseconds); faults become instant events."""
        trace_events: list[dict[str, Any]] = []
        cursor = 0.0          # global virtual clock, in work units
        task_slot = 0
        step_frames: dict[int, tuple[float, float]] = {}
        for e in self.events:
            if e.kind == "step":
                task_slot = 0
                step_frames.setdefault(e.step, (cursor, cursor))
            elif e.kind == "task":
                dur = max(float(e.data.get("cost", 0.0)), 0.001)
                trace_events.append(
                    {
                        "name": str(e.data.get("trigger", "task")),
                        "cat": "task",
                        "ph": "X",
                        "pid": 0,
                        "tid": 1 + task_slot % 8,
                        "ts": round(cursor, 3),
                        "dur": round(dur, 3),
                        "args": {"step": e.step, "fired": e.data.get("fired", [])},
                    }
                )
                lo, hi = step_frames.get(e.step, (cursor, cursor))
                step_frames[e.step] = (lo, max(hi, cursor + dur))
                cursor += dur
                task_slot += 1
            elif e.kind == "fault":
                trace_events.append(
                    {
                        "name": f"fault:{e.data.get('fault', '?')}",
                        "cat": "chaos",
                        "ph": "i",
                        "s": "g",
                        "pid": 0,
                        "tid": 0,
                        "ts": round(cursor, 3),
                        "args": dict(e.data),
                    }
                )
        for step, (lo, hi) in sorted(step_frames.items()):
            trace_events.append(
                {
                    "name": f"step {step}",
                    "cat": "step",
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": round(lo, 3),
                    "dur": round(max(hi - lo, 0.001), 3),
                }
            )
        doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        close, fh = _open_for_write(dest)
        try:
            fh.write(json.dumps(doc))  # one C-encoder call, not iterencode
        finally:
            if close:
                fh.close()


def load_events(trace: TraceLike) -> list[TraceEvent]:
    """Normalise any accepted trace form to a list of events."""
    if isinstance(trace, TraceRecorder):
        return list(trace.events)
    if isinstance(trace, (str, Path)):
        return TraceRecorder.from_jsonl(trace).events
    return list(trace)


def _open_for_write(dest: str | Path | IO[str]) -> tuple[bool, IO[str]]:
    if isinstance(dest, (str, Path)):
        return True, open(dest, "w", encoding="utf-8")
    return False, dest


def _open_for_read(src: str | Path | IO[str]) -> tuple[bool, IO[str]]:
    if isinstance(src, (str, Path)):
        return True, open(src, "r", encoding="utf-8")
    return False, src
