"""Record → replay: a traced run can be re-executed decision-for-decision."""

from __future__ import annotations

import pytest

from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.core import ExecOptions
from repro.core.errors import EngineError
from repro.exec.chaos import FaultPlan
from repro.trace import ReplayError, ReplaySchedule, TraceRecorder, TraceReplayer

FAULTS = FaultPlan(raise_prob=0.2, duplicate_prob=0.2, delay_prob=0.2)


def _record(program, **opt_kw):
    return program.run(ExecOptions(trace=True, **opt_kw))


class TestReplay:
    def test_chaos_run_replays_exactly(self):
        rec = _record(
            build_ship_program()[0], strategy="chaos", chaos_seed=7, fault_plan=FAULTS
        )
        assert TraceReplayer(rec.trace).verify(build_ship_program()[0]) is None

    def test_interleaved_chaos_run_replays_exactly(self):
        # sensors batches are 4 wide: the interleave mode and its pick
        # sequence must replay, not just the batch order
        rec = _record(
            build_sensor_program(10, 4).program,
            strategy="chaos",
            chaos_seed=5,
            fault_plan=FAULTS,
        )
        replayer = TraceReplayer(rec.trace)
        assert replayer.verify(build_sensor_program(10, 4).program) is None

    def test_replay_is_byte_identical(self):
        rec = _record(
            build_sensor_program(10, 4).program, strategy="chaos", chaos_seed=3
        )
        result = TraceReplayer(rec.trace).replay(build_sensor_program(10, 4).program)
        assert result.output_text() == rec.output_text()
        assert result.table_sizes == rec.table_sizes
        assert result.steps == rec.steps

    def test_sequential_run_replays(self):
        rec = _record(build_ship_program()[0])
        replayer = TraceReplayer(rec.trace)
        assert replayer.options().strategy == "sequential"
        assert replayer.verify(build_ship_program()[0]) is None

    def test_replay_from_jsonl_file(self, tmp_path):
        rec = _record(build_ship_program()[0], strategy="chaos", chaos_seed=1)
        path = tmp_path / "run.jsonl"
        rec.trace.to_jsonl(path)
        assert TraceReplayer(str(path)).verify(build_ship_program()[0]) is None


class TestReplayErrors:
    def test_trace_without_run_start_is_rejected(self):
        with pytest.raises(ReplayError, match="run-start"):
            TraceReplayer(TraceRecorder())

    def test_wrong_program_is_detected(self):
        rec = _record(
            build_ship_program()[0], strategy="chaos", chaos_seed=7, fault_plan=FAULTS
        )
        with pytest.raises(EngineError):
            TraceReplayer(rec.trace).replay(build_sensor_program(10, 4).program)

    def test_schedule_width_mismatch(self):
        rec = _record(build_sensor_program(8, 4).program, strategy="chaos", chaos_seed=2)
        sched = ReplaySchedule(list(rec.trace.events))
        assert len(sched) > 0
        with pytest.raises(ReplayError, match="width"):
            sched.decisions_for(1, 999)
        with pytest.raises(ReplayError, match="no recorded schedule"):
            sched.decisions_for(10_000, 1)
