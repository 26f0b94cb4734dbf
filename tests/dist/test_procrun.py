"""Multiprocess shard runtime (repro.dist.procrun): byte-identical
differential matrix against the sequential engine, crash recovery,
wiring, and cross-process determinism of the placement hash.

When ``DIST_TRACE_DIR`` is set, the node-tagged traces of a diverging
pair are dumped there as JSONL for offline ``trace_diff`` (CI uploads
the directory as an artifact on failure)."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.errors import EngineError
from repro.core.kernel import StepKernel
from repro.core.program import ExecOptions, Program
from repro.apps.median import run_median
from repro.apps.pvwatts import build_pvwatts_program, run_pvwatts
from repro.apps.sensors import build_sensor_program, run_sensors
from repro.apps.ship import build_ship_program, run_ship
from repro.apps.shortestpath import (
    GraphSpec,
    build_shortestpath_program,
    run_shortestpath,
)
from repro.csvio.synth import generate_csv_bytes
from repro.dist.placement import OnNode, Partitioned, PlacementMap, Replicated
from repro.dist.procrun import ProcessShardRuntime, run_sharded
from repro.stats.report import format_nodes, run_report
from repro.trace.diff import trace_diff

SPEC = GraphSpec(90, 140, 3)


@pytest.fixture(scope="module")
def small_csv() -> bytes:
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    return b"\n".join(lines[:1500]) + b"\n"


def counter_program(limit: int = 10) -> Program:
    p = Program("counter")
    T = p.table("T", "int n", orderby=("Int", "seq n"))
    Log = p.table("Log", "int n", orderby=("Out", "seq n"))
    p.order("Int", "Out")

    @p.foreach(T)
    def step(ctx, t):
        if t.n < limit:
            ctx.put(T.new(t.n + 1))
        ctx.put(Log.new(t.n))

    @p.foreach(Log)
    def report(ctx, entry):
        ctx.println(f"log {entry.n}")

    p.put(T.new(0))
    return p


def _dump_traces(ref, got, label):
    trace_dir = os.environ.get("DIST_TRACE_DIR")
    if not trace_dir or ref.trace is None or got.trace is None:
        return
    out = pathlib.Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    slug = label.replace(" ", "-")
    ref.trace.to_jsonl(out / f"{slug}-sequential.jsonl")
    got.trace.to_jsonl(out / f"{slug}-sharded.jsonl")


def _assert_identical(ref, got, label):
    try:
        assert ref.output_text() == got.output_text(), f"{label}: output diverged"
        assert ref.table_sizes == got.table_sizes, f"{label}: table sizes diverged"
        if ref.trace is not None and got.trace is not None:
            d = trace_diff(ref.trace, got.trace)
            assert d is None, f"{label}: trace diverged: {d}"
    except AssertionError:
        _dump_traces(ref, got, label)
        raise


# -- the differential matrix: every app x {2,4} workers x placements --------


class TestDifferentialMatrix:
    """§1.3 across machines: the sharded run is byte-identical to the
    sequential engine — output, table sizes, and the semantic trace."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_ship(self, n_workers):
        ref = run_ship(ExecOptions(trace=True))
        got = run_ship(ExecOptions(strategy="processes", threads=n_workers, trace=True))
        _assert_identical(ref, got, f"ship x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_pvwatts(self, small_csv, n_workers):
        ref = run_pvwatts(small_csv, ExecOptions(trace=True), n_readers=2)
        got = run_pvwatts(
            small_csv,
            ExecOptions(strategy="processes", threads=n_workers, trace=True),
            n_readers=2,
        )
        _assert_identical(ref, got, f"pvwatts x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_shortestpath(self, n_workers):
        ref = run_shortestpath(SPEC, ExecOptions(trace=True), n_gen_tasks=4)
        got = run_shortestpath(
            SPEC,
            ExecOptions(strategy="processes", threads=n_workers, trace=True),
            n_gen_tasks=4,
        )
        _assert_identical(ref, got, f"shortestpath x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sensors(self, n_workers):
        ref = run_sensors(n_ticks=12, n_sensors=4, options=ExecOptions(trace=True))
        got = run_sensors(
            n_ticks=12,
            n_sensors=4,
            options=ExecOptions(strategy="processes", threads=n_workers, trace=True),
        )
        _assert_identical(ref, got, f"sensors x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_ship_explicit_replication(self, n_workers):
        p, _ = build_ship_program()
        ref = p.run(ExecOptions(trace=True))
        p2, _ = build_ship_program()
        placements = {name: Replicated() for name in p2.schemas()}
        got = run_sharded(
            p2,
            ExecOptions(
                strategy="processes", threads=n_workers, trace=True, placements=placements
            ),
        )
        _assert_identical(ref, got, f"ship replicated x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_shortestpath_explicit_mixed_placement(self, n_workers):
        ref = run_shortestpath(SPEC, ExecOptions(trace=True), n_gen_tasks=4)
        handles = build_shortestpath_program(SPEC, 4)
        # deliberately adversarial: results pinned, edges everywhere,
        # estimates sharded on a *different* field than the default
        placements = {
            "Done": OnNode(0),
            "Edge": Replicated(),
            "Estimate": Partitioned("distance"),
        }
        got = run_sharded(
            handles.program,
            ExecOptions(
                strategy="processes", threads=n_workers, trace=True, placements=placements
            ),
        )
        _assert_identical(ref, got, f"shortestpath mixed x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_pvwatts_explicit_pinned(self, small_csv, n_workers):
        ref = run_pvwatts(small_csv, ExecOptions(trace=True), n_readers=2)
        handles = build_pvwatts_program(
            {"large1000.csv": small_csv}, "large1000.csv", 2
        )
        placements = {"PvWatts": Partitioned("month"), "SumMonth": OnNode(1)}
        got = run_sharded(
            handles.program,
            ExecOptions(
                strategy="processes", threads=n_workers, trace=True, placements=placements
            ),
        )
        _assert_identical(ref, got, f"pvwatts pinned x{n_workers}")

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sensors_explicit(self, n_workers):
        ref = run_sensors(n_ticks=12, n_sensors=4, options=ExecOptions(trace=True))
        handles = build_sensor_program(12, 4)
        placements = {"Reading": Partitioned("sensor")}
        got = run_sharded(
            handles.program,
            ExecOptions(
                strategy="processes", threads=n_workers, trace=True, placements=placements
            ),
        )
        _assert_identical(ref, got, f"sensors explicit x{n_workers}")


# -- crash recovery ----------------------------------------------------------


class TestCrashRecovery:
    def test_killed_worker_recovers_identically(self):
        ref = counter_program().run(ExecOptions())
        got = run_sharded(counter_program(), ExecOptions(threads=2), fault_kill=(1, 4))
        _assert_identical(ref, got, "counter kill")
        assert got.nodes is not None
        assert got.nodes[1]["recovered"] == 1
        assert any(
            (n.code, n.subject) == ("worker.restarted", "1") and "step 4" in n.text
            for n in got.stats.note_records
        )

    def test_kill_node_zero_during_remote_query_traffic(self):
        ref = run_shortestpath(SPEC, ExecOptions(), n_gen_tasks=4)
        handles = build_shortestpath_program(SPEC, 4)
        got = run_sharded(
            handles.program,
            ExecOptions(strategy="processes", threads=2),
            fault_kill=(0, 6),
        )
        _assert_identical(ref, got, "shortestpath kill")
        assert got.nodes[0]["recovered"] == 1

    def test_recovery_survives_trace_comparison(self):
        ref = counter_program().run(ExecOptions(trace=True))
        got = run_sharded(
            counter_program(),
            ExecOptions(strategy="processes", threads=2, trace=True),
            fault_kill=(0, 3),
        )
        _assert_identical(ref, got, "counter kill traced")


# -- wiring and guard rails --------------------------------------------------


class TestWiring:
    def test_program_run_accepts_processes_strategy(self):
        ref = counter_program().run(ExecOptions())
        got = counter_program().run(ExecOptions(strategy="processes", threads=2))
        _assert_identical(ref, got, "Program.run processes")
        assert got.strategy == "processes"
        assert got.threads == 2
        assert got.nodes is not None and len(got.nodes) == 2

    def test_step_kernel_builds_the_sharded_tier(self):
        """``strategy="processes"`` is a strategy like any other: the
        kernel builds the tier around its backend, and nothing forks
        before the session goes live."""
        import multiprocessing

        from repro.dist.superstep import ShardedExecutor

        kernel = StepKernel(counter_program(), ExecOptions(strategy="processes", threads=2))
        assert isinstance(kernel.executor, ShardedExecutor)
        assert kernel.strategy.n_threads == 2 and kernel.options.metering == "off"
        assert multiprocessing.active_children() == []
        kernel.strategy.close()

    def test_store_overrides_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(EngineError, match="store_overrides"):
            run_median(
                rng.integers(0, 1000, size=64).astype(np.float64),
                ExecOptions(strategy="processes", threads=2),
                n_regions=4,
            )

    def test_unsupported_knobs_refuse_before_any_fork(self):
        import multiprocessing

        p = counter_program()
        with pytest.raises(
            EngineError,
            match=r"invalid ExecOptions: strategy='processes', no_delta=\['T'\]",
        ):
            run_sharded(p, ExecOptions(threads=2, no_delta=frozenset({"T"})))
        assert not p._frozen
        assert multiprocessing.active_children() == []
        # metering="off" is what the sharded tier does anyway: honoured,
        # silent — as is every default
        for eo in (ExecOptions(threads=2), ExecOptions(threads=2, metering="off")):
            assert run_sharded(counter_program(), eo).stats.notes == []

    def test_max_steps_enforced(self):
        with pytest.raises(EngineError, match="max_steps=3"):
            run_sharded(
                counter_program(),
                ExecOptions(strategy="processes", threads=2, max_steps=3),
            )

    def test_node_summaries_and_report(self):
        got = run_sharded(counter_program(), ExecOptions(threads=2))
        assert sum(n["fires"] for n in got.nodes) == sum(
            r.firings for r in got.stats.rules.values()
        )
        assert all(n["bytes_sent"] > 0 and n["bytes_recv"] > 0 for n in got.nodes)
        text = format_nodes(got.nodes)
        assert "recovered" in text and "node" in text
        assert format_nodes(got.nodes) in run_report(got)

    def test_database_and_require_database(self):
        got = run_sharded(counter_program(), ExecOptions(threads=2))
        db = got.require_database()
        assert db.table_sizes() == got.table_sizes

    def test_single_worker_degenerate_cluster(self):
        ref = counter_program().run(ExecOptions())
        got = run_sharded(counter_program(), ExecOptions(threads=1))
        _assert_identical(ref, got, "counter x1")


# -- cross-process determinism of the placement hash -------------------------

_HASH_PROBE = """
import json, sys
from repro.dist.placement import Partitioned, _stable_hash
values = json.loads(sys.stdin.read())
part = Partitioned("k")
out = []
for v in values:
    row = {"hash": _stable_hash(v)}
    for n in (2, 3, 4, 7):
        row[str(n)] = part.home_for_value(v, n)
    out.append(row)
print(json.dumps(out))
"""


class TestCrossProcessDeterminism:
    """The placement fold must agree between the coordinator and a
    *fresh* interpreter (PYTHONHASHSEED varies per process): shard
    ownership computed anywhere is shard ownership everywhere."""

    VALUES = [
        0,
        1,
        -5,
        2**40,
        True,
        False,
        0.0,
        0.5,
        -3.25,
        1e300,
        "",
        "a",
        "vertex",
        "säntis",
    ]

    def test_stable_hash_and_home_survive_process_boundary(self):
        from repro.dist.placement import Partitioned, _stable_hash

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root
        env["PYTHONHASHSEED"] = "random"
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE],
            input=json.dumps(self.VALUES),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)
        part = Partitioned("k")
        for v, row in zip(self.VALUES, remote):
            assert row["hash"] == _stable_hash(v), f"hash diverged for {v!r}"
            for n in (2, 3, 4, 7):
                assert row[str(n)] == part.home_for_value(v, n), (
                    f"home diverged for {v!r} at n={n}"
                )


# -- placement map edge cases ------------------------------------------------


class TestPlacementValidation:
    def test_unknown_table_placement_rejected(self):
        p = counter_program()
        with pytest.raises(EngineError, match="unknown tables"):
            PlacementMap(p.schemas(), {"Nope": Replicated()}, n_nodes=2)

    def test_partitioned_unknown_field_rejected(self):
        p = counter_program()
        with pytest.raises(Exception, match="field"):
            PlacementMap(p.schemas(), {"T": Partitioned("missing")}, n_nodes=2)

    def test_partitioned_any_field_rejected(self):
        p = Program("anyprog")
        p.table("Blob", "any payload -> int n", orderby=("Int", "seq n"))
        with pytest.raises(EngineError, match="no.*stable cross-process hash"):
            PlacementMap(p.schemas(), {"Blob": Partitioned("payload")}, n_nodes=2)

    def test_default_skips_any_typed_key(self):
        p = Program("anyprog")
        p.table("Blob", "any payload -> int n", orderby=("Int", "seq n"))
        pm = PlacementMap(p.schemas(), n_nodes=2)
        # defaults fall through to the first int field, never the
        # unhashable 'any' key
        assert pm["Blob"] == Partitioned("n")

    def test_runtime_rejects_empty_cluster(self):
        with pytest.raises(EngineError, match="threads must be >= 1"):
            ProcessShardRuntime(counter_program(), ExecOptions(threads=0))

    def test_runtime_validates_pins_at_construction(self):
        """An out-of-range pin refuses when the session's kernel is
        built, before any worker forks."""
        import multiprocessing

        runtime = ProcessShardRuntime(
            counter_program(), ExecOptions(threads=2, placements={"Log": OnNode(7)})
        )
        with pytest.raises(EngineError, match=r"node 7.*2 node"):
            runtime.run()
        assert multiprocessing.active_children() == []
