"""The worker mesh (worker-to-worker routed queries, pluggable
transport): the 8-worker acceptance differential on both transports,
crash recovery with a peer query in flight, the spawn-handshake bounded
wait, and wire-counter carryover across a crash."""

from __future__ import annotations

import pytest

from repro.core.errors import EngineError, WorkerLostError
from repro.core.program import ExecOptions, Program
from repro.apps.shortestpath import (
    GraphSpec,
    build_shortestpath_program,
    run_shortestpath,
)
from repro.dist.check import check_locality, locality_summary
from repro.dist.placement import OnNode, Partitioned, Replicated
from repro.dist.procrun import run_sharded
from repro.stats.report import format_nodes
from repro.trace.diff import trace_diff

SPEC = GraphSpec(90, 140, 3)

MIXED_PLACEMENTS = {
    "Done": OnNode(0),
    "Edge": Replicated(),
    "Estimate": Partitioned("distance"),
}


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


def _assert_identical(ref, got, label):
    assert ref.output_text() == got.output_text(), f"{label}: output diverged"
    assert ref.table_sizes == got.table_sizes, f"{label}: table sizes diverged"
    if ref.trace is not None and got.trace is not None:
        d = trace_diff(ref.trace, got.trace)
        assert d is None, f"{label}: trace diverged: {d}"


# -- the acceptance criterion: 8 workers, both transports ---------------------


class TestEightWorkerMatrix:
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_shortestpath_x8_byte_identical(self, transport):
        ref = run_shortestpath(SPEC, ExecOptions(trace=True), n_gen_tasks=4)
        handles = build_shortestpath_program(SPEC, 4)
        got = run_sharded(
            handles.program,
            ExecOptions(strategy="processes", threads=8, trace=True),
            placements=MIXED_PLACEMENTS,
            transport=transport,
        )
        _assert_identical(ref, got, f"shortestpath x8 {transport}")
        assert len(got.nodes) == 8

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_counter_crash_recovery_per_transport(self, transport):
        ref = counter_program().run(ExecOptions(trace=True))
        got = run_sharded(
            counter_program(),
            ExecOptions(strategy="processes", threads=2, trace=True),
            fault_kill=(1, 4),
            transport=transport,
        )
        _assert_identical(ref, got, f"counter kill {transport}")
        assert got.nodes[1]["recovered"] == 1


# -- data plane ----------------------------------------------------------------


class TestPeerMesh:
    def test_routed_queries_travel_peer_to_peer(self):
        """With Done pinned to node 0, every other node's Done probes
        must cross the mesh — visible as peer traffic and served
        queries, while the coordinator's control plane stays free of
        query payloads (relay-era served counts lived there)."""
        handles = build_shortestpath_program(SPEC, 4)
        got = run_sharded(
            handles.program,
            ExecOptions(strategy="processes", threads=3),
            placements=MIXED_PLACEMENTS,
        )
        assert sum(n["remote_queries"] for n in got.nodes) > 0
        assert sum(n["queries_served"] for n in got.nodes) > 0
        assert all(n["peer_msgs"] > 0 for n in got.nodes)
        assert all(n["peer_bytes_sent"] > 0 for n in got.nodes)
        text = format_nodes(got.nodes)
        assert "peer msgs" in text and "peer sent B" in text


# -- crash recovery with a peer query in flight -------------------------------


class TestInFlightQueryCrash:
    def test_owner_dies_between_request_and_reply(self):
        """Kill the pinned owner of Done *while it is serving* a peer
        query (between the requester's send and the owner's reply); the
        attempt-epoch retry must still converge byte-identically."""
        ref = run_shortestpath(SPEC, ExecOptions(trace=True), n_gen_tasks=4)
        handles = build_shortestpath_program(SPEC, 4)
        got = run_sharded(
            handles.program,
            ExecOptions(strategy="processes", threads=3, trace=True),
            placements=MIXED_PLACEMENTS,
            fault_die_on_serve=(0, 3),
        )
        _assert_identical(ref, got, "in-flight query crash")
        assert got.nodes[0]["recovered"] == 1
        assert any(
            (n.code, n.subject) == ("worker.restarted", "0") for n in got.stats.note_records
        )


# -- spawn handshake (bounded hello wait) -------------------------------------


class TestSpawnHandshake:
    def test_hung_fork_is_retried(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DIST_HANG_HELLO", f"1:{tmp_path}:1")
        monkeypatch.setenv("DIST_HELLO_TIMEOUT", "0.5")
        ref = counter_program().run(ExecOptions())
        got = run_sharded(counter_program(), n_workers=2)
        assert ref.output_text() == got.output_text()
        assert len(list(tmp_path.iterdir())) == 1  # exactly one hung fork
        assert any(n.code == "worker.respawned" for n in got.stats.note_records)

    def test_permanently_hung_worker_fails_clearly(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DIST_HANG_HELLO", f"1:{tmp_path}:99")
        monkeypatch.setenv("DIST_HELLO_TIMEOUT", "0.5")
        with pytest.raises(EngineError, match="never completed the spawn handshake"):
            run_sharded(counter_program(), n_workers=2)
        assert len(list(tmp_path.iterdir())) == 3  # every fork attempt hung


# -- worker-lost error surface ------------------------------------------------


class TestWorkerLostError:
    def test_names_node_step_and_attempt(self):
        e = WorkerLostError(3, 7, 2)
        assert str(e) == "worker 3 was lost during step 7 (attempt 2)"
        assert (e.node, e.step, e.attempt) == (3, 7, 2)
        assert isinstance(e, EngineError)

    def test_bare_node(self):
        assert str(WorkerLostError(1)) == "worker 1 was lost"


# -- wire-counter carryover across a crash ------------------------------------


class TestCounterCarryover:
    def test_crashed_incarnation_traffic_survives_in_report(self):
        """The replacement starts with fresh WireStats; the coordinator
        must fold the crashed incarnation's last done-record snapshot
        into the node's totals, so a crashed node reports at least as
        much traffic as a clean run (recovery only adds messages)."""
        clean = run_sharded(counter_program(), n_workers=2)
        crashed = run_sharded(counter_program(), n_workers=2, fault_kill=(1, 6))
        assert crashed.nodes[1]["recovered"] == 1
        assert crashed.nodes[1]["msgs"] >= clean.nodes[1]["msgs"]
        # a done frame cannot include its own size in the snapshot it
        # carries, so the carried bytes run one frame behind exactness
        assert crashed.nodes[1]["bytes_sent"] >= 0.95 * clean.nodes[1]["bytes_sent"]


# -- locality summary ---------------------------------------------------------


class TestLocalitySummary:
    def test_counts_verdicts(self):
        handles = build_shortestpath_program(SPEC, 4)
        findings = check_locality(handles.program, MIXED_PLACEMENTS)
        summary = locality_summary(findings)
        assert sum(summary.values()) == len(findings)
        assert summary.get("routed", 0) > 0  # the pinned Done probes
