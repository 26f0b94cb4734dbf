"""Read plans (repro.dist.readplan) and the one exchange per class they
buy the sharded tier.

A plan is derived from a rule's body and says which rows of other
shards a firing will ask for; a shard fetches them once per class, one
``q`` / ``a`` pair per owner.  The tests pin what is derived, that a
run's result never depends on it (no plan and a wrong plan compute what
the sequential engine computes, on both backends), that a batch obeys
the ready gate and the recovery protocol like the single probe it
replaced, and that the wire counts it produces repeat exactly."""

from __future__ import annotations

import os
import pathlib
import pickle
import socket

import numpy as np
import pytest

import repro.dist.superstep as superstep
from repro.apps.matmul import build_matmul_program
from repro.apps.median import build_median_program
from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core.program import ExecOptions
from repro.dist import Partitioned, PlacementMap, check_locality, run_sharded
from repro.dist.readplan import SitePlan, read_plan
from repro.dist.transport import SocketChannel
from repro.dist.worker import ShardWorker
from repro.stats.report import format_nodes
from tests.dist.test_backend_differential import WIRE_KEYS, _agree, wide_program
from tests.dist.test_dist import broadcast_program, remote_probe_program

QUICK = GraphSpec(300, 600, 3, seed=42)


def _plans(program, placements=None) -> dict:
    """(rule, table) -> [(verdict, exchange, reason)], in body order."""
    out: dict = {}
    for f in check_locality(program, placements):
        out.setdefault((f.rule, f.table), []).append((f.verdict, f.exchange, f.reason))
    return out


# -- (a) what is derived -------------------------------------------------------


class TestDerivedPlans:
    def test_dijkstra_chain(self):
        """``Done(vertex=edge.dst)`` inside ``for edge in Edge(src=
        trig.vertex)``: the generator is re-read from the equality the
        loop variable is bound under, the key from its rows."""
        handles = build_shortestpath_program(GraphSpec(40, 60, 3), 4)
        program, Edge, Estimate = handles.program, handles.Edge, handles.Estimate
        program.freeze()
        pm = PlacementMap(program.schemas())
        dijkstra = next(r for r in program.rules if r.name == "dijkstra")
        guard, edges, probe = read_plan(dijkstra, pm)
        # the guard and the generator bind the trigger's own partition value
        assert (guard.verdict, guard.colocated) == ("local", True)
        assert (edges.verdict, edges.colocated) == ("local", True)
        assert (probe.schema.name, probe.verdict, probe.reason) == ("Done", "routed", None)
        rows = [Edge.new(7, 3, 1), Edge.new(7, 9, 2)]
        asked = []

        def read(query):
            asked.append((query.schema.name, dict(query.eq)))
            return rows

        assert probe.keys(Estimate.new(7, 5), read) == [(3,), (9,)]
        assert asked == [("Edge", {0: 7})]
        assert _plans(program)[("dijkstra", "Done")] == [
            ("local", None, None),
            ("routed", "per-step", None),
        ]

    def test_pvwatts_trigger_bound_reduce(self, pvwatts_csv):
        small = b"\n".join(pvwatts_csv.split(b"\n")[:200]) + b"\n"
        handles = build_pvwatts_program({"f.csv": small}, "f.csv", 2)
        program = handles.program
        # default: co-partitioned on year with its SumMonth trigger
        assert _plans(program)[("average_month", "PvWatts")] == [("local", None, None)]
        moved = {"PvWatts": Partitioned("month")}
        assert _plans(program, moved)[("average_month", "PvWatts")] == [
            ("routed", "per-step", None)
        ]
        pm = PlacementMap(program.schemas(), moved)
        rule = next(r for r in program.rules if r.name == "average_month")
        (site,) = read_plan(rule, pm)
        assert site.pos == (0, 1)
        assert site.keys(handles.SumMonth.new(2012, 6), lambda q: []) == [(2012, 6)]

    def test_other_apps_and_test_programs(self):
        ship = build_ship_program()[0]
        assert _plans(ship) == {}  # no query sites at all
        sensors = build_sensor_program(6, 3).program
        # Reading(trig.tick - 1, trig.sensor): linear in the trigger
        assert _plans(sensors)[("detect_spike", "Reading")] == [("routed", "per-step", None)]
        # the two native-array apps (a sharded run refuses their stores):
        # whole-table reads, and control's reads of its own iteration
        median = build_median_program(np.arange(50, dtype=float), 4).program
        assert _plans(median)[("init", "Data")] == [("broadcast", "per-step", None)]
        assert _plans(median)[("control", "Pivot")] == [("local", None, None)]
        matmul = build_matmul_program(np.ones((2, 2)), np.ones((2, 2))).program
        assert {p[0][0] for p in _plans(matmul).values()} == {"broadcast"}
        assert _plans(remote_probe_program()[0]) == {
            ("probe", "Data"): [("routed", "per-step", None)]
        }
        assert _plans(broadcast_program()[0], {"Data": Partitioned("k")}) == {
            ("agg", "Data"): [("broadcast", "per-step", None)]
        }
        # (q.k + 1) % 6 has no linear reading
        assert _plans(wide_program())[("probe", "Doc")] == [("routed", "per-probe", "opaque-key")]

    def test_generator_no_node_holds_is_refused(self):
        from repro.lang import compile_source

        program = compile_source(
            """
            table Edge(int src, int dst) orderby (Edge)
            table Mark(int v -> int d) orderby (Mark)
            table Go(int g) orderby (Go)
            order Edge < Mark < Go
            put new Go(0)
            foreach (Go g) {
              for (e : get Edge()) { println(get uniq? Mark(e.dst) == null) }
            }
            """
        )
        found = _plans(program, {"Edge": Partitioned("src")})
        assert found[("foreach_Go_0", "Edge")] == [("broadcast", "per-step", None)]
        assert found[("foreach_Go_0", "Mark")] == [("routed", "per-probe", "generator-not-local")]


# -- (b) the plan is advisory --------------------------------------------------


def _no_plans(rule, placements, verdict=None):
    return []


def _wrong_keys(self, trigger, read):
    return [tuple(v + 1 for v in key) for key in SitePlan._true_keys(self, trigger, read)]


@pytest.mark.parametrize("plans", ["none", "wrong"])
@pytest.mark.parametrize(
    "name,kind,n",
    [
        ("shortestpath", "default", 2),
        ("shortestpath", "pinned", 3),
        ("remote-probe", "default", 3),
        ("broadcast", "mispartitioned", 3),
        ("pvwatts", "mispartitioned", 2),
    ],
)
def test_result_never_depends_on_the_plan(name, kind, n, plans, pvwatts_csv, monkeypatch):
    """Workers are forked after the patch, so the mesh runs it too."""
    if plans == "none":
        monkeypatch.setattr(superstep, "read_plan", _no_plans)
    else:
        monkeypatch.setattr(SitePlan, "_true_keys", SitePlan.keys, raising=False)
        monkeypatch.setattr(SitePlan, "keys", _wrong_keys)
    # output, table sizes, steps, per-rule fire / put / query counts
    _seq, sim, mesh = _agree(name, kind, n, pvwatts_csv)
    served = sum(nd["queries_served"] for nd in mesh.nodes)
    assert sum(nd["peer_msgs"] for nd in mesh.nodes) == n * (n - 1) + 4 * served
    remote = sum(nd["probes_remote"] for nd in mesh.nodes)
    assert remote == sum(nd["probes_remote"] for nd in sim.nodes)
    if plans == "none":
        # every read that leaves its node is a round trip of its own
        planned = [sum(nd["probes_planned"] for nd in r.nodes) for r in (sim, mesh)]
        assert planned == [0, 0]
        assert sum(nd["remote_queries"] for nd in mesh.nodes) >= remote


def test_planned_reads_are_the_unplanned_ones(monkeypatch):
    """The exchange changes how many frames carry the reads, not how
    many reads leave their node."""
    planned = run_sharded(build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=2))
    monkeypatch.setattr(superstep, "read_plan", _no_plans)
    probed = run_sharded(build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=2))
    for a, b in zip(planned.nodes, probed.nodes):
        assert a["probes_remote"] == b["probes_remote"] == b["remote_queries"] > 0
        assert a["probes_planned"] == a["probes_remote"]
        assert a["remote_queries"] <= planned.steps


# -- (c) ready gating ----------------------------------------------------------


def test_batch_ahead_of_phase_a_is_deferred_whole():
    """A ``q`` frame for step N that beats the receiver's own phase A
    for N waits — all of its probes — and is then answered in one
    ``a`` frame."""
    handles = build_shortestpath_program(GraphSpec(12, 10, 3), 2)
    program, Done = handles.program, handles.Done
    program.freeze()
    pm = PlacementMap(program.schemas(), n_nodes=2)
    conf = {"check_mode": "off", "traced": False, "transport": "pipe"}
    worker = ShardWorker(0, 2, None, program, pm, conf)
    ours, theirs = (SocketChannel(s) for s in socket.socketpair())
    try:
        worker._register_peer(1, ours)
        worker.db.insert_batch([Done.new(2, 5), Done.new(4, 6)], frozenset())
        probes = {("Done", (0,), ()): {(2,): None, (3,): None, (4,): None}}
        ask = {"t": "q", "qid": "1:0:1", "node": 1, "step": 3, "attempt": 1, "probes": probes}
        worker._applied = 2
        worker._inbox.append((ours, ask))
        worker._service_inbox()
        assert list(worker._deferred) == [(ours, ask)] and not theirs.poll(0.05)
        assert worker.counters["queries_served"] == 0
        worker._applied = 3
        worker._flush_deferred()
        answer = pickle.loads(theirs.recv_bytes())
        assert answer["qid"] == "1:0:1" and answer["rows"] == [[(2, 5)], [], [(4, 6)]]
        assert not theirs.poll(0.05) and worker.counters["queries_served"] == 1
        # a requester that has gone takes its count with it
        worker._drop_peer(ours)
        worker._serve_peer(ours, ask)
        assert worker.counters["queries_served"] == 1
    finally:
        theirs.close()
        worker.listener.close()


# -- (d) recovery --------------------------------------------------------------


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_owner_dies_with_a_batch_in_flight(transport):
    ref = build_shortestpath_program(QUICK, 4).program.run(ExecOptions(trace=True))
    got = run_sharded(
        build_shortestpath_program(QUICK, 4).program,
        ExecOptions(threads=2, trace=True),
        transport=transport,
        fault_die_on_serve=(0, 12),
    )
    assert got.output_text() == ref.output_text() and got.table_sizes == ref.table_sizes
    assert got.nodes[0]["recovered"] == 1
    assert sum(nd["probes_planned"] for nd in got.nodes) > 0


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_worker_dies_between_exchange_and_firing(transport, tmp_path, monkeypatch):
    """Node 1 dies holding a fetched class it has not fired; its
    replacement must ask again — the dead attempt's rows are nobody's."""
    clean = run_sharded(
        build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=2), transport=transport
    )
    marker = tmp_path / "died"
    fire = superstep.fire_records

    def die_once(shard, *args):
        if shard._node == 1 and shard._cache and not marker.exists():
            marker.touch()
            os._exit(1)
        return fire(shard, *args)

    monkeypatch.setattr("repro.dist.worker.fire_records", die_once)
    got = run_sharded(
        build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=2), transport=transport
    )
    assert marker.exists() and got.nodes[1]["recovered"] == 1
    assert got.output_text() == clean.output_text() and got.table_sizes == clean.table_sizes
    # node 0 answered the dead attempt's q frame, and the retry's again
    served = [nd["queries_served"] for nd in clean.nodes]
    assert got.nodes[0]["queries_served"] > served[0]
    assert sum(nd["probes_remote"] for nd in got.nodes) >= sum(
        nd["probes_remote"] for nd in clean.nodes
    )


# -- (e) counts ----------------------------------------------------------------


def test_wire_counts_repeat_and_stay_under_one_exchange_per_pair():
    """Five runs of the quick shortest-path mesh case: identical
    per-node wire counts, and at most one ``q``/``a`` pair per ordered
    pair of nodes per step (4 counted frames each).  CI uploads the
    per-node table next to the divergence traces when this fails."""
    n = 2
    keys = WIRE_KEYS + ("probes_remote", "probes_planned")
    runs = [
        run_sharded(build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=n))
        for _ in range(5)
    ]
    first = runs[0]
    msgs_per_step = sum(nd["peer_msgs"] for nd in first.nodes) / first.steps
    try:
        for run in runs[1:]:
            assert [{k: nd[k] for k in keys} for nd in run.nodes] == [
                {k: nd[k] for k in keys} for nd in first.nodes
            ]
        assert msgs_per_step <= 4 * n * (n - 1)
    except AssertionError:
        trace_dir = os.environ.get("DIST_TRACE_DIR")
        if trace_dir:
            out = pathlib.Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "read-plans-nodes.txt").write_text(
                "\n\n".join(format_nodes(run.nodes) for run in runs) + "\n"
            )
        raise
    sim = run_sharded(
        build_shortestpath_program(QUICK, 4).program, ExecOptions(threads=n), transport="model"
    )
    for key in ("probes_remote", "remote_queries"):
        assert sum(nd[key] for nd in sim.nodes) == sum(nd[key] for nd in first.nodes)
