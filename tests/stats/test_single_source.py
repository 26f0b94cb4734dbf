"""A count has one home.

The collector stores the edges of the execution graph (firings, puts,
query hits) and the table events that are no edge; every per-table and
per-rule total is a sum over them.  These tests hold that spine to
account on the six apps and the benchmark's two programs:

* every derived ``tables[]`` / ``rules[]`` field equals the sum of its
  edges, recounted here from the maps alone;
* the scalar tier, the codegen tier, the cost-model backend and a
  2-worker mesh report the same ``as_dict()`` (knob-override notes
  aside — a tier that turns itself on says so);
* a snapshot taken between a feed and its settle, restored into a fresh
  session and settled there, reproduces the uninterrupted run's
  ``as_dict()``;
* a generated driver keeps counting into the plan's own cell across
  settles;
* the node counters are declared once, and that declaration is what a
  mesh run's ``nodes``, ``format_nodes`` and the crash carry all use.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench.programs import churn_program, churn_script, telemetry_factory, telemetry_script
from repro.apps.matmul import build_matmul_program
from repro.apps.median import build_median_program
from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import ExecOptions, Program
from repro.core.delta import Delete, Insert
from repro.core.errors import SchemaError
from repro.core.session import EngineSession
from repro.dist import NODE_COUNTERS, ProcessShardRuntime, run_distributed, run_sharded
from repro.dist.network import sum_counters
from repro.gamma.nativearray import NativeArrayStore, TwoIterationArrayStore
from repro.serve.protocol import decode_events
from repro.stats.report import format_nodes

# -- the eight programs: name -> () -> (program, feeds, options) -----------------
#
# ``feeds`` is the run as a session sees it: lists of events, a settle
# after each.  An app's one feed is its own initial puts.


def _app(program, **options):
    return program, None, options


def _pvwatts(csv: bytes):
    small = b"\n".join(csv.split(b"\n")[:400]) + b"\n"
    return _app(build_pvwatts_program({"f.csv": small}, "f.csv", 2).program)


def _matmul(_csv):
    a = np.arange(16, dtype=float).reshape(4, 4)
    return _app(
        build_matmul_program(a, a.T.copy(), "unboxed").program,
        store_overrides={"Matrix": lambda schema: NativeArrayStore(schema, (3, 4, 4))},
    )


def _telemetry(_csv):
    program = telemetry_factory()
    feeds = [decode_events(program.schemas(), batch) for batch in telemetry_script(7, 256)]
    return program, feeds, {}


def _churn(_csv):
    program, Edge, Estimate, _Done = churn_program()
    origin, initial, rounds = churn_script(7, 30, 90, 4)
    feeds = [[Edge.new(*e) for e in initial] + [Estimate.new(origin, 0)]]
    feeds += [
        [(Delete if op == "-" else Insert)(Edge.new(*edge)) for op, edge in events]
        for events in rounds
    ]
    return program, feeds, {"retraction": True}


CASES = {
    "ship": lambda csv: _app(build_ship_program()[0]),
    "pvwatts": _pvwatts,
    "shortestpath": lambda csv: _app(build_shortestpath_program(GraphSpec(40, 60, 3), 4).program),
    "sensors": lambda csv: _app(build_sensor_program(10, 4, seed=5).program),
    "median": lambda csv: _app(
        build_median_program(np.random.default_rng(9).random(300), 4).program,
        store_overrides={"Data": lambda schema: TwoIterationArrayStore(schema, 300)},
    ),
    "matmul": _matmul,
    "telemetry": _telemetry,
    "churn": _churn,
}
#: what refuses which leg, before any state exists (REFUSALS has the rows)
NO_CODEGEN = {"churn"}  # codegen x retraction
NO_SHARDS = {"median", "matmul", "churn", "telemetry"}  # native stores; retraction; session-fed


def _session_run(build, csv, snapshot_at: int | None = None, **extra):
    """The case through ``feed`` / ``settle``; with ``snapshot_at``, the
    session is snapshotted after that feed — before its settle — and a
    fresh one, restored from the document, finishes the run."""


    def fresh():
        program, feeds, options = build(csv)
        return program, [program.initial_puts] if feeds is None else feeds, options

    program, feeds, options = fresh()
    options = ExecOptions(**options, **extra)
    source = "<init>" if build(csv)[1] is None else "<feed>"
    session = EngineSession(program, options).open()
    for i in range(len(feeds)):
        session.feed(feeds[i], source=source)
        if i == snapshot_at:
            document = session.snapshot()
            session.close()
            # rules and tuples are the restored program's own
            program, feeds, _ = fresh()
            session = EngineSession.restore(document, program, options)
        session.settle()
    return session.close().stats


def _recount(stats) -> tuple[dict, dict]:
    """Per-table and per-rule totals from the stored maps alone."""
    tables: dict[str, dict] = {}
    rules: dict[str, dict] = {}

    def bump(into, name, field, n):
        row = into.setdefault(name, {})
        row[field] = row.get(field, 0) + n

    for (table, rule), n in stats.trigger_edges.items():
        bump(tables, table, "triggers", n)
        bump(rules, rule, "firings", n)
    for (rule, table), n in stats.put_edges.items():
        bump(tables, table, "puts", n)
        bump(rules, rule, "puts", n)
    for (_rule, table, _eq, _rng), (n_queries, n_results) in stats.query_hits.items():
        bump(tables, table, "queries", n_queries)
        bump(tables, table, "results", n_results)
    return tables, rules


def _comparable(stats) -> dict:
    d = stats.as_dict()
    del d["notes"]
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_total_is_the_sum_of_its_edges_on_every_leg(name, pvwatts_csv):
    build = CASES[name]
    legs = {"scalar": _session_run(build, pvwatts_csv)}
    if name not in NO_CODEGEN:
        legs["codegen"] = _session_run(build, pvwatts_csv, execution="codegen")
    if name not in NO_SHARDS:
        legs["sim"] = run_distributed(build(pvwatts_csv)[0], n_nodes=2).stats
        legs["mesh"] = run_sharded(build(pvwatts_csv)[0], n_workers=2).stats
    for leg, stats in legs.items():
        tables, rules = _recount(stats)
        assert set(tables) <= set(stats.tables) and set(rules) == set(stats.rules), leg
        for table, record in stats.tables.items():
            for field in ("puts", "triggers", "queries", "results"):
                assert getattr(record, field) == tables.get(table, {}).get(field, 0), (
                    leg, table, field,
                )
        for rule, record in stats.rules.items():
            for field in ("firings", "puts"):
                assert getattr(record, field) == rules[rule].get(field, 0), (leg, rule, field)
        assert stats.query_edges == {
            k[:2]: sum(h[0] for k2, h in stats.query_hits.items() if k2[:2] == k[:2])
            for k in stats.query_hits
        }, leg
        assert stats.steps == len(stats.frontier_widths), leg
    reference = _comparable(legs["scalar"])
    for leg, stats in legs.items():
        assert _comparable(stats) == reference, leg


#: stores whose contents a row dump cannot reproduce refuse the snapshot
NO_SNAPSHOT = {"median"}


@pytest.mark.parametrize("execution", ["scalar", "codegen"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_between_feed_and_settle_loses_no_count(name, execution, pvwatts_csv):
    if execution == "codegen" and name in NO_CODEGEN:
        pytest.skip("codegen refuses retraction")
    build = CASES[name]
    feeds = build(pvwatts_csv)[1]
    at = 0 if feeds is None else len(feeds) // 2
    if name in NO_SNAPSHOT:
        with pytest.raises(SchemaError):
            _session_run(build, pvwatts_csv, snapshot_at=at, execution=execution)
        return
    whole = _session_run(build, pvwatts_csv, execution=execution)
    resumed = _session_run(build, pvwatts_csv, snapshot_at=at, execution=execution)
    assert resumed.as_dict() == whole.as_dict()
    assert resumed.to_state() == whole.to_state()


def test_a_bound_driver_keeps_counting_across_settles():
    """Generated drivers bump the plan's own ``rule_hits`` cell, which
    the collector zeroes in place at every settle: ``clear()`` there
    would leave the driver counting into an orphan."""
    program = Program("probes")
    Row = program.table("Row", "int tick, int k", orderby=("Int", "seq tick", "Row"))
    Probe = program.table("Probe", "int tick", orderby=("Int", "seq tick", "Probe"))
    program.order("Row", "Probe")

    @program.foreach(Probe)
    def probe(ctx, p):
        ctx.get(Row, p.tick)

    with program.session(ExecOptions(execution="codegen")) as session:
        codes = [n.code for n in session.stats.note_records]
        assert "codegen.compiled" in codes and "codegen.kept-scalar" not in codes
        (plan,) = session.kernel._plans.plans()
        cell = plan.rule_hits["probe"]
        for tick in (1, 2, 3):
            session.feed([Row.new(tick, k) for k in range(3)] + [Probe.new(tick)])
            session.settle()
            assert plan.rule_hits["probe"] is cell and cell == [0, 0]
            assert session.stats.tables["Row"].queries == tick
            assert session.stats.tables["Row"].results == 3 * tick
    assert session.result.stats.query_edges == {("probe", "Row"): 3}


# -- the node counters ------------------------------------------------------------


@pytest.fixture(scope="module")
def mesh_runs():
    build = lambda: build_shortestpath_program(GraphSpec(40, 60, 3), 4).program  # noqa: E731
    crashed = ProcessShardRuntime(build(), n_workers=2, fault_kill=(1, 6))
    return run_sharded(build(), n_workers=2), crashed.run(), sum_counters(crashed._carry[1])


@pytest.mark.parametrize("counter", NODE_COUNTERS)
def test_node_counters_are_declared_once(counter, mesh_runs):
    """One name: a key of every ``nodes[i]``, a ``format_nodes`` column,
    and a field the coordinator sums over a node's incarnations."""
    clean, crashed, carried = mesh_runs
    header, rule, *rows = format_nodes(clean.nodes).splitlines()
    at = [h.strip() for h in _columns(header, rule)].index(NODE_COUNTERS[counter])
    for node, row in zip(clean.nodes, rows):
        assert set(node) == {"node", "fires", "puts", *NODE_COUNTERS, "recovered"}
        assert _columns(row, rule)[at].strip() == str(node[counter])
    # node 1 died at step 6: what its dead incarnation had counted by its
    # last done record is carried, by name, into what the node reports
    assert crashed.nodes[1]["recovered"] == 1
    assert carried["msgs"] > 0 and carried["bytes_recv"] > 0
    assert crashed.nodes[1][counter] >= carried[counter]
    if counter == "msgs":  # hello, peers, mesh, bootstrap: the replacement's own
        assert crashed.nodes[1][counter] >= carried[counter] + 4


def _columns(line: str, rule: str) -> list[str]:
    """Cut a ``format_nodes`` line at the column starts of its rule line."""
    starts = [i for i, c in enumerate(rule) if c == "-" and (i == 0 or rule[i - 1] == " ")]
    return [line[a:b] for a, b in zip(starts, starts[1:] + [None])]
