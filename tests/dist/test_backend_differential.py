"""One differential over the backends of the sharded tier.

The sequential engine, the cost-model backend (``run_distributed``) and
the worker mesh (``run_sharded``) run the same program under the same
placement and must agree on everything the program computes: output
bytes, table sizes, step count and per-rule fire/put counts.  Placement
is a hint (§2 stage 3), so the matrix sweeps it generically over each
program's own tables — default, everything replicated, every table
pinned round-robin, every table partitioned on its *last* hashable field
(which unbinds most queries' partition field) — on 1-4 nodes.

The same matrix pins what the mesh's two planes carry: tuples ride the
coordinator's step frames and done records, so the peer plane holds the
mesh handshake plus four counted frames per served query (``q`` and
``a``, each counted at both ends) and nothing else — on rows of a few
ints and on rows with a ~1 KiB string alike.  A second, short list
re-runs chosen cases traced, per transport and under a worker kill:
the cost model and the mesh tag every ``task`` / ``effect`` event with
the same node (one spread function), and a repeated mesh run reports
identical per-node wire counts."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core.errors import EngineError
from repro.core.program import ExecOptions, Program
from repro.dist import OnNode, Partitioned, PlacementMap, Replicated
from repro.dist import run_distributed, run_sharded
from repro.trace.diff import trace_diff
from tests.dist.test_dist import (
    broadcast_program,
    counter_program,
    remote_probe_program,
)


def _pvwatts(csv: bytes):
    small = b"\n".join(csv.split(b"\n")[:600]) + b"\n"
    return build_pvwatts_program({"large1000.csv": small}, "large1000.csv", 2).program


def wide_program() -> Program:
    """Rows with a ~1 KiB string field: a chain of puts carries one
    from shard to shard, and a probe per row fetches its neighbour's
    back (a routed or broadcast query wherever ``k`` is not local)."""
    p = Program("wide")
    Doc = p.table("Doc", "int k -> str body", orderby=("A", "seq k"))
    Probe = p.table("Probe", "int k", orderby=("B", "seq k"))
    p.order("A", "B")

    @p.foreach(Doc)
    def grow(ctx, doc):
        if doc.k < 5:
            ctx.put(Doc.new(doc.k + 1, doc.body[1:] + doc.body[0]))
        ctx.put(Probe.new(doc.k))

    @p.foreach(Probe)
    def probe(ctx, q):
        doc = ctx.get_uniq(Doc, k=(q.k + 1) % 6)
        ctx.println(f"{q.k}: {len(doc.body)} {doc.body[:6]}")

    p.put(Doc.new(0, "".join(chr(33 + i % 90) for i in range(1024))))
    return p


def float_partition_program() -> Program:
    """A rule puts floats a later class looks up by the equal ints:
    ``-3 == -3.0`` is one Gamma entry, so wherever ``T`` is partitioned
    on ``v`` the partition hash must send both to one node (the
    partition-on-last-field placement does; the hash used to split
    negative and >= 2**31 integral floats from their ints)."""
    p = Program("float-partition")
    Seed = p.table("Seed", "int k", orderby=("A",))
    T = p.table("T", "float v", orderby=("B",))
    Ask = p.table("Ask", "int k", orderby=("C",))
    p.order("A", "B")
    p.order("B", "C")

    @p.foreach(Seed)
    def seed(ctx, s):
        ctx.put(T.new(-3.0))
        ctx.put(T.new(float(2**40)))
        ctx.put(Ask.new(s.k))

    @p.foreach(Ask)
    def ask(ctx, a):
        ctx.println(len(ctx.get(T, v=-3)), len(ctx.get(T, v=2**40)))

    p.put(Seed.new(0))
    return p


def colocated_program() -> Program:
    """Every query binds the trigger's own partition value, so routing
    it by value reaches the firing node itself — nothing on trust, no
    rule metadata consulted at run time; the *puts* are what cross
    shards (``k`` -> ``k + 1``)."""
    p = Program("colocated")
    Cell = p.table("Cell", "int k -> int v", orderby=("A", "seq k"))
    Visit = p.table("Visit", "int k, int hop", orderby=("B", "seq hop"))
    p.order("A", "B")

    @p.foreach(Visit)
    def walk(ctx, visit):
        cell = ctx.get_uniq(Cell, k=visit.k)
        ctx.println(f"hop {visit.hop}: cell {visit.k} = {cell.v}")
        if visit.hop < 7:
            ctx.put(Visit.new(visit.k + 1, visit.hop + 1))

    for k in range(8):
        p.put(Cell.new(k, k * k))
    p.put(Visit.new(0, 0))
    return p


PROGRAMS = {
    "colocated": lambda csv: colocated_program(),
    "counter": lambda csv: counter_program(),
    "float-partition": lambda csv: float_partition_program(),
    "remote-probe": lambda csv: remote_probe_program()[0],
    "broadcast": lambda csv: broadcast_program()[0],
    "shortestpath": lambda csv: build_shortestpath_program(GraphSpec(40, 60, 3), 4).program,
    "pvwatts": _pvwatts,
    "ship": lambda csv: build_ship_program()[0],
    "wide": lambda csv: wide_program(),
}


def _placements(kind: str, program, n: int) -> dict:
    schemas = program.schemas()
    if kind == "default":
        return {}
    if kind == "replicated":
        return {name: Replicated() for name in schemas}
    if kind == "pinned":
        return {name: OnNode(i % n) for i, name in enumerate(sorted(schemas))}
    out = {}  # mis-partitioned
    for name, schema in schemas.items():
        hashable = [f.name for f in schema.fields if f.type != "any"]
        if hashable:
            out[name] = Partitioned(hashable[-1])
    return out


def _rule_counts(stats) -> dict:
    return {name: (r.firings, r.puts, r.output_lines) for name, r in stats.rules.items()}


def _query_counts(stats) -> tuple:
    """The read side of a run's stats.  Every tier counts a query on
    the plan that served it, so where the shards' counts come home from
    (in-process plan caches, a worker's ``bye``) must not show."""
    return (
        {name: (t.queries, t.results) for name, t in stats.tables.items()},
        stats.query_edges,
        stats.rule_query_shapes,
    )


def _agree(name, kind, n, csv, *, trace=False, **mesh_kw):
    """Run one case on the sequential engine, the cost model and the
    mesh, check everything the program computes, and hand the three
    results back for what a caller pins on top."""
    build = PROGRAMS[name]
    seq = build(csv).run(ExecOptions(trace=trace))
    program = build(csv)
    placements = _placements(kind, program, n)
    sim = run_distributed(
        program, n_nodes=n, placements=placements, exec_options=ExecOptions(trace=trace)
    )
    mesh = run_sharded(
        build(csv), ExecOptions(trace=trace), n_workers=n, placements=placements, **mesh_kw
    )

    assert sim.output == seq.output, "cost-model backend output diverged"
    assert mesh.output == seq.output, "mesh backend output diverged"
    assert mesh.table_sizes == seq.table_sizes
    assert sim.steps == mesh.steps == seq.steps
    assert _rule_counts(sim.stats) == _rule_counts(mesh.stats) == _rule_counts(seq.stats)
    assert _query_counts(sim.stats) == _query_counts(mesh.stats) == _query_counts(seq.stats)
    # the simulated shards jointly hold exactly the control replica
    pm = PlacementMap(program.schemas(), placements, n_nodes=n)
    for table, total in seq.table_sizes.items():
        copies = n if isinstance(pm[table], Replicated) else 1
        assert sim.table_total(table) == total * copies, table
    return seq, sim, mesh


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["default", "replicated", "pinned", "mispartitioned"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_backends_agree_with_sequential(name, kind, n, pvwatts_csv):
    _seq, _sim, mesh = _agree(name, kind, n, pvwatts_csv)
    # peer plane = queries only: past the mesh handshake (one hello per
    # pair, counted at both ends) every frame is a served query's q or a
    served = sum(nd["queries_served"] for nd in mesh.nodes)
    assert sum(nd["peer_msgs"] for nd in mesh.nodes) == n * (n - 1) + 4 * served
    if kind == "replicated":
        assert served == 0  # every node holds every row
    if (name, kind) == ("colocated", "default"):
        # every query's home is the node that fires it, so only the
        # handshake crosses the mesh — while the firings, and the puts
        # that chain them, visit every node
        assert served == 0
        assert all(nd["fires"] for nd in mesh.nodes)


#: per-node counts that must repeat from run to run of one program on
#: one transport (``bench/run.py`` books a difference as a failed
#: operation)
WIRE_KEYS = (
    "msgs",
    "bytes_sent",
    "bytes_recv",
    "peer_msgs",
    "peer_bytes_sent",
    "peer_bytes_recv",
    "queries_served",
    "remote_queries",
)


def _node_tags(trace) -> list:
    return [(e.kind, e.data["node"]) for e in trace.events if e.kind in ("task", "effect")]


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
@pytest.mark.parametrize(
    "name,kind,n,fault_kill",
    [
        ("shortestpath", "default", 2, None),  # the benchmark's shape
        ("shortestpath", "replicated", 3, None),  # every fire node is a spread
        ("ship", "replicated", 3, None),
        ("wide", "mispartitioned", 3, None),
        ("wide", "default", 2, (1, 3)),
        ("shortestpath", "pinned", 3, (0, 5)),
    ],
    ids=lambda v: "kill" if isinstance(v, tuple) else "clean" if v is None else None,
)
def test_mesh_places_like_the_cost_model_and_repeats_its_wire_counts(
    name, kind, n, fault_kill, transport, pvwatts_csv
):
    seq, sim, mesh = _agree(
        name, kind, n, pvwatts_csv, trace=True, transport=transport, fault_kill=fault_kill
    )
    assert trace_diff(seq.trace, sim.trace) is None
    assert trace_diff(seq.trace, mesh.trace) is None
    assert _node_tags(sim.trace) == _node_tags(mesh.trace)
    # one step loop emits every backend's bookends (the cost model used
    # to open on its first ``admit``)
    for run in (seq, sim, mesh):
        kinds = [e.kind for e in run.trace.events]
        assert (kinds[0], kinds[-1]) == ("run-start", "run-end")
    if fault_kill is not None:
        assert mesh.nodes[fault_kill[0]]["recovered"] == 1
        return  # recovery traffic depends on where the kill landed
    program = PROGRAMS[name](pvwatts_csv)
    again = run_sharded(
        program,
        ExecOptions(trace=True),
        n_workers=n,
        placements=_placements(kind, program, n),
        transport=transport,
    )
    wire = [{k: nd[k] for k in WIRE_KEYS} for nd in mesh.nodes]
    assert [{k: nd[k] for k in WIRE_KEYS} for nd in again.nodes] == wire


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_max_steps_overrun_raises_the_kernels_error(transport):
    """The sequential engine, the cost model and the mesh stop a
    diverging program with one error from one place, and the mesh
    leaves no worker behind."""
    opts = ExecOptions(max_steps=5)
    with pytest.raises(EngineError) as seq:
        counter_program(limit=50).run(opts)
    assert "exceeded max_steps=5" in str(seq.value)
    for run in (
        lambda: run_distributed(counter_program(limit=50), n_nodes=2, exec_options=opts),
        lambda: run_sharded(counter_program(limit=50), opts, n_workers=2, transport=transport),
    ):
        with pytest.raises(EngineError) as err:
            run()
        assert str(err.value) == str(seq.value)
    assert multiprocessing.active_children() == []


def test_routing_is_resolved_per_query_shape_not_per_query(monkeypatch):
    """A shard takes the placement's verdict when a query shape
    compiles — once per (shard, table, constrained positions), warmed
    shapes included — and never while a rule runs: the count does not
    grow with the graph (it used to be taken for every routed query)."""
    calls = []
    verdict = PlacementMap.query_verdict

    def counted(self, table, eq_fields):
        calls.append((table, tuple(eq_fields)))
        return verdict(self, table, eq_fields)

    monkeypatch.setattr(PlacementMap, "query_verdict", counted)
    taken = []
    for spec in (GraphSpec(40, 60, 3), GraphSpec(80, 160, 3)):
        del calls[:]
        sim = run_distributed(build_shortestpath_program(spec, 4).program, n_nodes=2)
        assert sim.remote_queries > len(calls)
        # two range variants of Done(vertex) share one (table, eq) pair
        assert len(calls) <= 2 * 2 * len(set(calls))
        taken.append(sorted(calls))
    assert taken[0] == taken[1]


def test_broadcast_gather_is_in_single_node_value_order():
    """An unbound-partition-field ``ctx.get`` returns rows in value
    order on every backend, not in shard order (the cost-model backend
    used to concatenate shards: ``0,4,1,5,2,6,3,7`` on 4 nodes)."""
    placements = {"Data": Partitioned("k")}
    seq = broadcast_program()[0].run(ExecOptions()).output
    assert seq == ["0,1,2,3,4,5,6,7"]
    sim = run_distributed(broadcast_program()[0], n_nodes=4, placements=placements)
    mesh = run_sharded(broadcast_program()[0], n_workers=4, placements=placements)
    assert sim.output == seq
    assert mesh.output == seq
