"""One differential over the backends of the superstep coordinator.

The sequential engine, the cost-model backend (``run_distributed``) and
the worker mesh (``run_sharded``) run the same program under the same
placement and must agree on everything the program computes: output
bytes, table sizes, step count and per-rule fire/put counts.  Placement
is a hint (§2 stage 3), so the matrix sweeps it generically over each
program's own tables — default, everything replicated, every table
pinned round-robin, every table partitioned on its *last* hashable field
(which unbinds most queries' partition field) — on 1-4 nodes."""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core.program import ExecOptions
from repro.dist import OnNode, Partitioned, PlacementMap, Replicated
from repro.dist import run_distributed, run_sharded
from tests.dist.test_dist import (
    broadcast_program,
    counter_program,
    remote_probe_program,
)


def _pvwatts(csv: bytes):
    small = b"\n".join(csv.split(b"\n")[:600]) + b"\n"
    return build_pvwatts_program({"large1000.csv": small}, "large1000.csv", 2).program


PROGRAMS = {
    "counter": lambda csv: counter_program(),
    "remote-probe": lambda csv: remote_probe_program()[0],
    "broadcast": lambda csv: broadcast_program()[0],
    "shortestpath": lambda csv: build_shortestpath_program(GraphSpec(40, 60, 3), 4).program,
    "pvwatts": _pvwatts,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["default", "replicated", "pinned", "mispartitioned"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_backends_agree_with_sequential(name, kind, n, pvwatts_csv):
    build = PROGRAMS[name]
    seq = build(pvwatts_csv).run(ExecOptions())
    program = build(pvwatts_csv)
    placements = _placements(kind, program, n)
    sim = run_distributed(program, n_nodes=n, placements=placements)
    mesh = run_sharded(build(pvwatts_csv), n_workers=n, placements=placements)

    assert sim.output == seq.output, "cost-model backend output diverged"
    assert mesh.output == seq.output, "mesh backend output diverged"
    assert mesh.table_sizes == seq.table_sizes
    assert sim.steps == mesh.steps == seq.steps
    assert _rule_counts(sim.stats) == _rule_counts(mesh.stats) == _rule_counts(seq.stats)
    # the simulated shards jointly hold exactly the control replica
    pm = PlacementMap(program.schemas(), placements, n_nodes=n)
    for table, total in seq.table_sizes.items():
        copies = n if isinstance(pm[table], Replicated) else 1
        assert sim.table_total(table) == total * copies, table


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
