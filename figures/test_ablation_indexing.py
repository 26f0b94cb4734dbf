"""Ablation — rule-driven secondary indexing (``index_mode="auto"``).

§1.4's late commitment to data structures: the programs stay untouched
while the planner reads each rule's query shapes and attaches hash /
sorted indexes to the Gamma tables they probe.  This bench runs the two
query-heavy workloads — Fig 12's Dijkstra (Edge probed per settled
vertex) and Fig 8's PvWatts (per-month aggregation queries) — with
indexing off and auto, on otherwise *default* stores (no §6.5 / §6.2
hand overrides: the point is what the planner buys unaided), and
reports the virtual-time lookup ledger for both.

Determinism is asserted here too (byte-identical output), but the
exhaustive strategy × threads × index-mode matrix lives in
``tests/integration/test_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import run_pvwatts
from repro.apps.shortestpath import GraphSpec, run_shortestpath
from repro.core import ExecOptions
from repro.stats import index_report

SPEC = GraphSpec(n_vertices=2000, extra_edges=4000)


def _lookup_ledger(result) -> dict[str, float]:
    """The parts of the virtual-time bill that indexing can move."""
    m = result.meter
    return {
        "lookup": m.cost_by_prefix("gamma_lookup:"),
        "ixlookup": m.cost_by_prefix("gamma_ixlookup:"),
        "insert": m.cost_by_prefix("gamma_insert:"),
        "total": m.total_cost,
    }


def _ablate(run):
    off = run(ExecOptions(index_mode="off"))
    auto = run(ExecOptions(index_mode="auto"))
    assert auto.output_text() == off.output_text()
    assert auto.table_sizes == off.table_sizes
    return off, auto


def _format(name: str, off, auto) -> str:
    a, b = _lookup_ledger(off), _lookup_ledger(auto)
    select_off = a["lookup"] + a["ixlookup"]
    select_auto = b["lookup"] + b["ixlookup"]
    lines = [
        f"{name}",
        f"  select cost   off {select_off:10.1f}   auto {select_auto:10.1f}"
        f"   ({1 - select_auto / select_off:+.0%})",
        f"    as lookup        {a['lookup']:10.1f}        {b['lookup']:10.1f}",
        f"    as ixlookup      {a['ixlookup']:10.1f}        {b['ixlookup']:10.1f}",
        f"  insert cost   off {a['insert']:10.1f}   auto {b['insert']:10.1f}"
        f"   (index maintenance)",
        f"  total cost    off {a['total']:10.1f}   auto {b['total']:10.1f}",
    ]
    for rep in index_report(auto):
        usage = ", ".join(f"{k}={v}" for k, v in sorted(rep.usage.items()))
        lines.append(f"  index usage [{rep.table}] {usage} (hit rate {rep.hit_rate:.0%})")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def dijkstra():
    return _ablate(lambda o: run_shortestpath(SPEC, o))


@pytest.fixture(scope="module")
def pvwatts(csv_by_month):
    return _ablate(lambda o: run_pvwatts(csv_by_month, o, n_readers=8))


def test_ablation_wall(benchmark):
    benchmark.pedantic(
        lambda: run_shortestpath(SPEC, ExecOptions(index_mode="auto")),
        rounds=2,
        warmup_rounds=1,
    )


def test_ablation_report(benchmark, dijkstra, pvwatts, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    blocks = [
        _format("dijkstra |V|=2000 (default stores)", *dijkstra),
        _format("pvwatts 1yr by-month (default stores)", *pvwatts),
    ]
    emit(
        "ablation_indexing",
        "### Ablation — secondary indexing off vs auto (virtual-time cost)\n"
        + "\n\n".join(blocks),
    )

    for off, auto in (dijkstra, pvwatts):
        a, b = _lookup_ledger(off), _lookup_ledger(auto)
        # the planner's indexes measurably cut the select bill...
        assert b["lookup"] + b["ixlookup"] < a["lookup"] + a["ixlookup"]
        # ...and the off-mode run builds no indexes at all
        assert a["ixlookup"] == 0.0
        assert index_report(off) == []

    # every planned index earns its keep: hits, never a full-scan fallback
    for _, auto in (dijkstra, pvwatts):
        reports = index_report(auto)
        assert reports, "auto mode planned no indexes"
        for rep in reports:
            assert rep.hit_rate == 1.0, rep


def test_dijkstra_auto_approaches_hand_tuned_edge_store(dijkstra):
    """§6.5 hand-tunes Edge with a hash index keyed on src; the planner
    must derive the same access path, pricing Edge probes at hash cost
    rather than tree-walk cost."""
    _, auto = dijkstra
    reports = {rep.table: rep for rep in index_report(auto)}
    assert "Edge" in reports
    assert reports["Edge"].usage.get("hash(src)", 0) > 0
