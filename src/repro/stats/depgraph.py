"""Dependency graphs of program execution (the Figs 7/9 views).

§1.5: the logging system comes with "tools to visualise those logs as
annotated dependency graphs of the program execution".  Fig 7 is
exactly such a graph for PvWatts: table nodes (blue rectangles), rule
nodes (red circles), bold trigger edges, plus read/put edges.

Two graphs are offered:

* :func:`program_graph` — the *static* structure, from the metadata
  derived from each rule's body (trigger table → rule; rule → put
  tables; queried tables → rule);
* :func:`execution_graph` — the *observed* structure from a
  :class:`~repro.stats.collector.StatsCollector`, annotated with firing
  / tuple / query counts (the "useful basis for choosing
  parallelisation strategies").

Both return ``networkx.DiGraph`` with node attribute ``kind`` ∈
{"table", "rule"} and edge attribute ``kind`` ∈ {"trigger", "put",
"read"}; :mod:`repro.viz` renders them.
"""

from __future__ import annotations

import networkx as nx

from repro.core.program import Program
from repro.stats.collector import StatsCollector

__all__ = ["program_graph", "execution_graph"]


def _table_node(g: nx.DiGraph, name: str) -> str:
    node = f"table:{name}"
    if node not in g:
        g.add_node(node, kind="table", label=name)
    return node


def _rule_node(g: nx.DiGraph, name: str) -> str:
    node = f"rule:{name}"
    if node not in g:
        g.add_node(node, kind="rule", label=name)
    return node


def program_graph(program: Program) -> nx.DiGraph:
    """Static table/rule graph.  A rule whose body analysis refuses
    contributes only its trigger edge."""
    from repro.solver.obligations import RuleMeta  # local: optional dep

    g = nx.DiGraph(name=program.name)
    for name in program.tables:
        _table_node(g, name)
    for rule in program.rules:
        rn = _rule_node(g, rule.name)
        g.add_edge(_table_node(g, rule.trigger.schema.name), rn, kind="trigger")
        meta = rule.meta
        if isinstance(meta, RuleMeta):
            for branch in meta.branches:
                for p in branch.puts:
                    g.add_edge(rn, _table_node(g, p.schema.name), kind="put")
                for q in branch.queries:
                    g.add_edge(
                        _table_node(g, q.schema.name), rn, kind="read",
                        query_kind=q.kind.value,
                    )
    return g


def execution_graph(stats: StatsCollector, name: str = "run") -> nx.DiGraph:
    """Observed graph, annotated with counts from a finished run."""
    g = nx.DiGraph(name=name)
    tables, rules = stats.totals()
    for tname, ts in tables.items():
        g.nodes[_table_node(g, tname)].update(ts)
    for rname, rs in rules.items():
        g.nodes[_rule_node(g, rname)].update(firings=rs["firings"], rule_puts=rs["puts"])
    for (tname, rname), n in stats.trigger_edges.items():
        g.add_edge(_table_node(g, tname), _rule_node(g, rname), kind="trigger", count=n)
    for (rname, tname), n in stats.put_edges.items():
        g.add_edge(_rule_node(g, rname), _table_node(g, tname), kind="put", count=n)
    for (rname, tname), n in stats.query_edges.items():
        g.add_edge(_table_node(g, tname), _rule_node(g, rname), kind="read", count=n)
    return g
