"""Text reports over run statistics and machine accounts.

The profiling companion of §2's workflow stages 3–4: after a run,
print per-table usage, per-rule firings, and the virtual-machine time
breakdown (busy / contention / GC / overhead) that guides strategy and
data-structure choices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simcore.machine import MachineReport
from repro.stats.collector import StatsCollector

if TYPE_CHECKING:  # pragma: no cover — avoids a circular import with the engine
    from repro.core.engine import RunResult

__all__ = [
    "format_table_stats",
    "format_rule_stats",
    "format_machine",
    "format_settles",
    "format_nodes",
    "run_report",
]


def _table_text(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def format_table_stats(stats: StatsCollector) -> str:
    headers = ["table", "puts", "dups", "delta", "bypass", "gamma", "queries", "results"]
    rows = []
    for name, t in stats.summary_rows():
        rows.append(
            [
                name,
                str(t.puts),
                str(t.duplicates),
                str(t.delta_inserts),
                str(t.delta_bypass),
                str(t.gamma_inserts),
                str(t.queries),
                str(t.results),
            ]
        )
    return _table_text(headers, rows)


def format_rule_stats(stats: StatsCollector) -> str:
    headers = ["rule", "firings", "puts", "output"]
    rows = [
        [name, str(r.firings), str(r.puts), str(r.output_lines)]
        for name, r in sorted(stats.rules.items())
    ]
    return _table_text(headers, rows)


def format_machine(report: MachineReport) -> str:
    d = report.as_dict()
    return (
        f"virtual machine: {d['n_cores']} cores, elapsed {d['elapsed']:.1f} wu\n"
        f"  busy {d['busy']:.1f}  contention {d['contention']:.1f}  "
        f"gc {d['gc_time']:.1f}  overhead {d['overhead']:.1f}\n"
        f"  steps {d['steps']}  tasks {d['tasks']}  max batch {d['max_batch']}  "
        f"utilisation {d['utilisation']:.1%}"
    )


def format_settles(settles: list[dict]) -> str:
    """Per-settle frontier/fire deltas of an incremental session run."""
    headers = ["settle", "fed", "steps", "fires", "puts", "output", "max width"]
    rows = [
        [
            str(s.get("settle", i + 1)),
            str(s.get("fed", 0)),
            str(s.get("steps", 0)),
            str(s.get("fires", 0)),
            str(s.get("puts", 0)),
            str(s.get("output_lines", 0)),
            str(s.get("max_width", 0)),
        ]
        for i, s in enumerate(settles)
    ]
    return _table_text(headers, rows)


def format_nodes(nodes: list[dict]) -> str:
    """Per-node compute and measured wire traffic of a multiprocess
    sharded run (:mod:`repro.dist.procrun`) — control plane (msgs /
    sent B / recv B, coordinator↔worker: every tuple) and peer plane
    (peer columns, worker↔worker: ``q`` frames answered / sent, and the
    reads they carried — answered by another node, and of those the
    ones a step's one exchange had fetched) separately."""
    headers = [
        "node",
        "fires",
        "puts",
        "served",
        "remote q",
        "probes",
        "planned",
        "msgs",
        "sent B",
        "recv B",
        "peer msgs",
        "peer sent B",
        "peer recv B",
        "recovered",
    ]
    rows = [
        [
            str(n.get("node", i)),
            str(n.get("fires", 0)),
            str(n.get("puts", 0)),
            str(n.get("queries_served", 0)),
            str(n.get("remote_queries", 0)),
            str(n.get("probes_remote", 0)),
            str(n.get("probes_planned", 0)),
            str(n.get("msgs", 0)),
            str(n.get("bytes_sent", 0)),
            str(n.get("bytes_recv", 0)),
            str(n.get("peer_msgs", 0)),
            str(n.get("peer_bytes_sent", 0)),
            str(n.get("peer_bytes_recv", 0)),
            str(n.get("recovered", 0)),
        ]
        for i, n in enumerate(nodes)
    ]
    return _table_text(headers, rows)


def run_report(result: "RunResult") -> str:
    """Full post-run report (the paper's per-run log)."""
    parts = [
        f"program {result.program!r} under {result.strategy} "
        f"(threads={result.threads}): {result.steps} steps, "
        f"wall {result.wall_time * 1e3:.1f} ms",
    ]
    if result.stats.notes:
        parts.append(
            "notes:\n" + "\n".join(f"  - {n}" for n in result.stats.notes)
        )
    fp = result.stats.frontier_profile()
    if fp["steps"]:
        parts.append(
            f"frontier: mean width {fp['mean']:.2f}, max {fp['max']}, "
            f"{fp['singletons']}/{fp['steps']} singleton steps"
        )
    if len(result.stats.settles) > 1:
        parts.append(format_settles(result.stats.settles))
    if result.stats.faults:
        counts = ", ".join(
            f"{k}={n}" for k, n in sorted(result.stats.faults.items())
        )
        parts.append(f"injected faults: {counts}")
    st = result.stats
    if st.retractions or st.rederivations:
        line = (
            f"retraction: {st.retractions} tuples retracted, "
            f"{st.rederivations} triggers rederived"
        )
        if st.grown_checks:
            line += (
                f"; grown-result checks: {st.grown_checks} new tuples, "
                f"{st.grown_candidates / st.grown_checks:.2f} candidate "
                f"firings per check, {st.grown_doomed} invalidated"
            )
        parts.append(line)
    if result.report is not None:
        parts.append(format_machine(result.report))
    if getattr(result, "nodes", None):
        parts.append(format_nodes(result.nodes))
    parts.append(format_table_stats(result.stats))
    if result.stats.rules:
        parts.append(format_rule_stats(result.stats))
    return "\n\n".join(parts)
