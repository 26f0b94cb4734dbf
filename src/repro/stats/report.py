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


def _table_text(columns: dict[str, str], records: list[dict]) -> str:
    """``records`` as an aligned text table: one column per key of
    ``columns``, under its header."""
    headers = list(columns.values())
    rows = [[str(r[key]) for key in columns] for r in records]
    widths = [max(map(len, cells)) for cells in zip(headers, *rows)]

    def fmt(row: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

    return "\n".join(map(fmt, [headers, ["-" * w for w in widths], *rows]))


def format_table_stats(stats: StatsCollector) -> str:
    columns = {
        "table": "table", "puts": "puts", "duplicates": "dups", "delta_inserts": "delta",
        "delta_bypass": "bypass", "gamma_inserts": "gamma", "queries": "queries",
        "results": "results",
    }
    tables, _rules = stats.totals()
    return _table_text(columns, [{"table": name, **t} for name, t in sorted(tables.items())])


def format_rule_stats(stats: StatsCollector) -> str:
    columns = {"rule": "rule", "firings": "firings", "puts": "puts", "output_lines": "output"}
    _tables, rules = stats.totals()
    return _table_text(columns, [{"rule": name, **r} for name, r in sorted(rules.items())])


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
    columns = {
        "settle": "settle", "fed": "fed", "steps": "steps", "fires": "fires",
        "puts": "puts", "output_lines": "output", "max_width": "max width",
    }
    return _table_text(columns, settles)


def format_nodes(nodes: list[dict]) -> str:
    """Per-node compute and measured wire traffic of a multiprocess
    sharded run (:mod:`repro.dist.procrun`) — control plane (msgs /
    sent B / recv B, coordinator↔worker: every tuple) and peer plane
    (peer columns, worker↔worker: ``q`` frames answered / sent, and the
    reads they carried — answered by another node, and of those the
    ones a step's one exchange had fetched) separately."""
    from repro.dist.network import NODE_COUNTERS  # here: repro.dist imports the engine

    own = {key: key for key in ("node", "fires", "puts")}
    return _table_text({**own, **NODE_COUNTERS, "recovered": "recovered"}, nodes)


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
