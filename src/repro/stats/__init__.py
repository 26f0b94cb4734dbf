"""Run statistics and dependency graphs (§1.5 logging subsystem)."""

from repro._lazy import lazy_exports
from repro.stats.advisor import Recommendation, advise, overrides_from
from repro.stats.collector import RuleStats, StatsCollector, TableStats
from repro.stats.report import (
    format_machine,
    format_rule_stats,
    format_table_stats,
    run_report,
)

# networkx loads with the first dependency graph, not with the engine
__getattr__, __dir__ = lazy_exports(
    __name__, {"depgraph": ("execution_graph", "program_graph")}
)

__all__ = [
    "Recommendation",
    "advise",
    "overrides_from",
    "StatsCollector",
    "TableStats",
    "RuleStats",
    "program_graph",
    "execution_graph",
    "run_report",
    "format_table_stats",
    "format_rule_stats",
    "format_machine",
]
