"""Run statistics and dependency graphs (§1.5 logging subsystem)."""

from repro._lazy import lazy_exports
from repro.stats.advisor import (
    IndexReport,
    Recommendation,
    advise,
    index_report,
    overrides_from,
    recommend_indexes,
)
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
    "IndexReport",
    "advise",
    "overrides_from",
    "index_report",
    "recommend_indexes",
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
