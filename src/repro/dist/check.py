"""Static locality analysis of a placement (§2 stage 3's design aid).

Before committing to a distribution, the programmer wants to know which
queries stay on-node, which route to a single remote owner, and which
degenerate into broadcast gathers — the same way the paper's stage 2/3
tooling surfaces dependency structure before benchmarking.  Rule
metadata (derived from each rule's body, :mod:`repro.plan.analyse`)
makes this static: for every symbolic query under a placement,

* ``local``      — replicated table, or the bound partition value
  provably equals the trigger's partition value (co-located);
* ``routed``     — partition field bound: exactly one owner answers;
* ``broadcast``  — partition field unbound: every node is asked;
* ``unknown``    — analysis refused the rule's body (the detail says
  why).

An aid and nothing else: no run consults it — a shard routes a query by
the value it binds, trusting no rule's metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.program import Program
from repro.dist.placement import OnNode, PlacementMap, Partitioned
from repro.solver.obligations import RuleMeta

__all__ = ["QueryLocality", "check_locality", "locality_summary"]


def locality_summary(findings: list["QueryLocality"]) -> dict[str, int]:
    """Verdict → count over a set of findings — the one-line shape of a
    placement's query plan (how much of the workload stays local, how
    much routes, how much degenerates into broadcast gathers).  Used by
    reports and tests to assert a placement's wire behaviour without
    enumerating every finding."""
    out: dict[str, int] = {}
    for f in findings:
        out[f.verdict] = out.get(f.verdict, 0) + 1
    return out


@dataclass(frozen=True)
class QueryLocality:
    rule: str
    table: str
    verdict: str  # local | routed | broadcast | unknown
    detail: str

    def __repr__(self) -> str:
        return f"<{self.rule} -> {self.table}: {self.verdict} ({self.detail})>"


def _describe(placement, verdict: str) -> str:
    if verdict == "local":
        return "replicated"
    if isinstance(placement, OnNode):
        return f"pinned to node {placement.node}"
    if verdict == "routed":
        return f"binds partition field {placement.field!r}"
    return f"partition field {placement.field!r} unbound"


def _classify_observed(
    rule: str, pm: PlacementMap, shapes: list[tuple[str, tuple[str, ...]]]
) -> list[QueryLocality]:
    """Classify an unanalysable rule's *observed* query shapes (gathered by
    :class:`~repro.stats.collector.StatsCollector` during a profiling
    run) — one finding per query, with the real table name."""
    findings = []
    for table, eq_fields in shapes:
        verdict = pm.query_verdict(table, eq_fields)
        detail = f"{_describe(pm[table], verdict)} (observed query)"
        findings.append(QueryLocality(rule, table, verdict, detail))
    return findings


def check_locality(
    program: Program,
    placements: PlacementMap | dict | None = None,
    observed=None,
) -> list[QueryLocality]:
    """Classify every statically-known query under a placement.

    A rule whose body analysis refuses cannot be classified statically;
    pass ``observed`` (a :class:`~repro.stats.collector.StatsCollector`
    from a profiling run, or its ``rule_query_shapes`` mapping) to
    classify the queries such rules actually performed — one finding
    per observed query shape, with the real table name."""
    program.freeze()
    pm = (
        placements
        if isinstance(placements, PlacementMap)
        else PlacementMap(program.schemas(), placements)
    )
    observed_shapes = getattr(observed, "rule_query_shapes", observed) or {}
    by_rule: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for (rule_name, table, eq_fields, _rng) in observed_shapes:
        by_rule.setdefault(rule_name, []).append((table, eq_fields))
    findings: list[QueryLocality] = []
    for rule in program.rules:
        meta = rule.meta
        if not isinstance(meta, RuleMeta):
            shapes = by_rule.get(rule.name)
            if shapes:
                findings.extend(_classify_observed(rule.name, pm, shapes))
            else:
                findings.append(
                    QueryLocality(
                        rule.name,
                        rule.trigger.schema.name,
                        "unknown",
                        f"body not analysed: {rule.analysis().refusal}",
                    )
                )
            continue
        trig_schema = meta.trigger_schema
        trig_placement = pm[trig_schema.name]
        trig_part_term = None
        if isinstance(trig_placement, Partitioned):
            trig_part_term = meta.trigger.get(trig_placement.field)
        for branch in meta.branches:
            for q in branch.queries:
                name = q.schema.name
                placement = pm[name]
                verdict = pm.query_verdict(name, q.bound)
                detail = _describe(placement, verdict)
                if (
                    verdict == "routed"
                    and trig_part_term is not None
                    and isinstance(placement, Partitioned)
                    and q.bound[placement.field] == trig_part_term
                ):
                    # the one refinement only the static form can make:
                    # the bound value provably is the trigger's own
                    verdict = "local"
                    detail = f"co-partitioned on {placement.field!r} with the trigger"
                findings.append(QueryLocality(rule.name, name, verdict, detail))
    return findings
