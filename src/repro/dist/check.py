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

An aid and nothing else: a shard routes a query by the value it binds,
and the read plans a run derives from the same metadata only decide how
early a row is fetched, never which row a rule sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.program import Program
from repro.dist.placement import OnNode, PlacementMap
from repro.dist.readplan import read_plan
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
    #: why a read that leaves its node is a round trip of its own and
    #: not part of its class's one exchange: analysis-refused |
    #: opaque-key | generator-not-local (None: its plan predicts it)
    reason: str | None = None

    @property
    def exchange(self) -> str | None:
        """How a routed / broadcast read travels: ``per-step`` or
        ``per-probe``; None for the other verdicts."""
        if self.verdict not in ("routed", "broadcast"):
            return None
        return "per-probe" if self.reason else "per-step"

    def __repr__(self) -> str:
        how = f", {self.exchange}" if self.exchange else ""
        return f"<{self.rule} -> {self.table}: {self.verdict}{how} ({self.detail})>"


def _describe(placement, verdict: str) -> str:
    if verdict == "local":
        return "replicated"
    if isinstance(placement, OnNode):
        return f"pinned to node {placement.node}"
    if verdict == "routed":
        return f"binds partition field {placement.field!r}"
    return f"partition field {placement.field!r} unbound"


def check_locality(
    program: Program,
    placements: PlacementMap | dict | None = None,
    observed=None,
) -> list[QueryLocality]:
    """Classify every statically-known query under a placement, and say
    how each read that leaves its node will travel — what the sharded
    tier's read plans (:mod:`repro.dist.readplan`) make of the rule.

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
    findings: list[QueryLocality] = []
    for rule in program.rules:
        if not isinstance(rule.meta, RuleMeta):
            shapes = [(t, eq) for (name, t, eq, _rng) in observed_shapes if name == rule.name]
            for table, eq_fields in shapes:
                verdict = pm.query_verdict(table, eq_fields)
                detail = f"{_describe(pm[table], verdict)} (observed query)"
                reason = None if verdict == "local" else "analysis-refused"
                findings.append(QueryLocality(rule.name, table, verdict, detail, reason))
            if not shapes:
                detail = f"body not analysed: {rule.analysis().refusal}"
                findings.append(
                    QueryLocality(rule.name, rule.trigger.schema.name, "unknown", detail)
                )
        for site in read_plan(rule, pm):
            table = site.schema.name
            detail = _describe(pm[table], site.verdict)
            if site.colocated:
                # the one refinement only the static form can make: the
                # bound value provably is the trigger's own
                detail = f"co-partitioned on {pm[table].field!r} with the trigger"
            reason = None if site.verdict == "local" else site.reason
            findings.append(QueryLocality(rule.name, table, site.verdict, detail, reason))
    return findings
