"""Compiled rule plans: the zero-overhead hot path.

The paper's generated Java embeds every query's field positions and
access paths at compile time (§5); this package recovers that advantage
for the interpreted engine.  See :mod:`repro.plan.cache` for the query
plan cache, :mod:`repro.plan.compile` for the per-shape compiler, and
:mod:`repro.plan.timestamps` for compiled orderby evaluation and the
static put-causality proofs, and :mod:`repro.plan.codegen` for the
freeze()-time rule-body compiler.  Every ``RuleContext`` query goes
through this layer; the generic :func:`repro.core.query.build_query`
runs once per shape (its validation still applies) and is the reference
the plan compiler is tested against.
"""

from repro.plan.cache import PlanCache
from repro.plan.compile import CompiledBound, CompiledQueryPlan
from repro.plan.timestamps import CompiledTimestamper

__all__ = [
    "PlanCache",
    "CompiledQueryPlan",
    "CompiledBound",
    "CompiledTimestamper",
]
