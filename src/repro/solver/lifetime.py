"""Automated tuple-lifetime analysis (§5 step 4's missing automation).

Paper: "If program analysis makes it possible to determine that this
tuple can never participate in future queries, then it can be removed
from the Gamma database and garbage collected.  Currently, this
program analysis is not automated, so we simply retain all tuples, or
use manual lifetime hints from the user."

This module automates the common case.  Call a table *clocked* when its
orderby is ``(Lit, seq f, ...)`` — its level-1 ``seq`` field advances
with the program's causal time.  If **every** query against a clocked
table ``T`` binds ``T``'s clock to ``trigger_clock + c`` with ``c ≤ 0``
(a bounded lookback), then a ``T`` tuple whose clock lags the table's
maximum by more than ``max(-c)`` can never be returned by any future
query: future triggers have clocks ≥ the tuples already seen (the
Delta order guarantees nondecreasing trigger clocks), so every future
probe lands within the lookback window.  The sound hint is therefore
``RetentionHint(f, max_lookback + 1)``.

Soundness requires seeing *all* queries, so the analysis demands
symbolic metadata (:class:`~repro.solver.obligations.RuleMeta`) on
every rule — derived from each body by :mod:`repro.plan.analyse`; a
rule whose body that analysis refuses must be explicitly vouched for
via ``trusted_no_query_rules``.  Any query we cannot fit the pattern
disqualifies its table.  (Pruning by the table's own maximum clock,
as the engine's hints do, is more conservative than pruning by the
global clock — it only ever keeps extra tuples.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.core.ordering import Lit, Seq
from repro.core.program import Program, RetentionHint
from repro.core.schema import TableSchema
from repro.solver.obligations import RuleMeta
from repro.solver.terms import Term

__all__ = ["clock_field", "suggest_retention"]


def clock_field(schema: TableSchema) -> str | None:
    """The table's clock: the field of the first orderby level that is
    ``seq``, provided only literals precede it."""
    for entry in schema.orderby:
        if isinstance(entry, Lit):
            continue
        if isinstance(entry, Seq):
            return entry.field
        return None  # par level before any seq: no usable clock
    return None


def _constant_lookback(bound: Term, trig_clock: Term) -> Fraction | None:
    """If ``bound == trig_clock + c`` for a constant ``c``, return
    ``c``; otherwise None."""
    diff = bound - trig_clock
    if diff.is_constant():
        return diff.constant
    return None


def suggest_retention(
    program: Program,
    trusted_no_query_rules: Iterable[str] = (),
) -> dict[str, RetentionHint]:
    """Derive sound :class:`RetentionHint`\\ s for a program's tables.

    Returns hints only for tables the analysis can prove safe; an empty
    dict means "retain everything", never an unsound hint.
    """
    program.freeze()
    trusted = set(trusted_no_query_rules)

    # gather all queries per table; bail out entirely if any rule is
    # opaque (it could query anything)
    metas: list[RuleMeta] = []
    for rule in program.rules:
        if isinstance(rule.meta, RuleMeta):
            metas.append(rule.meta)
        elif rule.name in trusted:
            continue
        else:
            return {}

    # per-table: None = disqualified, else max lookback seen so far
    lookback: dict[str, Fraction] = {}
    disqualified: set[str] = set()

    for meta in metas:
        trig_schema = meta.trigger_schema
        trig_clock_field = clock_field(trig_schema)
        trig_clock = (
            meta.trigger.get(trig_clock_field) if trig_clock_field else None
        )
        for branch in meta.branches:
            for q in branch.queries:
                name = q.schema.name
                if name in disqualified:
                    continue
                f = clock_field(q.schema)
                if f is None or trig_clock is None:
                    disqualified.add(name)
                    continue
                bound = q.bound.get(f)
                if bound is None:
                    # the clock is unbounded (or only range-bounded via
                    # the constraints callback — treated conservatively)
                    disqualified.add(name)
                    continue
                c = _constant_lookback(bound, trig_clock)
                if c is None or c > 0:
                    # not trigger-aligned, or probes the future (the
                    # causality checker flags the latter separately)
                    disqualified.add(name)
                    continue
                back = -c
                if name not in lookback or back > lookback[name]:
                    lookback[name] = back

    hints: dict[str, RetentionHint] = {}
    for name, back in lookback.items():
        if name in disqualified:
            continue
        schema = program.tables[name].schema
        f = clock_field(schema)
        assert f is not None
        keep = int(back) + 1 if back == int(back) else int(back) + 2
        hints[name] = RetentionHint(f, keep_last=keep)
    return hints
