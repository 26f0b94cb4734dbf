"""Program-level static causality check — the paper's SMT pass.

§4: "We use SMT solvers ... to check that each rule is consistent with
the programmer-supplied causality ordering. ... If the SMT solver
cannot prove one of these theorems, the relevant statement is marked
with a warning message, and the programmer is strongly recommended to
change the program."

:func:`check_program` walks every rule:

* a rule's :class:`~repro.solver.obligations.RuleMeta` — derived from
  its body by :mod:`repro.plan.analyse`, or its ``meta=`` override —
  has its obligations generated and discharged;
* rules marked ``assume_stratified`` are recorded as accepted-by-
  programmer (the paper's workflow when the prover fails but manual
  reasoning justifies the rule);
* a rule whose body analysis refuses is reported as unchecked, with
  the refusal reason.

:func:`check_cover` is what ``Program.freeze()`` holds a ``meta=``
override to: the sites body analysis finds must all be declared.

``strict=True`` turns any unproved obligation into a
:class:`~repro.core.errors.StratificationError` — the hard failure the
paper shows for the PvWatts program when the ``order`` declaration is
omitted (§6.1: "a Stratification error would be displayed").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ProgramError, StratificationError, StratificationWarning
from repro.core.program import Program
from repro.core.rules import Rule
from repro.solver.obligations import (
    Invariant,
    Obligation,
    RuleMeta,
    generate_obligations,
)

__all__ = ["RuleFinding", "CheckReport", "check_program", "check_cover"]


@dataclass(slots=True)
class RuleFinding:
    """Per-rule outcome of the static pass."""

    rule: str
    status: str  # "proved" | "failed" | "assumed" | "unchecked"
    obligations: list[Obligation] = field(default_factory=list)
    #: why body analysis refused (rules without derived metadata)
    reason: str = ""

    @property
    def failed_obligations(self) -> list[Obligation]:
        return [o for o in self.obligations if not o.proved]


@dataclass(slots=True)
class CheckReport:
    """Whole-program result."""

    findings: list[RuleFinding]

    @property
    def all_proved(self) -> bool:
        return all(f.status in ("proved", "assumed") for f in self.findings)

    def by_status(self, status: str) -> list[RuleFinding]:
        return [f for f in self.findings if f.status == status]

    def summary(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f"{f.rule}: {f.status}" + (f" ({f.reason})" if f.reason else ""))
            for o in f.failed_obligations:
                lines.append(f"  UNPROVED [{o.kind}] {o.description} — {o.reason}")
        return "\n".join(lines)


def check_program(
    program: Program,
    invariants: Mapping[str, Invariant] | None = None,
    strict: bool = False,
    prover: str | None = None,
) -> CheckReport:
    """Run the static causality pass over a program (see module doc).
    ``prover`` selects the decision procedure: "fourier-motzkin"
    (default), "simplex", or "cross-check" (§1.5's alternative SMT
    connections)."""
    program.freeze()
    findings: list[RuleFinding] = []
    for rule in program.rules:
        meta = rule.meta
        if isinstance(meta, RuleMeta):
            obs = generate_obligations(
                rule.name, meta, program.decls, invariants, prover=prover
            )
            unproved = [o for o in obs if not o.proved]
            if not unproved:
                findings.append(RuleFinding(rule.name, "proved", obs))
                continue
            if rule.assume_stratified:
                findings.append(RuleFinding(rule.name, "assumed", obs))
                continue
            findings.append(RuleFinding(rule.name, "failed", obs))
            msg = (
                f"rule {rule.name}: {len(unproved)} causality obligation(s) "
                f"unproved; first: {unproved[0].description} — {unproved[0].reason}"
            )
            if strict:
                raise StratificationError(msg)
            warnings.warn(msg, StratificationWarning, stacklevel=2)
        else:
            status = "assumed" if rule.assume_stratified else "unchecked"
            findings.append(
                RuleFinding(rule.name, status, reason=rule.analysis().refusal or "")
            )
    return CheckReport(findings)


def check_cover(rule: Rule) -> None:
    """An explicit ``meta=`` must *cover* its body: every query site
    (table, kind, eq-bound fields) and put site (table) analysis finds
    must be declared — a meta that says less than the body does plans
    indexes and placements for a rule that does not exist.  Declaring
    more is allowed, and so is a body analysis refuses."""
    body = rule.analysis()
    if body.meta is None:
        return
    branches = rule.meta.branches
    queries = {
        (q.schema.name, q.kind, tuple(sorted(q.bound))) for b in branches for q in b.queries
    }
    puts = {p.schema.name for b in branches for p in b.puts}
    missing = [
        (s, f"{s.kind.value} query ctx.{s.flavor}({s.handle.name}) binding {list(s.eq_fields())}")
        for s in body.query_sites
        if (s.handle.name, s.kind, s.eq_fields()) not in queries
    ] + [(s, f"put into {s.schema.name}") for s in body.put_sites if s.schema.name not in puts]
    if missing:
        site, what = missing[0]
        code = rule.body.__code__
        raise ProgramError(
            f"rule {rule.name}: meta= does not cover its body: the {what} at "
            f"{code.co_filename}:{code.co_firstlineno + site.lineno - 1} is not "
            "declared (delete meta= to use the metadata derived from the body)"
        )
