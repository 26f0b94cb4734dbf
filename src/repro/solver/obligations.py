"""Causality proof obligations (§4) and their symbolic rule metadata.

The paper sends one obligation to an SMT solver per ``put`` (the new
tuple must be in the trigger's present/future) and per negative or
aggregate query (the queried region must be strictly in the past)::

    1. inv(trig) and Cond and inv(tuple1)
         ==>  orderby(trig) <= orderby(tuple1)
    3. inv(trig) and not(Cond)
         ==>  orderby(Tuple1(queryArgs)) < orderby(trig)

Every rule has a :class:`RuleMeta`: what the JStar compiler extracts
from the source — per-branch path conditions, the tuples each branch
puts (field expressions over trigger fields), and the queries it makes
(bound fields + extra constraints).  :mod:`repro.plan.analyse` derives
it from the rule body; the fluent builder below writes one by hand, for
tests and for the ``meta=`` override of a body analysis refuses.  Table invariants
(``inv`` above) are supplied per table as functions from field
variables to constraints; obligations both *use* trigger/query
invariants as hypotheses and *check* that puts preserve them.

Timestamp comparisons are lexicographic over mixed literal / ``seq`` /
``par`` levels; :func:`prove_lex_le` decomposes them into linear
entailments for the Fourier–Motzkin core plus declared-order facts for
literal levels.  The decomposition proves ``a ≤lex b`` via the standard
unfolding ``a0 < b0  ∨  (a0 = b0 ∧ rest)``, trying in order: strictly
less at this level (done), exactly equal (descend), provably ≤ (descend
under the added equality hypothesis).  This is sound and complete for
the obligations the paper's examples generate; genuinely disjunctive
facts fail to prove, which surfaces as the paper's warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import SolverError
from repro.core.ordering import Lit, OrderDecls, Par, Seq
from repro.core.query import QueryKind
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.solver.fourier import entails
from repro.solver.terms import Constraint, Term, var

__all__ = [
    "Invariant",
    "SymPut",
    "SymQuery",
    "Branch",
    "RuleMeta",
    "Obligation",
    "symbolic_timestamp",
    "prove_lex_le",
    "generate_obligations",
]

#: maps a table's field variables to its invariant constraints
Invariant = Callable[[Mapping[str, Term]], Sequence[Constraint]]

_NUMERIC = ("int", "float", "bool")


def _field_vars(schema: TableSchema, prefix: str) -> dict[str, Term]:
    """Fresh variables for every numeric field of a table."""
    return {
        f.name: var(f"{prefix}.{f.name}")
        for f in schema.fields
        if f.type in _NUMERIC
    }


@dataclass(slots=True)
class SymPut:
    """One symbolic ``put``: field expressions over trigger variables.
    Fields missing from ``fields`` (e.g. strings) are unconstrained."""

    schema: TableSchema
    fields: dict[str, Term]


@dataclass(slots=True)
class SymQuery:
    """One symbolic query.

    ``bound`` maps field name to the Term it is equality-constrained to
    (the query's positional/named args); unmentioned numeric fields get
    fresh variables.  ``constraints`` are extra facts about the query's
    own field variables, phrased by a callback receiving those
    variables — this is how a ``[distance < dist.distance]`` predicate
    becomes visible to the prover.
    """

    schema: TableSchema
    kind: QueryKind
    bound: dict[str, Term] = field(default_factory=dict)
    constraints: Callable[[Mapping[str, Term]], Sequence[Constraint]] | None = None


@dataclass(slots=True)
class Branch:
    """One path through the rule body.

    ``bindings`` are auxiliary tuple-variable environments in scope on
    this path (loop variables iterating a query): each is a
    ``(schema, field vars)`` pair whose table invariant joins the
    branch hypotheses — how ``for (edge : get Edge(...))`` lets an
    ``Edge.value >= 0`` invariant prove the Estimate put of Fig 5.
    """

    when: list[Constraint] = field(default_factory=list)
    puts: list[SymPut] = field(default_factory=list)
    queries: list[SymQuery] = field(default_factory=list)
    bindings: list[tuple[TableSchema, dict[str, Term]]] = field(default_factory=list)


class RuleMeta:
    """Symbolic description of one rule, built fluently::

        m = RuleMeta(Ship)
        t = m.trigger
        b = m.branch(when=[t["x"] < 400])
        b.put(Ship, frame=t["frame"] + 1, x=t["x"] + 150,
              y=t["y"], dx=t["dx"], dy=t["dy"])
    """

    def __init__(self, trigger: TableHandle | TableSchema):
        self.trigger_schema = (
            trigger.schema if isinstance(trigger, TableHandle) else trigger
        )
        self.trigger: dict[str, Term] = _field_vars(self.trigger_schema, "trig")
        self.branches: list[Branch] = []

    def branch(self, when: Sequence[Constraint] = ()) -> "_BranchBuilder":
        b = Branch(when=list(when))
        self.branches.append(b)
        return _BranchBuilder(b)


class _BranchBuilder:
    __slots__ = ("_branch",)

    def __init__(self, branch: Branch):
        self._branch = branch

    def put(self, table: TableHandle, **fields: Term | int | float) -> "_BranchBuilder":
        schema = table.schema
        exprs: dict[str, Term] = {}
        for name, expr in fields.items():
            schema.field_position(name)  # validates
            exprs[name] = _as_term(expr)
        self._branch.puts.append(SymPut(schema, exprs))
        return self

    def query(
        self,
        table: TableHandle,
        kind: QueryKind = QueryKind.POSITIVE,
        constraints: Callable[[Mapping[str, Term]], Sequence[Constraint]] | None = None,
        **bound: Term | int | float,
    ) -> "_BranchBuilder":
        schema = table.schema
        b = {name: _as_term(v) for name, v in bound.items()}
        for name in b:
            schema.field_position(name)
        self._branch.queries.append(SymQuery(schema, kind, b, constraints))
        return self


def _as_term(x: Term | int | float) -> Term:
    if isinstance(x, Term):
        return x
    return Term({}, x)


# ---------------------------------------------------------------------------
# symbolic timestamps and lexicographic entailment
# ---------------------------------------------------------------------------

# a symbolic timestamp component:
#   ("lit", name) | ("seq", Term) | ("seq?",) unprovable | ("par",)
SymComponent = tuple


def symbolic_timestamp(
    schema: TableSchema, fields: Mapping[str, Term]
) -> list[SymComponent]:
    """The symbolic orderby list of a tuple with the given field terms.
    ``seq`` levels whose field has no term (non-numeric / unspecified)
    become opaque ``("seq?",)`` components, which only prove equal to
    themselves never to another tuple's level."""
    comps: list[SymComponent] = []
    for entry in schema.orderby:
        if isinstance(entry, Lit):
            comps.append(("lit", entry.name))
        elif isinstance(entry, Seq):
            t = fields.get(entry.field)
            comps.append(("seq", t) if t is not None else ("seq?",))
        elif isinstance(entry, Par):
            comps.append(("par",))
    return comps


def prove_lex_le(
    a: Sequence[SymComponent],
    b: Sequence[SymComponent],
    hypotheses: Sequence[Constraint],
    decls: OrderDecls,
    strict: bool = False,
    entails_fn: Callable[[Sequence[Constraint], Constraint], bool] = entails,
) -> tuple[bool, str]:
    """Try to prove ``a ≤lex b`` (or ``<lex``) under the hypotheses.
    Returns (proved, human-readable reason).  ``entails_fn`` selects the
    decision procedure (§1.5's alternative-provers hook)."""
    hyps = list(hypotheses)
    i = 0
    n = min(len(a), len(b))
    while i < n:
        ca, cb = a[i], b[i]
        if ca[0] != cb[0]:
            return False, f"level {i}: structural mismatch ({ca[0]} vs {cb[0]})"
        kind = ca[0]
        if kind == "par":
            i += 1
            continue
        if kind == "seq?":
            return False, f"level {i}: opaque seq field (no symbolic term)"
        if kind == "lit":
            la, lb = ca[1], cb[1]
            if la == lb:
                i += 1
                continue
            if decls.declared_less(la, lb):
                return True, f"level {i}: order declares {la} < {lb}"
            return False, (
                f"level {i}: literals {la} vs {lb} not declared {la} < {lb}"
            )
        # seq with terms
        ta, tb = ca[1], cb[1]
        if entails_fn(hyps, ta < tb):
            return True, f"level {i}: proved {ta!r} < {tb!r}"
        if entails_fn(hyps, ta.eq(tb)):
            i += 1
            continue
        if entails_fn(hyps, ta <= tb):
            hyps = hyps + [ta.eq(tb)]
            i += 1
            continue
        return False, f"level {i}: cannot prove {ta!r} <= {tb!r}"
    if len(a) == len(b):
        if strict:
            return False, "timestamps may be equal (strict ordering required)"
        return True, "timestamps equal on every compared level"
    if len(a) < len(b):
        return True, "left timestamp is a strict prefix (sorts first)"
    return False, "left timestamp extends the right (sorts after)"


# ---------------------------------------------------------------------------
# obligation generation
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Obligation:
    """One discharged-or-not proof obligation."""

    rule: str
    kind: str  # "put-causality" | "put-invariant" | "query-past"
    description: str
    proved: bool
    reason: str


def generate_obligations(
    rule_name: str,
    meta: RuleMeta,
    decls: OrderDecls,
    invariants: Mapping[str, Invariant] | None = None,
    prover: str | None = None,
) -> list[Obligation]:
    """Generate and attempt to discharge every §4 obligation of a rule.

    Per branch: (a) for each put, ``hyps ⟹ orderby(trig) ≤lex
    orderby(put)``; (b) for each put, the target table's invariant
    holds of the put fields; (c) for each negative/aggregate query,
    ``hyps ⟹ orderby(query) <lex orderby(trig)``; (d) for each
    positive query, ``orderby(query) ≤lex orderby(trig)`` (see module
    docstring for why this is the sound engine-level form).
    """
    from repro.solver.provers import get_prover

    _, entails_fn = get_prover(prover)
    inv = dict(invariants or {})
    out: list[Obligation] = []
    trig_schema = meta.trigger_schema
    trig_ts = symbolic_timestamp(trig_schema, meta.trigger)

    def invariant_atoms(schema: TableSchema, fields: Mapping[str, Term]) -> list[Constraint]:
        f = inv.get(schema.name)
        return list(f(fields)) if f is not None else []

    base_hyps = invariant_atoms(trig_schema, meta.trigger)

    q_counter = 0
    for bi, branch in enumerate(meta.branches):
        hyps = base_hyps + branch.when
        for b_schema, b_fields in branch.bindings:
            hyps = hyps + invariant_atoms(b_schema, b_fields)
        # queries first: they are hypotheses-independent checks
        for q in branch.queries:
            q_counter += 1
            q_fields = _field_vars(q.schema, f"q{q_counter}")
            q_fields.update(q.bound)
            q_hyps = hyps + invariant_atoms(q.schema, q_fields)
            if q.constraints is not None:
                q_hyps = q_hyps + list(q.constraints(q_fields))
            q_ts = symbolic_timestamp(q.schema, q_fields)
            strict = q.kind is not QueryKind.POSITIVE
            ok, why = prove_lex_le(
                q_ts, trig_ts, q_hyps, decls, strict=strict, entails_fn=entails_fn
            )
            out.append(
                Obligation(
                    rule_name,
                    "query-past",
                    f"branch {bi}: {q.kind.value} query on {q.schema.name} "
                    f"{'<' if strict else '<='} trigger",
                    ok,
                    why,
                )
            )
        for pi, p in enumerate(branch.puts):
            # unspecified numeric fields are unconstrained fresh vars
            p_fields = _field_vars(p.schema, f"p{bi}_{pi}")
            p_fields.update(p.fields)
            put_hyps = hyps + invariant_atoms(p.schema, p_fields)
            put_ts = symbolic_timestamp(p.schema, p_fields)
            ok, why = prove_lex_le(
                trig_ts, put_ts, put_hyps, decls, strict=False, entails_fn=entails_fn
            )
            out.append(
                Obligation(
                    rule_name,
                    "put-causality",
                    f"branch {bi}: put {p.schema.name} in trigger's future",
                    ok,
                    why,
                )
            )
            # invariant preservation: hyps (without assuming the put's
            # own invariant!) must entail each invariant atom
            for atom in invariant_atoms(p.schema, p_fields):
                proved = entails_fn(hyps, atom)
                out.append(
                    Obligation(
                        rule_name,
                        "put-invariant",
                        f"branch {bi}: put {p.schema.name} preserves {atom!r}",
                        proved,
                        "entailed" if proved else "not entailed",
                    )
                )
    return out
