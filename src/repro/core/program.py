"""The ``Program``: tables + rules + order declarations + options.

A JStar program (§3) is declared in the embedded DSL::

    p = Program("pvwatts")
    PvWatts  = p.table("PvWatts", "int year, int month, int day, str hour, int power",
                       orderby=("PvWatts",))
    SumMonth = p.table("SumMonth", "int year, int month", orderby=("SumMonth",))
    p.order("Req", "PvWatts", "SumMonth")

    @p.foreach(PvWatts)
    def make_summonth(ctx, pv):
        ctx.put(SumMonth.new(pv.year, pv.month))

    p.put(PvWattsRequest.new("large1000.csv"))
    result = p.run(ExecOptions(strategy="forkjoin", threads=8))

Everything architecture-dependent — strategy, thread count, noDelta /
noGamma table sets, Gamma store overrides — lives in
:class:`ExecOptions`, *outside* the program, which is the paper's
central workflow claim (§2: hints "are separate from the program").
Running the same program under different options must produce the same
output; our property tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping

from repro.core.errors import EngineError, SchemaError, UnknownTableError
from repro.core.ordering import Lit, OrderDecls
from repro.core.rules import Rule, RuleBody
from repro.core.schema import Field, TableSchema
from repro.core.tuples import JTuple, TableHandle
from repro.gamma.base import StoreFactory
from repro.simcore.contention import CalibratedCosts
from repro.simcore.gc import GcModel

__all__ = ["RetentionHint", "ExecOptions", "Program"]


def _refuse(reason: str, **knobs: Any) -> None:
    """Raise the canonical :class:`ExecOptions` refusal.

    Every refusal message has one format::

        invalid ExecOptions: knob=value[, knob=value...] -- reason

    naming the *values* of every offending knob, so a refusal seen in a
    log (or relayed through the session service as a structured error)
    identifies the exact configuration that was rejected without a
    reproduction.  The error-message test in
    ``tests/core/test_exec_options_refusals.py`` pins this format over
    the full refusal matrix.
    """
    shown = ", ".join(f"{name}={value!r}" for name, value in knobs.items())
    raise EngineError(f"invalid ExecOptions: {shown} -- {reason}")


@dataclass(frozen=True)
class RetentionHint:
    """A manual tuple-lifetime hint (§5 step 4).

    "Currently, this program analysis is not automated, so we simply
    retain all tuples, or use manual lifetime hints from the user to
    determine when tuples can be discarded."

    Keep only tuples whose integer ``field`` is within ``keep_last`` of
    the largest value seen so far; older generations are discarded from
    Gamma after each step (and garbage-collected, relieving the GC
    pressure model).  The Median program's ``double[2][N]`` store is
    the hand-specialised version of ``RetentionHint("iter", 2)``.
    """

    field: str
    keep_last: int = 2

    def __post_init__(self) -> None:
        if self.keep_last < 1:
            raise EngineError("retention must keep at least one generation")


@dataclass(frozen=True)
class ExecOptions:
    """Architecture-dependent execution choices (the paper's compiler
    hints + runtime flags, §2 stages 3-4).

    ``strategy`` is ``"sequential"`` (the ``-sequential`` flag),
    ``"forkjoin"`` (simulated all-minimums parallelism; ``threads`` is
    the pool size, the paper's ``--threads=N``), ``"threads"`` (real
    CPython threads, functional validation only), ``"chaos"`` (seeded
    adversarial scheduling, see :mod:`repro.exec.chaos`) or
    ``"processes"`` (real multiprocess shard execution, one OS worker
    process per node — ``threads`` is the worker count; see
    :mod:`repro.dist.procrun`).
    """

    strategy: str = "sequential"
    threads: int = 4
    #: tables whose tuples bypass the Delta tree (-noDelta T, §5.1)
    no_delta: frozenset[str] = frozenset()
    #: tables whose tuples are never stored in Gamma (-noGamma T, §5.1)
    no_gamma: frozenset[str] = frozenset()
    #: dynamic causality enforcement: "off" | "warn" | "strict"
    causality_check: str = "warn"
    #: per-table lifetime hints (§5 step 4: manual hints determine when
    #: tuples can be discarded from Gamma); table name -> RetentionHint
    retention: Mapping[str, "RetentionHint"] = field(default_factory=dict)
    #: per-table Gamma store replacements (§1.4 late commitment)
    store_overrides: Mapping[str, StoreFactory] = field(default_factory=dict)
    #: secondary indexing: "off" (no secondary indexes), "auto" (plan
    #: from the rules' access patterns, see repro.gamma.indexplan) or
    #: "explicit" (use only the ``indexes`` mapping below)
    index_mode: str = "off"
    #: per-table index specs (table name -> tuple of IndexSpec); merged
    #: on top of the planner's output in "auto" mode, used alone in
    #: "explicit" mode, ignored when indexing is off
    indexes: Mapping[str, tuple] = field(default_factory=dict)
    #: virtual-machine calibration
    calib: CalibratedCosts = field(default_factory=CalibratedCosts)
    gc_model: GcModel = field(default_factory=GcModel)
    #: safety valve against diverging programs (None = unlimited)
    max_steps: int | None = None
    #: record a structured event trace of the run (see repro.trace);
    #: the recorder lands on ``RunResult.trace``
    trace: bool = False
    #: RNG seed for the "chaos" strategy (None = 0)
    chaos_seed: int | None = None
    #: fault-injection probabilities for the "chaos" strategy
    #: (:class:`repro.exec.chaos.FaultPlan`; None = no faults)
    fault_plan: Any = None
    #: cost metering: "on" (default; feeds the virtual-time machine) or
    #: "off" (wall-clock fast path: tasks use a shared no-op meter and
    #: the engine skips all cost bookkeeping).  Strategies that consume
    #: meters — the fork/join virtual machine — force metering back on
    #: regardless of this flag; results are identical either way.
    metering: str = "on"
    #: session feed admission, mirroring ``causality_check``: a tuple
    #: fed below the completed high-water mark is rejected with a
    #: :class:`~repro.core.errors.CausalityError` (``"strict"``) or
    #: quarantined with an :class:`~repro.core.errors.AdmissionWarning`
    #: (``"warn"``).  Irrelevant to one-shot ``Engine.run`` (everything
    #: is fed before the first step).
    admission: str = "strict"
    #: opt-in incremental view maintenance: ``feed`` accepts
    #: :class:`~repro.core.delta.Delete` events and the kernel maintains
    #: derived state incrementally (counting-based support tracking with
    #: DRed-style over-delete/rederive repair).  Off by default: the
    #: insert-only path carries zero support-tracking overhead and is
    #: byte-identical to previous releases.
    retraction: bool = False
    #: phase-B firing tier: "scalar" (one fresh RuleContext per firing;
    #: the reference, and the only tier every strategy, trace and
    #: retraction support) or "codegen" (rule bodies compiled once into
    #: straight-line drivers, see :mod:`repro.plan.codegen`; rules the
    #: compiler refuses keep the scalar path with a stats note).  The
    #: refusal/downgrade rows are :mod:`repro.core.executors.registry`.
    #: Outputs and table sizes are byte-identical either way.
    execution: str = "scalar"

    def with_(self, **kw: Any) -> "ExecOptions":
        """Functional update, e.g. ``opts.with_(threads=8)``."""
        return replace(self, **kw)

    def __post_init__(self) -> None:
        if self.strategy not in (
            "sequential",
            "forkjoin",
            "threads",
            "chaos",
            "processes",
        ):
            _refuse(
                "unknown strategy; valid strategies: "
                "sequential, forkjoin, threads, chaos, processes",
                strategy=self.strategy,
            )
        if self.causality_check not in ("off", "warn", "strict"):
            _refuse(
                "unknown causality_check; valid modes: off, warn, strict",
                causality_check=self.causality_check,
            )
        if self.threads < 1:
            _refuse("threads must be >= 1", threads=self.threads)
        if self.index_mode not in ("off", "auto", "explicit"):
            _refuse(
                "unknown index_mode; valid modes: off, auto, explicit",
                index_mode=self.index_mode,
            )
        if self.metering not in ("on", "off"):
            _refuse(
                "unknown metering mode; valid modes: on, off",
                metering=self.metering,
            )
        # execution-tier refusals — the sharded tier's
        # (strategy="processes") among them — live in one table shared
        # with the kernel's tier registry
        # (repro.core.executors.registry): rows a different option value
        # would fix refuse here; rows that depend on the run environment
        # downgrade with a note at kernel init
        from repro.core.executors.registry import check_execution_options

        check_execution_options(self, _refuse)
        if self.admission not in ("strict", "warn"):
            _refuse(
                "unknown admission mode; valid modes: strict, warn",
                admission=self.admission,
            )
        if self.index_mode == "off" and self.indexes:
            _refuse(
                "explicit indexes need index_mode 'auto' or 'explicit'",
                index_mode=self.index_mode,
                indexes=sorted(self.indexes),
            )
        if self.strategy != "chaos" and (
            self.chaos_seed is not None or self.fault_plan is not None
        ):
            offending = {
                k: v
                for k, v in (
                    ("chaos_seed", self.chaos_seed),
                    ("fault_plan", self.fault_plan),
                )
                if v is not None
            }
            _refuse(
                "chaos_seed / fault_plan only apply to the 'chaos' strategy",
                strategy=self.strategy,
                **offending,
            )
        if self.fault_plan is not None:
            from repro.exec.chaos import FaultPlan  # local: avoid import cycles

            if not isinstance(self.fault_plan, FaultPlan):
                _refuse(
                    f"fault_plan must be a FaultPlan, "
                    f"got {type(self.fault_plan).__name__}",
                    fault_plan=self.fault_plan,
                )
            if self.fault_plan.raise_prob > 0 and self.no_delta:
                # a -noDelta cascade inserts into Gamma *inside* the
                # producing task; redelivering such a task after a fault
                # skips the duplicate insert and loses the cascade —
                # retryable faults require fully delta-buffered effects
                _refuse(
                    "fault_plan.raise_prob requires delta-buffered effects; "
                    "-noDelta tables make tasks non-redeliverable",
                    fault_plan=self.fault_plan,
                    no_delta=sorted(self.no_delta),
                )
        if self.retraction:
            # support tracking records every firing's Gamma footprint;
            # the bypass modes below either hide tuples from the tracker
            # or discard them behind its back, so repair would be wrong
            if self.no_delta or self.no_gamma:
                offending = {
                    k: sorted(v)
                    for k, v in (
                        ("no_delta", self.no_delta),
                        ("no_gamma", self.no_gamma),
                    )
                    if v
                }
                _refuse(
                    "retraction requires fully tracked state; "
                    "-noDelta/-noGamma tables are incompatible with it",
                    retraction=self.retraction,
                    **offending,
                )
            if self.retention:
                _refuse(
                    "retraction is incompatible with retention hints: "
                    "GC-discarded tuples cannot be counted for support",
                    retraction=self.retraction,
                    retention=sorted(self.retention),
                )


class Program:
    """A declared JStar program, ready to be run under any options."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.tables: dict[str, TableHandle] = {}
        self.rules: list[Rule] = []
        self.decls = OrderDecls()
        self.initial_puts: list[JTuple] = []
        self._rules_by_trigger: dict[str, list[Rule]] | None = None

    # -- declarations -----------------------------------------------------

    def table(
        self,
        name: str,
        fields: str | Iterable[Field],
        orderby: Iterable[Any] = (),
    ) -> TableHandle:
        """Declare a table (the ``table`` command of §3)."""
        if self._frozen:
            raise SchemaError("cannot declare tables after the program ran")
        if name in self.tables:
            raise SchemaError(f"table {name} declared twice")
        schema = TableSchema(name, fields, orderby)
        handle = TableHandle(schema)
        self.tables[name] = handle
        for lit in schema.literal_names():
            self.decls.mention(lit)
        return handle

    def order(self, *names: str) -> None:
        """An ``order A < B < C`` declaration (§4, Fig 4)."""
        self.decls.declare(*names)

    def rule(
        self,
        trigger: TableHandle,
        *,
        name: str | None = None,
        unsafe: bool = False,
        meta: Any = None,
        assume_stratified: bool = False,
    ) -> Callable[[RuleBody], Rule]:
        """Decorator declaring a ``foreach`` rule.

        ``@p.foreach(Ship)`` is the idiomatic alias matching the paper's
        keyword.
        """
        if trigger.schema.name not in self.tables:
            raise UnknownTableError(
                f"rule trigger {trigger.schema.name} is not a table of this program"
            )

        def deco(body: RuleBody) -> Rule:
            r = Rule(
                trigger,
                body,
                name=name,
                unsafe=unsafe,
                meta=meta,
                assume_stratified=assume_stratified,
            )
            self.rules.append(r)
            self._rules_by_trigger = None
            return r

        return deco

    # the paper's keyword
    foreach = rule

    def put(self, tup: JTuple) -> None:
        """An initial ``put`` command (§3, e.g. ``put new Estimate(0,0)``)."""
        if tup.schema.name not in self.tables:
            raise UnknownTableError(
                f"initial put into unknown table {tup.schema.name}"
            )
        self.initial_puts.append(tup)

    # -- finalisation ------------------------------------------------------

    @property
    def _frozen(self) -> bool:
        return self.decls.frozen

    def freeze(self) -> None:
        """Freeze order declarations, index rules by trigger and hold
        every ``meta=`` override to its body (see
        :func:`repro.solver.check.check_cover`).  Idempotent; called
        automatically by :meth:`run`."""
        from repro.solver.check import check_cover  # local: solver imports us

        self.decls.freeze()
        self._index_rules()
        for rule in self.rules:
            if rule._meta is not None:
                check_cover(rule)

    def _index_rules(self) -> None:
        by_trigger: dict[str, list[Rule]] = {}
        for r in self.rules:
            by_trigger.setdefault(r.trigger.schema.name, []).append(r)
        self._rules_by_trigger = by_trigger

    def rules_for(self, table_name: str) -> list[Rule]:
        if self._rules_by_trigger is None:
            self._index_rules()
        assert self._rules_by_trigger is not None
        return self._rules_by_trigger.get(table_name, [])

    def schemas(self) -> dict[str, TableSchema]:
        return {name: h.schema for name, h in self.tables.items()}

    # -- execution -----------------------------------------------------------

    def run(self, options: ExecOptions | None = None, **kw: Any):
        """Execute the program; returns a
        :class:`repro.core.engine.RunResult`.  Keyword arguments are
        shorthand for ``ExecOptions`` fields."""
        from repro.core.engine import Engine  # local: engine imports us

        opts = options if options is not None else ExecOptions()
        if kw:
            opts = opts.with_(**kw)
        if opts.strategy == "processes":
            # the sharded tier needs worker processes around the step
            # loop, which only the mesh runtime starts and reaps
            from repro.dist.procrun import run_sharded  # local: dist imports us

            return run_sharded(self, opts)
        return Engine(self, opts).run()

    def session(self, options: ExecOptions | None = None, **kw: Any):
        """Open-ended execution: an
        :class:`repro.core.session.EngineSession` over this program,
        *not yet opened* — drive it with ``open``/``feed``/``settle``/
        ``close`` (or a ``with`` block).  Unlike :meth:`run`, no initial
        puts are fed automatically; the caller owns the input stream."""
        from repro.core.session import EngineSession  # local: session imports us

        opts = options if options is not None else ExecOptions()
        if kw:
            opts = opts.with_(**kw)
        return EngineSession(self, opts)

    def check_causality(self, strict: bool = False):
        """Run the static causality prover over every rule that carries
        symbolic metadata; returns the list of findings.  The analogue
        of the paper's SMT pass (§4)."""
        from repro.solver.check import check_program

        return check_program(self, strict=strict)

    def __repr__(self) -> str:
        return (
            f"<Program {self.name}: {len(self.tables)} tables, "
            f"{len(self.rules)} rules, {len(self.initial_puts)} initial puts>"
        )
