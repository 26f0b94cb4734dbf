"""The step kernel: pure step machinery of the pseudo-naive engine.

This module is the mechanism half of the §3/§5 run loop, split out of
the old monolithic ``Engine.run`` so that *lifecycle* (open / feed /
settle / checkpoint / close — :class:`repro.core.session.EngineSession`)
and *stepping* (pop the minimal class, fire, apply effects — this
module) evolve independently.  The tuple lifecycle is exactly Fig 3:

1. a rule (or an externally fed ``put``) creates a tuple, which enters
   the **Delta** tree to await processing — unless its table is in the
   ``-noDelta`` set, in which case it goes straight to Gamma and fires
   its rules immediately inside the producing task (§5.1);
2. each step removes the minimal *equivalence class* from Delta,
   inserts those tuples into **Gamma** (unless ``-noGamma``), and fires
   every rule they trigger — one task per tuple, all tasks of the class
   conceptually in parallel (the all-minimums strategy, §5);
3. rules query Gamma; batch effects (new puts) are buffered per task
   and applied in deterministic task order after the batch joins;
4. lifetime hints may discard tuples (``Database.discard``).

Determinism: batches leave the Delta tree in a deterministic order,
effects are applied in task order, so program output is identical under
every strategy and thread count (§1.3) — asserted by the test suite.

Incrementality: :meth:`StepKernel.feed` admits external tuples against
the **high-water mark** — the timestamp of the last popped equivalence
class.  Everything at or above the mark is sound to admit (the engine
has made no commitments there); a tuple strictly below it could
invalidate negative/aggregate answers already computed (§4), so it is
rejected (``admission="strict"``) or quarantined (``"warn"``).

Retraction (``ExecOptions(retraction=True)``) is one layer,
:class:`~repro.core.support.SupportIndex` at ``StepKernel._support``:
it checks and applies a feed's ``Insert`` / ``Delete`` events, inserts
each popped class with its repair interleaved (phase A), and indexes
the step's firings and their keyed output after phase B.  The step loop
is the same loop either way; with retraction off ``_support`` is None
and each hook costs one ``is None`` test.

Cost attribution: each task's meter is charged for the Gamma insertion
of its trigger, the rules it fires, the queries they make, and the
Delta insertions of the tuples it put — the *producer* pays for shared
Delta traffic, which is what makes the Delta tree Dijkstra's
scalability bottleneck in Fig 12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import ContextManager, Iterable

from repro.core.database import Database, InsertOutcome
from repro.core.delta import Delete, DeltaTree, Insert
from repro.core.errors import (
    AdmissionWarning,
    CausalityError,
    EngineError,
    EngineWarning,
    UnknownTableError,
)
from repro.core.executors.registry import resolve_executor
from repro.core.ordering import Timestamp, compare_timestamps
from repro.core.program import ExecOptions, Program
from repro.core.support import SupportIndex
from repro.core.tuples import JTuple
from repro.exec.base import MachineStrategy, Strategy, TaskResult
from repro.exec.chaos import ChaosStrategy
from repro.exec.metering import NULL_METER, CostMeter
from repro.exec.threads import ThreadStrategy
from repro.gamma.base import StoreRegistry
from repro.gamma.treeset import ConcurrentSkipListStore, TreeSetStore
from repro.plan.cache import PlanCache
from repro.simcore.costs import DEFAULT_WEIGHTS
from repro.simcore.machine import MachineReport
from repro.stats.collector import StatsCollector
from repro.trace.recorder import TraceRecorder, output_hash

__all__ = ["RunResult", "FeedReport", "StepKernel"]


@dataclass
class RunResult:
    """Everything a run (or one settled increment of a session) produced."""

    program: str
    strategy: str
    threads: int
    output: list[str]
    wall_time: float
    #: the strategy's virtual-time account (sequential, fork/join and the
    #: sharded cost model); None for strategies that keep none
    report: MachineReport | None
    stats: StatsCollector
    table_sizes: dict[str, int]
    meter: CostMeter
    steps: int
    options: ExecOptions
    #: None when the caller dropped it (e.g. a serialised result); use
    #: :meth:`require_database` for the advisor/report paths that need it
    database: Database | None = field(repr=False, default=None)
    #: the run's event trace (only when ``ExecOptions.trace`` was set)
    trace: TraceRecorder | None = field(repr=False, default=None)
    #: per-node summaries of a sharded run (``fires``, ``puts``, the
    #: :data:`~repro.dist.network.NODE_COUNTERS`, ``recovered`` and the
    #: shard ``tables``' sizes; the cost model adds ``compute``); None
    #: for single-node runs, and for a worker mesh until it closes
    nodes: list[dict] | None = None

    def require_database(self) -> Database:
        """The run's database, or a clear error when it was dropped."""
        if self.database is None:
            raise EngineError(
                "this RunResult carries no database (it was dropped or the "
                "result was deserialised); re-run with the database retained"
            )
        return self.database

    @property
    def virtual_time(self) -> float:
        """Elapsed virtual time (work units) of the strategy's account;
        falls back to total cost for strategies without one."""
        if self.report is not None:
            return self.report.elapsed
        return self.meter.total_cost

    def output_text(self) -> str:
        return "\n".join(self.output)


@dataclass
class FeedReport:
    """What one :meth:`StepKernel.feed` call did with its tuples."""

    source: str
    admitted: int
    #: tuples rejected by the high-water-mark admission check under
    #: ``admission="warn"`` (strict mode raises instead of quarantining)
    quarantined: list[JTuple] = field(default_factory=list)


def _node_tag(result: TaskResult) -> dict:
    """The ``node`` key of a sharded task's ``task`` / ``effect``
    events; nothing for single-process tiers."""
    return {} if result.node is None else {"node": result.node}


class StepKernel:
    """Step machinery for one program under one set of options.

    Owns the Delta tree, the Gamma database, the strategy, the
    statistics collector and, under retraction, the support index;
    exposes :meth:`feed` (external events, checked whole before any
    applies), :meth:`drain` (run all-minimums steps until Delta is
    empty), and :meth:`flush_stats` (fold the plans' query counts into
    the collector).
    Lifecycle — when to feed, settle, snapshot, or release the strategy
    — belongs to :class:`repro.core.session.EngineSession`.
    """

    def __init__(
        self,
        program: Program,
        options: ExecOptions,
        strategy: Strategy | None = None,
    ):
        program.freeze()
        if options.strategy == "processes":
            # the sharded tier's backends account for themselves: the
            # kernel meters nothing
            options = options.with_(metering="off")
        elif options.placements:
            # checked like any hint; one node has nothing to place
            from repro.dist.placement import PlacementMap  # local: dist imports us

            PlacementMap(program.schemas(), options.placements)
        self.program = program
        self.options = options
        # an injected strategy overrides options.strategy — the trace
        # replayer uses this to run a *scripted* ChaosStrategy, the
        # chaos test harness an intentionally-broken variant, and
        # ``run_sharded`` a sharded backend on a chosen wire
        self.strategy = (
            strategy if strategy is not None else self._make_strategy(options, program)
        )
        registry = self._make_registry(options, self.strategy)
        self.db = Database(program.schemas(), registry, program.decls)
        self.delta = DeltaTree()
        self.stats = StatsCollector()
        self.tracer = TraceRecorder() if options.trace else None
        self.strategy.bind(tracer=self.tracer, stats=self.stats)
        self.output: list[str] = []
        self.meter = CostMeter()  # whole-run aggregate
        self.steps = 0
        #: timestamp of the last popped equivalence class — the feed
        #: admission boundary.  None until the first step completes
        #: (everything is admissible before any commitment is made).
        self.high_water: Timestamp | None = None
        #: tuples rejected by admission under ``admission="warn"``, kept
        #: for inspection (and carried through snapshots)
        self.quarantined: list[JTuple] = []
        self._no_delta = options.no_delta
        self._no_gamma = options.no_gamma
        self._check_mode = options.causality_check
        self._delta_serial = options.calib.delta_serial_fraction
        # ``metering="off"`` replaces per-task meters with the shared
        # no-op meter — unless the strategy's virtual-time machine
        # consumes meters, in which case metering is forced back on
        self._metered = options.metering == "on" or self.strategy.requires_metering
        if options.metering == "off" and self.strategy.requires_metering:
            self._note(
                "metering.forced-on",
                f"metering='off' overridden: the {self.strategy.name!r} "
                "strategy's virtual-time machine consumes per-task meters, "
                "so metering was forced back on"
            )
        # compiled query plans, warmed from the program's static access
        # patterns; every RuleContext query dispatches through them
        self._plans = PlanCache(self.db, program)
        # retention hints: table -> mutable
        # [field position, keep_last, max seen, max at last prune];
        # max-seen is maintained incrementally at insert time (NEW
        # outcomes only), so pruning never needs a discovery scan
        self._retention: dict[str, list] = {}
        for name, hint in options.retention.items():
            schema = program.schemas().get(name)
            if schema is None:
                raise EngineError(f"retention hint for unknown table {name!r}")
            self._retention[name] = [schema.field_position(hint.field), hint.keep_last, None, None]
        #: rule identity -> position, for deterministic output keys and
        #: the retraction live-firing index
        self._rule_index: dict[int, int] = {
            id(r): i for i, r in enumerate(program.rules)
        }
        # retraction mode: the support index is the whole switch — when
        # None, no hot-path branch below does anything beyond one
        # is-None check, so insert-only runs are byte-identical to the
        # non-retraction build
        self._support: SupportIndex | None = SupportIndex(self) if options.retraction else None
        self._lock: ContextManager | None = None
        if self.strategy.needs_locks:
            import threading

            self._lock = threading.Lock()
        # execution tier (ExecOptions.execution, or the sharded tier
        # under strategy="processes"): how phase B fires and how puts
        # route.  The registry applies the one downgrade table (noting
        # why a requested tier stays off); whatever tier wins, results
        # are byte-identical — tiers change cost, never semantics.  The
        # bound methods are cached on the instance so cascades pay one
        # attribute load, not a dispatch chain.
        self.executor = resolve_executor(self)
        self._fire_one = self.executor.fire_one
        self._handle_puts = self.executor.handle_puts

    # -- construction helpers ------------------------------------------------

    def _note(self, code: str, message: str, subject: str = "") -> None:
        """Record a knob-override note; under strict causality checking
        the adjustment is also warned, so strict runs never silently
        diverge from their requested configuration."""
        self.stats.note(code, message, subject)
        if self.options.causality_check == "strict":
            warnings.warn(message, EngineWarning, stacklevel=4)

    @staticmethod
    def _make_strategy(options: ExecOptions, program: Program) -> Strategy:
        if options.strategy == "sequential":
            return MachineStrategy(calib=options.calib)
        if options.strategy == "forkjoin":
            return MachineStrategy("forkjoin", options.threads, options.calib)
        if options.strategy == "chaos":
            return ChaosStrategy(
                seed=options.chaos_seed or 0, fault_plan=options.fault_plan
            )
        if options.strategy == "threads":
            return ThreadStrategy(options.threads)
        if options.strategy == "processes":
            # the backend the DIST_TRANSPORT wire switch names
            from repro.dist.procrun import sharded_backend  # local: dist imports us

            return sharded_backend(program, options)
        raise EngineError(
            f"unknown strategy {options.strategy!r}; valid strategies: "
            "sequential, forkjoin, threads, chaos, processes"
        )

    @staticmethod
    def _make_registry(options: ExecOptions, strategy: Strategy) -> StoreRegistry:
        if strategy.concurrent_stores:
            default = lambda schema: ConcurrentSkipListStore(schema)  # noqa: E731
        else:
            default = lambda schema: TreeSetStore(schema)  # noqa: E731
        registry = StoreRegistry(default)
        for name, factory in options.store_overrides.items():
            registry.override(name, factory)
        return registry

    # -- put routing -------------------------------------------------------------
    #
    # ``self._handle_puts`` and ``self._fire_one`` are the executor's
    # bound methods, cached in __init__ — put routing and single-firing
    # dispatch are the two operations every tier specialises.

    def _immediate(self, tup: JTuple, result: TaskResult) -> None:
        """-noDelta path: straight into Gamma and fire now, inside the
        producing task."""
        name = tup.schema.name
        if name not in self._no_gamma:
            store = self.db.store(name)
            if self._lock is None:
                outcome = self.db.insert(tup)
            else:
                with self._lock:
                    outcome = self.db.insert(tup)
            result.meter.charge_store_op("insert", store)
            if outcome is InsertOutcome.DUPLICATE:
                self.stats.table(name).duplicates += 1
                return
            self.stats.table(name).gamma_inserts += 1
            if self._retention:
                self._note_retained(name, tup)
        else:
            self.stats.table(name).gamma_skipped += 1
        self._fire_rules(tup, result)

    def _note_retained(self, name: str, tup: JTuple) -> None:
        """Advance a retained table's incrementally-tracked max on a NEW
        Gamma insert (satellite of §5 step 4: pruning reads this instead
        of rediscovering the max with a full scan every step)."""
        ent = self._retention.get(name)
        if ent is not None:
            v = tup.values[ent[0]]
            if ent[2] is None or v > ent[2]:
                ent[2] = v

    def _enqueue_delta_batch(
        self, pending: list[tuple[JTuple, CostMeter]]
    ) -> list[bool]:
        """Post-batch (sequential) insertion of a step's deferred puts
        into the Delta tree, each charged to its producing task's meter.
        One :meth:`~repro.core.delta.DeltaTree.insert_batch` call covers
        the whole step; per-put semantics (Gamma-duplicate precheck,
        then Delta dedup) are exactly the former one-at-a-time loop —
        phase C never mutates Gamma, so prechecking all puts up front
        observes the same store state as interleaving would."""
        flags = [False] * len(pending)
        items: list[tuple[JTuple, object]] = []
        idx: list[int] = []
        ng = self._no_gamma
        db = self.db
        events = self.stats.table
        # codegen tier: a batch-local repeat always resolves to a Delta
        # dedup — phase C never mutates Gamma, so the repeat sees the
        # same precheck verdict as its first occurrence, and the tree
        # (which already holds or rejected that occurrence) dedups it —
        # so repeats skip the store probe and timestamping entirely
        seen: set[JTuple] | None = set() if self.executor.dedupe_phase_c else None
        for i, (tup, _meter) in enumerate(pending):
            name = tup.schema.name
            if seen is not None:
                if tup in seen:
                    events(name).duplicates += 1
                    continue
                seen.add(tup)
            if name not in ng and tup in db:
                events(name).duplicates += 1
                continue
            items.append((tup, db.timestamp(tup)))
            idx.append(i)
        if not items:
            return flags
        accepted = self.delta.insert_batch(items)
        delta_serial = self._delta_serial
        shared_cost = DEFAULT_WEIGHTS["delta_insert"] * delta_serial
        for k, ok in enumerate(accepted):
            i = idx[k]
            tup, meter = pending[i]
            name = tup.schema.name
            if ok:
                flags[i] = True
                events(name).delta_inserts += 1
                meter.charge("delta_insert")
                if delta_serial > 0.0:
                    meter.charge_shared("delta", shared_cost)
            else:
                events(name).duplicates += 1
        return flags

    # -- rule firing -------------------------------------------------------------

    def _fire_rules(self, tup: JTuple, result: TaskResult) -> None:
        sup = self._support
        if sup is None:
            for rule in self.program.rules_for(tup.schema.name):
                self._fire_one(rule, tup, result)
            return
        for rule in self.program.rules_for(tup.schema.name):
            # a rederived trigger re-fires only the rules whose firing
            # died; surviving (rule, trigger) firings stay indexed and
            # must not run twice (set semantics).  sup.live is frozen
            # during phase B, so this read is thread-safe.
            if (self._rule_index[id(rule)], tup) in sup.live:
                continue
            self._fire_one(rule, tup, result)

    # -- step machinery -------------------------------------------------------------

    def _new_result(self, trigger: JTuple) -> TaskResult:
        """A task result with a private meter, or — metering off — the
        shared no-op meter (every charge on it is a no-op, so sharing
        the singleton is safe)."""
        if self._metered:
            return TaskResult(trigger=trigger)
        return TaskResult(trigger=trigger, meter=NULL_METER)

    def _apply_retention(self) -> None:
        """Prune Gamma generations per the lifetime hints (§5 step 4).
        The per-table max is tracked incrementally at insert time
        (:meth:`_note_retained`), so a table is scanned exactly once —
        to collect the doomed generation — and only on the steps where
        its max actually advanced."""
        for name, ent in self._retention.items():
            pos, keep, max_seen, pruned_max = ent
            if max_seen is None or max_seen == pruned_max:
                continue
            store = self.db.store(name)
            cutoff = max_seen - keep + 1
            doomed = [t for t in store.scan() if t.values[pos] < cutoff]
            for t in doomed:
                store.discard(t)
            if doomed:
                self.stats.table(name).gamma_discarded += len(doomed)
            ent[3] = max_seen

    def _flush_task_events(self, results: list[TaskResult]) -> None:
        """Emit each task's buffered micro events plus a per-task
        summary, in submission order — the only order that is stable
        across strategies."""
        assert self.tracer is not None
        for r in results:
            for kind, data in r.events:
                self.tracer.emit(kind, data)
            self.tracer.emit(
                "task",
                {
                    "trigger": repr(r.trigger),
                    "duplicate": r.duplicate,
                    "fired": list(r.fired_rules),
                    "n_puts": len(r.puts),
                    "n_output": len(r.output),
                    "cost": r.meter.total_cost,
                    **_node_tag(r),
                },
            )

    def _run_step(self, batch: list[JTuple]) -> None:
        self.stats.on_step(len(batch))
        if self.tracer is not None:
            self.tracer.step = self.steps
            self.tracer.emit(
                "step",
                {
                    "step": self.steps,
                    "width": len(batch),
                    "frontier": [repr(t) for t in batch],
                },
            )
        # Phase A (sequential): move the whole class into Gamma, so the
        # rules fired in phase B see every tuple of the class ("positive
        # queries with timestamps <= T", §4) and Gamma stays read-only
        # while the batch fires.  One batched insert resolves each store
        # once per same-table run instead of once per tuple.  Under
        # retraction the support index inserts the class with its repair
        # interleaved, and each entry carries its refire/dead flags.
        sup = self._support
        if sup is None:
            prepared = list(zip(batch, self.db.insert_batch(batch, self._no_gamma)))
            if self._retention:
                for tup, outcome in prepared:
                    if outcome is InsertOutcome.NEW:
                        self._note_retained(tup.schema.name, tup)
        else:
            prepared = sup.prepare(batch)
        # Phase B: the execution tier fires the class (the scalar tier
        # builds one task per trigger and hands them to the strategy;
        # the codegen tier owns the whole-class firing loop)
        results = self.executor.fire_class(prepared)
        if self.tracer is not None:
            self._flush_task_events(results)
        if sup is None:
            # canonical output order: a step is one equivalence class,
            # so sorting its lines by the (ts, trigger, rule, line) key
            # makes the cumulative output a pure function of the firing
            # set — the order the support index keeps its keyed output
            # in — instead of leaking the within-class pop order when
            # several firings of one class print
            step_lines: list[tuple[tuple, str]] = []
            for r in results:
                if r.output:
                    step_lines.extend(zip(r.out_keys, r.output))
            if step_lines:
                if len(step_lines) > 1:
                    step_lines.sort(key=lambda kl: kl[0])
                self.output.extend(line for _key, line in step_lines)
        else:
            sup.record(results)
        # Phase C (sequential, deterministic order): apply buffered puts
        # as one Delta batch.
        pending = [(put, r.meter) for r in results for put in r.puts]
        if pending:
            flags = self._enqueue_delta_batch(pending)
            if self.tracer is not None:
                accepted = iter(flags)  # parallel to pending: results' puts, in order
                for r in results:
                    tag = _node_tag(r)
                    for put in r.puts:
                        self.tracer.emit(
                            "effect",
                            {"tuple": repr(put), "accepted": next(accepted), **tag},
                        )
        if self._retention:
            self._apply_retention()
        if self._metered:
            allocations = 0.0
            for r in results:
                allocations += r.meter.count("tuple_put") + r.meter.count("delta_insert")
                self.meter.merge(r.meter)
            retained = float(self.db.heap_tuples())
            self.strategy.account_step(results, allocations=allocations, retained=retained)

    # -- incremental surface: feed / drain / flush -----------------------------

    def feed(self, events: Iterable, source: str = "<feed>") -> FeedReport:
        """Admit external tuples into the engine.

        Every event is checked **before** any event applies, so a feed
        that raises leaves the kernel untouched: a tuple of no table of
        the program raises :class:`UnknownTableError`; a tuple whose
        timestamp is strictly below the high-water mark is rejected
        (``admission="strict"`` raises :class:`CausalityError`;
        ``"warn"`` quarantines it with an :class:`AdmissionWarning`).
        Admitted tuples run as one synthetic sequential task — exactly
        like the old engine's initial puts — so -noDelta cascades work
        during feeding too.

        Under ``ExecOptions(retraction=True)`` the iterable may also
        contain :class:`~repro.core.delta.Insert` / ``Delete`` events
        (plain tuples remain sugar for inserts).  The support index
        checks them instead of the admission gate (a ``Delete`` of no
        base fact raises :class:`~repro.core.errors.RetractionError`),
        and they apply in order: the inserts before a ``Delete`` reach
        Delta as one batch before it does, so an insert after a delete
        of the same fact re-asserts it.
        """
        sup = self._support
        schemas = self.program.schemas()
        checked: list[tuple[JTuple, bool]] = []
        quarantined: list[JTuple] = []
        fed: dict[JTuple, bool] = {}
        # the support index's repair subsumes the admission gate
        hwm = self.high_water if sup is None else None
        mode = self.options.admission
        for ev in events:
            delete = isinstance(ev, Delete)
            tup = ev.tuple if delete or isinstance(ev, Insert) else ev
            if delete and sup is None:
                raise EngineError(
                    "feed received a Delete event but retraction is not "
                    "enabled; run with ExecOptions(retraction=True)"
                )
            if schemas.get(tup.schema.name) is not tup.schema:
                raise UnknownTableError(
                    f"fed tuple {tup!r} belongs to no table of program "
                    f"{self.program.name!r}"
                )
            if sup is not None:
                sup.check(tup, delete, fed)
            elif hwm is not None and compare_timestamps(self.db.timestamp(tup), hwm) < 0:
                if mode == "strict":
                    raise CausalityError(
                        f"cannot feed {tup!r}: its timestamp is below the "
                        "completed high-water mark, so admitting it would "
                        "invalidate negative/aggregate answers already "
                        "computed below the mark (§4).  Feed tuples at or "
                        "above the mark, or use "
                        "ExecOptions(admission='warn') to quarantine late "
                        "arrivals"
                    )
                warnings.warn(
                    f"quarantined late tuple {tup!r}: timestamp below the "
                    "completed high-water mark",
                    AdmissionWarning,
                    stacklevel=3,
                )
                quarantined.append(tup)
                continue
            checked.append((tup, delete))
        self.quarantined.extend(quarantined)
        result = self._new_result(None)  # type: ignore[arg-type]
        admitted = 0
        for tup, delete in checked:
            if delete:
                self._admit(result)
                sup.delete(tup)
                continue
            admitted += 1
            name = tup.schema.name
            result.meter.charge("tuple_put")
            self.stats.on_put(source, name)
            if sup is not None:
                sup.insert(tup)
            if name in self._no_delta:
                self.stats.table(name).delta_bypass += 1
                self._immediate(tup, result)
            else:
                result.puts.append(tup)
        self._admit(result)
        if self.tracer is not None and result.events:
            for kind, data in result.events:
                self.tracer.emit(kind, data)
        self.output.extend(result.output)
        if self._metered:
            self.meter.merge(result.meter)
            self.strategy.account_serial(result.meter.total_cost)
        if self._retention:
            # -noDelta cascades can run entirely inside a feed (zero
            # engine steps); lifetime hints still apply
            self._apply_retention()
        return FeedReport(source=source, admitted=admitted, quarantined=quarantined)

    def _admit(self, result: TaskResult) -> None:
        """Move the feed's buffered puts into Delta as one batch."""
        if not result.puts:
            return
        pending = [(put, result.meter) for put in result.puts]
        result.puts.clear()
        flags = self._enqueue_delta_batch(pending)
        if self.tracer is not None:
            for (put, _meter), accepted in zip(pending, flags):
                self.tracer.emit("admit", {"tuple": repr(put), "accepted": accepted})

    def drain(self, until: float | None = None) -> int:
        """Run all-minimums steps until Delta is empty, or until the
        first step that ends past the ``perf_counter`` deadline
        ``until``; returns the number of steps taken.  Advances the
        high-water mark to the timestamp of each popped class."""
        before = self.steps
        max_steps = self.options.max_steps
        while self.delta:
            if max_steps is not None and self.steps >= max_steps:
                raise EngineError(
                    f"program exceeded max_steps={max_steps}; "
                    f"{len(self.delta)} tuples still pending"
                )
            self.steps += 1
            batch = self.delta.pop_min_class()
            self.high_water = self.db.timestamp(batch[-1])
            self._run_step(batch)
            if until is not None and perf_counter() >= until:
                break
        return self.steps - before

    def flush_stats(self) -> None:
        """Fold the query counts of the plans that served them into the
        collector — firings, puts and table events are already there —
        so its query side is settle-consistent (and snapshot-complete)."""
        self.stats.absorb_planned(self._plans.plans())
        self.executor.flush_stats()

    # -- trace bookends ---------------------------------------------------------

    def emit_run_start(self) -> None:
        if self.tracer is None:
            return
        fp = self.options.fault_plan
        self.tracer.emit(
            "run-start",
            {
                "program": self.program.name,
                "strategy": self.strategy.name,
                "threads": self.strategy.n_threads,
                "chaos_seed": self.options.chaos_seed,
                "fault_plan": fp.to_dict() if fp is not None else None,
            },
            meta=True,
        )

    def emit_run_end(self) -> None:
        if self.tracer is None:
            return
        self.tracer.step = self.steps
        self.tracer.emit(
            "run-end",
            {
                "steps": self.steps,
                "output": output_hash(self.output),
                "n_output": len(self.output),
                "table_sizes": dict(sorted(self.db.table_sizes().items())),
            },
        )

    # -- results ----------------------------------------------------------------

    def build_result(self, output: list[str], steps: int, wall: float) -> RunResult:
        return RunResult(
            program=self.program.name,
            strategy=self.strategy.name,
            threads=self.strategy.n_threads,
            output=output,
            wall_time=wall,
            report=self.strategy.report(),
            stats=self.stats,
            table_sizes=self.db.table_sizes(),
            meter=self.meter,
            steps=steps,
            options=self.options,
            database=self.db,
            trace=self.tracer,
            nodes=self.strategy.nodes(),
        )
