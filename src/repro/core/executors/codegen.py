"""The codegen execution tier: freeze()-time compiled rule drivers (PR 9).

Phase B fires each rule through a driver generated once per program by
:mod:`repro.plan.codegen` — the body's query-and-put loop as
straight-line Python with pre-resolved field indices, inline
:class:`~repro.core.query.Query` construction against prebound
``PreparedSelect.run`` calls (or direct primary-key lookups), and
statically-decided causality checks.  Rules the compiler cannot prove
equivalent keep the scalar path, per rule, with the reason noted on the
stats collector.  Queries run live against Gamma, so results are
byte-identical to the scalar tier by construction.  Sequential
strategies only; the registry downgrades everything else, including
traced runs (generated bodies emit no trace events).

Under retraction the kernel binds *recording* drivers instead — each
firing builds its :class:`~repro.core.support.FiringRecord` as the
scalar tier's does — and phase B honours the support index's
refire/dead flags and its live-firing skip.  A kernel without a support
index binds the plain drivers and pays for none of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.database import InsertOutcome
from repro.core.executors.base import StepExecutor
from repro.core.executors.scalar import ScalarExecutor
from repro.core.rules import Rule
from repro.core.support import FiringRecord
from repro.core.tuples import JTuple
from repro.exec.base import TaskResult
from repro.exec.metering import NULL_METER
from repro.plan.codegen import bind_driver, compiled_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepKernel

__all__ = ["CodegenExecutor"]


class CodegenExecutor(StepExecutor):
    name = "codegen"
    dedupe_phase_c = True

    def __init__(self, kernel: "StepKernel"):
        super().__init__(kernel)
        program = kernel.program
        if kernel._metered:
            kernel._metered = False
            kernel._note(
                "metering.forced-off",
                "metering downgraded to 'off' under execution='codegen': "
                "generated rule bodies carry no meter (results are "
                "identical; per-task costs are not collected)"
            )
        #: rules without a driver fire through this embedded scalar tier
        #: (its puts still route back through our handle_puts, so
        #: cascades re-enter generated drivers where they exist)
        self._scalar = ScalarExecutor(kernel)
        self._drivers: dict[int, Callable] = {}
        #: retraction mode: recording drivers, and phase B reads the
        #: support index's flags
        self._record = kernel._support is not None
        if self._record:
            self.fire_class = self._fire_recorded  # type: ignore[method-assign]
        check_mode = kernel._check_mode
        for rule in program.rules:
            compiled, reason = compiled_for(program, rule, self._record)
            if compiled is not None and reason is None:
                if compiled.has_neg_agg and not (
                    check_mode == "off" or rule.assume_stratified
                ):
                    reason = (
                        "negative/aggregate queries require dynamic "
                        f"adjudication under causality_check={check_mode!r} "
                        "(declare assume_stratified or set "
                        "causality_check='off')"
                    )
                else:
                    try:
                        self._drivers[id(rule)] = bind_driver(compiled, kernel, rule)
                        continue
                    except Exception as e:
                        reason = f"driver binding failed: {e!r}"
            kernel._note(
                "codegen.kept-scalar",
                f"codegen: rule {rule.name!r} kept scalar: {reason}",
                rule.name,
            )
        if self._drivers:
            kernel._note(
                "codegen.compiled",
                f"codegen: {len(self._drivers)} rule(s) compiled; inspect a "
                "driver with repro.plan.codegen.dump_generated_source(rule)"
            )

    # -- put routing ---------------------------------------------------------

    def handle_puts(
        self, ctx_puts: list[JTuple], result: TaskResult, rule_name: str
    ) -> None:
        """:meth:`StepExecutor.handle_puts` with the store / rule-list /
        record lookups hoisted per same-table run — -noDelta cascades
        put thousands of same-table tuples per firing, and this loop is
        where they spend phase B."""
        k = self.kernel
        edges = k.stats.put_edges
        nd = k._no_delta
        buffered = result.puts
        insert_into = k.db._insert_into
        fire = self.fire_one
        cur: str | None = None
        events = rules = ret = store = None
        in_gamma = False
        for tup in ctx_puts:
            name = tup.schema.name
            key = (rule_name, name)
            edges[key] = edges.get(key, 0) + 1
            if name not in nd:
                buffered.append(tup)
                continue
            if name != cur:
                cur = name
                events = k.stats.table(name)
                in_gamma = name not in k._no_gamma
                store = k.db.store(name) if in_gamma else None
                rules = k.program.rules_for(name)
                ret = k._retention.get(name)
            events.delta_bypass += 1
            if in_gamma:
                if insert_into(store, tup) is InsertOutcome.DUPLICATE:
                    events.duplicates += 1
                    continue
                events.gamma_inserts += 1
                if ret is not None:
                    v = tup.values[ret[0]]
                    if ret[2] is None or v > ret[2]:
                        ret[2] = v
            else:
                events.gamma_skipped += 1
            for rule in rules:
                fire(rule, tup, result)

    # -- firing --------------------------------------------------------------

    def fire_one(self, rule: Rule, tup: JTuple, result: TaskResult) -> None:
        """Fire through the rule's generated driver, or the embedded
        scalar tier when the rule refused codegen.  The driver takes its
        per-firing state (trigger, timestamp, put buffer, output buffer)
        as arguments, so -noDelta cascades re-enter it safely."""
        driver = self._drivers.get(id(rule))
        if driver is None:
            self._scalar.fire_one(rule, tup, result)
            return
        k = self.kernel
        edges = k.stats.trigger_edges
        key = (tup.schema.name, rule.name)
        edges[key] = edges.get(key, 0) + 1
        ts = k.db.timestamp(tup)
        puts: list[JTuple] = []
        out: list[str] = []
        if self._record:
            rec = FiringRecord(rule.name, k._rule_index[id(rule)], tup, ts)
            driver(tup, ts, puts, out, rec)
            rec.puts, rec.lines = tuple(puts), tuple(out)
            result.firings.append(rec)
        else:
            driver(tup, ts, puts, out)
        if out:
            self.deliver(result, rule.name, k._rule_index[id(rule)], tup, ts, out)
        if puts:
            self.handle_puts(puts, result, rule.name)

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        """Codegen phase B: every (trigger, rule) pair in scalar
        submission order through the drivers.  Tracing always downgrades
        the whole run (registry row), so one sink result accumulates the
        class's puts and output in the order the per-task results would
        concatenate to."""
        k = self.kernel
        sink = TaskResult(trigger=None, meter=NULL_METER)  # type: ignore[arg-type]
        rules_for = k.program.rules_for
        events = k.stats.table
        fire = self.fire_one
        for tup, outcome in prepared:
            name = tup.schema.name
            if outcome is InsertOutcome.DUPLICATE:
                sink.duplicate = True
                events(name).duplicates += 1
                continue
            if outcome is None:  # -noGamma table
                events(name).gamma_skipped += 1
            else:
                events(name).gamma_inserts += 1
            for rule in rules_for(name):
                fire(rule, tup, sink)
        return [sink]

    def _fire_recorded(self, prepared: list[tuple]) -> list[TaskResult]:
        """:meth:`fire_class` under retraction, where an entry is
        (trigger, outcome, refire, dead): a dead trigger fires nothing,
        a duplicate fires only when refired, and the kernel's
        ``_fire_rules`` skips every (rule, trigger) firing the support
        index still holds — the scalar tier's task, per trigger."""
        k = self.kernel
        sink = TaskResult(trigger=None, meter=NULL_METER)  # type: ignore[arg-type]
        events = k.stats.table
        fire_rules = k._fire_rules
        for tup, outcome, refire, dead in prepared:
            counts = events(tup.schema.name)
            if dead or outcome is InsertOutcome.DUPLICATE:
                counts.duplicates += 1
                if dead or not refire:
                    sink.duplicate = True
                    continue
            else:  # retraction refuses -noGamma: every trigger is stored
                counts.gamma_inserts += 1
            fire_rules(tup, sink)
        return [sink]

    # -- bookkeeping ---------------------------------------------------------

    def flush_stats(self) -> None:
        """Re-report each fired rule's run total, one line per rule and
        last, in rule-name order — a restored kernel, whose state
        document carries no tier notes, reports the same lines.  A rule
        has a driver or has none, so its firings all went one way."""
        stats = self.kernel.stats
        driven = {r.name for r in self.kernel.program.rules if id(r) in self._drivers}
        fired: dict[str, int] = {}
        for (_table, name), n in stats.trigger_edges.items():
            fired[name] = fired.get(name, 0) + n
        stats.note_records[:] = [n for n in stats.note_records if n.code != "codegen.fired"]
        for name, n in sorted(fired.items()):
            gen, scalar = (n, 0) if name in driven else (0, n)
            stats.note(
                "codegen.fired",
                f"codegen: rule {name!r} fired {gen} generated / {scalar} scalar",
                name,
            )
