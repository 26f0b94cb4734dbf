"""The scalar execution tier: one task per trigger, fresh contexts.

This is the reference tier — the §5 semantics every other tier must be
byte-identical to — and the only one that works under every strategy:
each popped tuple becomes one :class:`~repro.exec.base.EngineTask`
(the paper's "we create only one task for that tuple", §5.2), each
firing gets a fresh :class:`~repro.core.rules.RuleContext`, and the
strategy is free to interleave the tasks however it likes.

Under ``ExecOptions(retraction=True)`` every firing leaves a
:class:`~repro.core.support.FiringRecord` on its task result, and each
entry phase A hands :meth:`ScalarExecutor.fire_class` carries the
support index's finished refire/dead flags (:meth:`make_task`); the
codegen tier's recording drivers reproduce both.
"""

from __future__ import annotations

from repro.core.database import InsertOutcome
from repro.core.executors.base import StepExecutor
from repro.core.rules import Rule, RuleContext
from repro.core.support import FiringRecord
from repro.core.tuples import JTuple
from repro.exec.base import EngineTask, TaskResult

__all__ = ["ScalarExecutor"]


class ScalarExecutor(StepExecutor):
    name = "scalar"

    def __init__(self, kernel):
        super().__init__(kernel)
        #: retraction mode: every firing is recorded for the support index
        self._records = kernel.options.retraction

    # -- firing --------------------------------------------------------------

    def fire_one(self, rule: Rule, tup: JTuple, result: TaskResult) -> None:
        k = self.kernel
        edges = k.stats.trigger_edges
        key = (tup.schema.name, rule.name)
        edges[key] = edges.get(key, 0) + 1
        result.meter.charge("rule_fire")
        trigger_ts = k.db.timestamp(tup)
        rec = (
            FiringRecord(rule.name, k._rule_index[id(rule)], tup, trigger_ts)
            if self._records
            else None
        )
        ctx = RuleContext(
            k.db,
            k.program.decls,
            result.meter,
            rule,
            tup,
            trigger_ts,
            k._plans,
            k._check_mode,
            k._lock,
            k.strategy.yield_point,
            result.events if k.tracer is not None else None,
            rec,
        )
        rule.body(ctx, tup)
        ctx.finish()
        result.fired_rules.append(rule.name)
        if ctx.output:
            self.deliver(result, rule.name, k._rule_index[id(rule)], tup, trigger_ts, ctx.output)
        if rec is not None:
            rec.puts = tuple(ctx.puts)
            rec.lines = tuple(ctx.output)
            result.firings.append(rec)
        k._handle_puts(ctx.puts, result, rule.name)

    # -- task construction ---------------------------------------------------

    def make_task(
        self,
        tup: JTuple,
        outcome: InsertOutcome | None,
        refire: bool = False,
        dead: bool = False,
    ) -> EngineTask:
        """Task closure for one popped tuple.  ``outcome`` is the Gamma
        insertion result decided in the sequential prepare phase; the
        task charges for it and fires the triggered rules.  Retraction
        mode adds ``refire`` (fire even though the Gamma insert is a
        duplicate — DRed rederivation) and ``dead`` (a repair cascade
        killed the tuple during phase A — behave like a duplicate,
        trace-stable)."""
        k = self.kernel

        def run() -> TaskResult:
            result = k._new_result(tup)
            result.meter.charge("delta_pop")
            name = tup.schema.name
            events = k.stats.table(name)
            if dead:
                result.duplicate = True
                events.duplicates += 1
                return result
            if outcome is None:  # -noGamma table
                events.gamma_skipped += 1
            else:
                result.meter.charge_store_op("insert", k.db.store(name))
                if outcome is InsertOutcome.DUPLICATE:
                    events.duplicates += 1
                    if not refire:
                        result.duplicate = True
                        return result
                else:
                    events.gamma_inserts += 1
            k._fire_rules(tup, result)
            return result

        return EngineTask(trigger=tup, run=run)

    def fire_class(self, prepared: list[tuple]) -> list[TaskResult]:
        # Phase B: fire (possibly genuinely threaded); a retraction
        # entry is (trigger, outcome, refire, dead)
        return self.kernel.strategy.run_batch([self.make_task(*entry) for entry in prepared])
