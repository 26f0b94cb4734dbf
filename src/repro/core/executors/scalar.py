"""The scalar execution tier: one task per trigger, fresh contexts.

This is the reference tier — the §5 semantics every other tier must be
byte-identical to — and the only one that works under every strategy:
each popped tuple becomes one :class:`~repro.exec.base.EngineTask`
(the paper's "we create only one task for that tuple", §5.2), each
firing gets a fresh :class:`~repro.core.rules.RuleContext`, and the
strategy is free to interleave the tasks however it likes.

The retraction repair path also builds its tasks here
(:meth:`ScalarExecutor.make_task` with ``refire``/``dead``): retraction
refuses every other tier, so repair and scalar firing share one code
path by construction.
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
            if k._support is not None
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
        duplicate — DRed rederivation) and ``dead`` (the tuple was
        killed by a repair cascade after it was popped — behave like a
        duplicate, trace-stable)."""
        k = self.kernel

        def run() -> TaskResult:
            result = k._new_result(tup)
            result.meter.charge("delta_pop")
            name = tup.schema.name
            dead_now = dead or (
                k._dead_step is not None and tup in k._dead_step
            )
            events = k.stats.table(name)
            if dead_now:
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

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        # Phase B: fire (possibly genuinely threaded).
        return self.kernel.strategy.run_batch(
            [self.make_task(tup, outcome) for tup, outcome in prepared]
        )
