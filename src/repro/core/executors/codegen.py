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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.database import InsertOutcome
from repro.core.executors.base import StepExecutor
from repro.core.executors.scalar import ScalarExecutor
from repro.core.ordering import Lit, Timestamp, output_keys
from repro.core.rules import Rule
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
                "metering downgraded to 'off' under execution='codegen': "
                "generated rule bodies carry no meter (results are "
                "identical; per-task costs are not collected)"
            )
        #: rules without a driver fire through this embedded scalar tier
        #: (its puts still route back through our handle_puts, so
        #: cascades re-enter generated drivers where they exist)
        self._scalar = ScalarExecutor(kernel)
        self._drivers: dict[int, Callable] = {}
        self._rule_gen_fires: dict[str, int] = {}
        self._rule_scalar_fires: dict[str, int] = {}
        #: (plan, rule_name, [n_calls, n_results]) per bound query site;
        #: merged into plan.rule_hits at flush, before the collector
        #: absorbs the plans
        self._site_hits: list = []
        #: tables whose orderby is all-literal share one timestamp
        #: object per run
        self._const_names: frozenset[str] = frozenset(
            name
            for name, schema in program.schemas().items()
            if all(isinstance(e, Lit) for e in schema.orderby)
        )
        self._const_ts: dict[str, Timestamp] = {}
        check_mode = kernel._check_mode
        compiled_count = 0
        for rule in program.rules:
            compiled, reason = compiled_for(program, rule)
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
                        self._drivers[id(rule)] = bind_driver(
                            compiled, kernel, rule, self._site_hits
                        )
                        compiled_count += 1
                        continue
                    except Exception as e:
                        reason = f"driver binding failed: {e!r}"
            kernel._note(f"codegen: rule {rule.name!r} kept scalar: {reason}")
        if compiled_count:
            kernel._note(
                f"codegen: {compiled_count} rule(s) compiled; inspect a "
                "driver with repro.plan.codegen.dump_generated_source(rule)"
            )

    # -- put routing ---------------------------------------------------------

    def handle_puts(
        self, ctx_puts: list[JTuple], result: TaskResult, rule_name: str
    ) -> None:
        """:meth:`StepExecutor.handle_puts` with the store / rule-list /
        tally lookups hoisted per same-table run — -noDelta cascades
        put thousands of same-table tuples per firing, and this loop is
        where they spend phase B."""
        k = self.kernel
        tallies = k._put_tallies
        nd = k._no_delta
        buffered = result.puts
        insert_into = k.db._insert_into
        fire = self.fire_one
        cur: str | None = None
        tt = rules = ret = store = None
        in_gamma = False
        for tup in ctx_puts:
            name = tup.schema.name
            key = (rule_name, name)
            tallies[key] = tallies.get(key, 0) + 1
            if name not in nd:
                buffered.append(tup)
                continue
            if name != cur:
                cur = name
                tt = k._tt(name)
                in_gamma = name not in k._no_gamma
                store = k.db.store(name) if in_gamma else None
                rules = k.program.rules_for(name)
                ret = k._retention.get(name)
            tt[0] += 1
            if in_gamma:
                if insert_into(store, tup) is InsertOutcome.DUPLICATE:
                    tt[1] += 1
                    continue
                tt[2] += 1
                if ret is not None:
                    v = tup.values[ret[0]]
                    if ret[2] is None or v > ret[2]:
                        ret[2] = v
            else:
                tt[3] += 1
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
            counts = self._rule_scalar_fires
            counts[rule.name] = counts.get(rule.name, 0) + 1
            self._scalar.fire_one(rule, tup, result)
            return
        k = self.kernel
        name = tup.schema.name
        tallies = k._fire_tallies
        key = (name, rule.name)
        tallies[key] = tallies.get(key, 0) + 1
        counts = self._rule_gen_fires
        counts[rule.name] = counts.get(rule.name, 0) + 1
        ts = self._const_ts.get(name)
        if ts is None:
            ts = k.db.timestamp(tup)
            if name in self._const_names:
                self._const_ts[name] = ts
        puts: list[JTuple] = []
        out: list[str] = []
        driver(tup, ts, puts, out)
        if out:
            result.output.extend(out)
            result.out_keys.extend(
                output_keys(ts, tup, k._rule_index[id(rule)], len(out))
            )
            k.stats.rule(rule.name).output_lines += len(out)
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
        tt = k._tt
        fire = self.fire_one
        for tup, outcome in prepared:
            name = tup.schema.name
            if outcome is InsertOutcome.DUPLICATE:
                sink.duplicate = True
                tt(name)[1] += 1
                continue
            if outcome is None:  # -noGamma table
                tt(name)[3] += 1
            else:
                tt(name)[2] += 1
            for rule in rules_for(name):
                fire(rule, tup, sink)
        return [sink]

    # -- bookkeeping ---------------------------------------------------------

    def flush_stats(self) -> None:
        k = self.kernel
        # fold the generated sites' [n_calls, n_results] counters into
        # the shared plans' rule_hits BEFORE the collector absorbs them
        # (kernel.flush_stats orders executor flush first)
        for plan, rule_name, hits in self._site_hits:
            if hits[0]:
                hit = plan.rule_hits.get(rule_name)
                if hit is None:
                    plan.rule_hits[rule_name] = [hits[0], hits[1]]
                else:
                    hit[0] += hits[0]
                    hit[1] += hits[1]
                hits[0] = 0
                hits[1] = 0
        # run totals: the counters accumulate across settles and each
        # settle rewrites the rule's one line in place
        gen, scalar = self._rule_gen_fires, self._rule_scalar_fires
        for name in sorted(set(gen) | set(scalar)):
            prefix = f"codegen: rule {name!r} fired "
            k.stats.replace_note(
                prefix,
                f"{prefix}{gen.get(name, 0)} generated / {scalar.get(name, 0)} scalar",
            )
