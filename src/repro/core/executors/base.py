"""The :class:`StepExecutor` protocol: one execution tier of the kernel.

An executor owns phase B (firing the popped class) and put routing for
one :class:`~repro.core.kernel.StepKernel`.  The kernel keeps everything
an execution tier must *not* vary — the Delta tree, Gamma, admission,
retention, phase C ordering — and retraction repair lives in the
kernel's :class:`~repro.core.support.SupportIndex`; a tier is delegated
exactly three operations:

* :meth:`StepExecutor.fire_class` — phase B for one prepared class,
  the kernel's one phase-B call;
* :meth:`StepExecutor.fire_one` — fire a single (rule, trigger) pair;
  the kernel routes -noDelta cascades and retraction refires through
  this, so a tier's fast path and its cascade path stay one code path;
* :meth:`StepExecutor.handle_puts` — route one firing's puts (buffer
  for phase C, or cascade -noDelta tables immediately).

Every tier counts a firing, a put and a table event in the kernel's
collector where it happens, and a query on the plan that served it;
``flush_stats`` runs at settle time for what a tier re-reports per
settle (codegen's fired-count notes).

Which tier a run gets — including refusals raised by
``ExecOptions.__post_init__`` and silent-with-a-note downgrades to
scalar — is decided by one table in
:mod:`repro.core.executors.registry`, never by the tiers themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.database import InsertOutcome
from repro.core.ordering import output_keys
from repro.core.tuples import JTuple
from repro.exec.base import TaskResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepKernel
    from repro.core.rules import Rule

__all__ = ["StepExecutor"]


class StepExecutor:
    """Base class of every execution tier.

    Subclasses set :attr:`name` and implement :meth:`fire_one` and
    :meth:`fire_class`; :meth:`handle_puts` has a default (buffer
    non--noDelta puts, cascade the rest through the kernel) that the
    codegen tier overrides with its hoisted loop.
    """

    #: registry name, matches the ``ExecOptions.execution`` value
    name = "?"
    #: phase C may skip store probe + timestamping for batch-local
    #: repeated puts (sound only when phase B never mutates Gamma
    #: outside the -noDelta cascade path)
    dedupe_phase_c = False

    def __init__(self, kernel: "StepKernel"):
        self.kernel = kernel

    # -- firing --------------------------------------------------------------

    def fire_one(self, rule: "Rule", tup: JTuple, result: TaskResult) -> None:
        """Fire one rule for one trigger, appending effects to
        ``result``.  Must be safe to call re-entrantly from a -noDelta
        cascade started by its own puts."""
        raise NotImplementedError

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        """Phase B for one popped class.  ``prepared`` pairs each
        trigger with its phase-A insert outcome, in pop order.  Under
        retraction an entry also carries the support index's refire
        and dead flags."""
        raise NotImplementedError

    # -- put routing ---------------------------------------------------------

    def handle_puts(
        self, ctx_puts: list[JTuple], result: TaskResult, rule_name: str
    ) -> None:
        """Route a rule's puts.  -noDelta tables cascade immediately
        inside the producing task (§5.1); everything else is buffered on
        the task result and enters Delta after the batch joins — which
        keeps Delta mutation out of the parallel phase and effect order
        deterministic."""
        k = self.kernel
        edges = k.stats.put_edges
        for tup in ctx_puts:
            name = tup.schema.name
            key = (rule_name, name)
            edges[key] = edges.get(key, 0) + 1
            if name in k._no_delta:
                k.stats.table(name).delta_bypass += 1
                k._immediate(tup, result)
            else:
                result.puts.append(tup)

    def deliver(self, result: TaskResult, rule: str, rule_index: int, tup, ts, out: list) -> None:
        """Hand the lines one firing printed to its task result, under
        the keys the kernel sorts a step's output by (the same keys the
        support index files them under), and count them."""
        result.output.extend(out)
        result.out_keys.extend(output_keys(ts, tup, rule_index, len(out)))
        self.kernel.stats.rule(rule).output_lines += len(out)

    # -- bookkeeping ---------------------------------------------------------

    def flush_stats(self) -> None:
        """Settle-time hook (see the module docstring); default:
        nothing."""
