"""Pluggable execution tiers for the step kernel.

The kernel's §5 step loop is fixed — pop the minimal class, phase A
insert, phase B fire, phase C apply effects — but *how* phase B fires
and how puts route is a per-run choice (``ExecOptions(execution=...)``).
Each choice is a :class:`~repro.core.executors.base.StepExecutor`:

* :mod:`~repro.core.executors.scalar` — one task per trigger through a
  fresh :class:`~repro.core.rules.RuleContext`; the reference tier and
  the only one every strategy supports;
* :mod:`~repro.core.executors.codegen` — rule bodies compiled at
  ``freeze()`` into straight-line drivers; sequential strategies only.

A third, :class:`repro.dist.superstep.ShardedExecutor`, fires a class
on the Gamma shards of a backend (``strategy="processes"``); it lives
with the rest of :mod:`repro.dist` and is handed to the kernel by the
sharded runtimes, because it needs a backend no option can name.

Tier selection, the refusal rows ``ExecOptions.__post_init__`` raises
on — the sharded tier's included — and the downgrade rows the kernel
notes at init all live in one table:
:mod:`~repro.core.executors.registry`.
"""

from repro.core.executors.base import StepExecutor
from repro.core.executors.registry import (
    EXECUTION_TIERS,
    check_execution_options,
    resolve_executor,
)

__all__ = [
    "StepExecutor",
    "EXECUTION_TIERS",
    "check_execution_options",
    "resolve_executor",
]
