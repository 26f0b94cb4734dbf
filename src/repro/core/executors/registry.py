"""One table for execution-tier selection, refusal, and downgrade.

Both kinds of row live here, keyed by tier — an ``execution`` value, or
``"processes"`` for the sharded tier, which the ``strategy`` selects
(:mod:`repro.dist.superstep`):

* **refusal rows** are *configuration contradictions* — combinations the
  run could never honour even in principle (codegen on the worker mesh,
  a ``-noDelta`` cascade on a shard that holds no Delta tree).  They raise
  the canonical ``invalid ExecOptions: ...`` error from
  ``ExecOptions.__post_init__`` via :func:`check_execution_options`, so
  an impossible request fails before any engine state exists — for the
  sharded tier, before any worker is forked.
* **downgrade rows** are *environmental misses* — the option set is
  coherent but this particular run cannot arm the tier (non-sequential
  strategy, tracing a tier that emits no trace events).  :func:`resolve_executor` notes the reason on the stats
  collector and falls back to the scalar tier; results are identical
  either way, because execution tiers never change semantics.

The split is a contract: anything a *different* option value would fix
refuses; anything that depends on the run environment downgrades.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executors.base import StepExecutor
    from repro.core.kernel import StepKernel

__all__ = [
    "EXECUTION_TIERS",
    "REFUSALS",
    "DOWNGRADES",
    "check_execution_options",
    "resolve_executor",
]

#: valid ``ExecOptions.execution`` values, in documentation order
EXECUTION_TIERS = ("scalar", "codegen")


def _knobs(options: Any, *names: str) -> dict[str, Any]:
    return {"execution": options.execution, **{n: getattr(options, n) for n in names}}


def _sharded(knob: str, default: Any, reason: str):
    """A row of the sharded tier: ``knob`` set off its default.  Every
    knob the kernel would *act* on where a shard cannot follow refuses;
    the rest (``max_steps``, ``trace``, ``causality_check``,
    ``admission``, ``threads``, ``metering``) compose through the one
    step loop."""

    def offending(options: Any) -> dict | None:
        value = getattr(options, knob)
        if value == default:
            return None
        shown = sorted(value) if isinstance(value, (frozenset, Mapping)) else value
        return {"strategy": options.strategy, knob: shown}

    return ("processes", offending, reason)


# -- refusal rows ------------------------------------------------------------
# (tier, offending(options) -> knob dict | None, reason); the knob dict
# feeds program._refuse, which renders the canonical
# ``invalid ExecOptions: knob=value[, ...] -- reason`` message.

REFUSALS: list[tuple[str, Callable[[Any], dict | None], str]] = [
    (
        "codegen",
        lambda o: _knobs(o, "strategy") if o.strategy == "processes" else None,
        "codegen execution is not supported by the "
        "multiprocess shard runtime yet",
    ),
    _sharded(
        "retraction",
        False,
        "retraction is not supported by the multiprocess shard runtime yet; "
        "use sequential/forkjoin/threads/chaos",
    ),
    _sharded(
        "no_delta",
        frozenset(),
        "a -noDelta put cascades inside the producing task, but a sharded "
        "firing only returns its puts in a record: the cascade would fire "
        "on the coordinator, outside every shard",
    ),
    _sharded(
        "no_gamma",
        frozenset(),
        "the sharded tier lands every class in its owners' Gamma shards "
        "before firing it and checks the shards against the control "
        "replica; a -noGamma table is stored in neither",
    ),
    _sharded(
        "retention",
        {},
        "retention hints prune the control replica only; the shards "
        "would keep the discarded generations and answer queries from them",
    ),
    _sharded(
        "store_overrides",
        {},
        "native/array stores are whole-table structures accessed through "
        "ctx.native, which has no meaning across shards; run such "
        "programs single-node",
    ),
]


def check_execution_options(options: Any, refuse: Callable[..., None]) -> None:
    """Validate ``options.execution`` against the refusal rows.

    ``refuse`` is :func:`repro.core.program._refuse`, injected by the
    caller so this module never imports :mod:`repro.core.program`
    (which imports the kernel, which imports the executors)."""
    if options.execution not in EXECUTION_TIERS:
        refuse(
            "unknown execution mode; valid modes: " + ", ".join(EXECUTION_TIERS),
            execution=options.execution,
        )
    for tier, offending, reason in REFUSALS:
        if tier not in (options.execution, options.strategy):
            continue
        knobs = offending(options)
        if knobs:
            refuse(reason, **knobs)


# -- downgrade rows ----------------------------------------------------------
# (tier, applies(kernel) -> bool, note(kernel) -> str); rows are checked
# in order and the FIRST applicable one downgrades the run to scalar
# with its note — later rows are conditions the scalar run no longer
# cares about.


DOWNGRADES: list[tuple[str, Callable[["StepKernel"], bool], Callable[["StepKernel"], str]]] = [
    (
        "codegen",
        lambda k: k.strategy.name != "sequential",
        lambda k: (
            "execution='codegen' ignored: the generated firing path is "
            f"sequential-only and this run uses the {k.strategy.name!r} "
            "strategy; all rules fire through the scalar path"
        ),
    ),
    (
        "codegen",
        lambda k: k.tracer is not None,
        lambda k: (
            "execution='codegen' ignored: generated rule bodies emit no "
            "trace events; trace=True runs fire through the scalar path"
        ),
    ),
]


def resolve_executor(kernel: "StepKernel") -> "StepExecutor":
    """Build the kernel's executor: the requested tier, or scalar with a
    downgrade note when an applicable row says this run cannot arm it.
    Tier classes import lazily — the registry is consulted by
    ``ExecOptions.__post_init__`` long before any tier is needed."""
    from repro.core.executors.scalar import ScalarExecutor

    if kernel.options.strategy == "processes":
        from repro.dist.superstep import ShardedExecutor  # local: dist imports the kernel

        return ShardedExecutor(kernel)
    requested = kernel.options.execution
    if requested != "scalar":
        for tier, applies, note in DOWNGRADES:
            if tier == requested and applies(kernel):
                kernel._note(f"{tier}.ignored", note(kernel))
                return ScalarExecutor(kernel)
        from repro.core.executors.codegen import CodegenExecutor

        return CodegenExecutor(kernel)
    return ScalarExecutor(kernel)
