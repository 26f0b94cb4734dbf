"""Structured trace events — the record half of the determinism contract.

§1.3's promise is that strategy and thread count change *time but never
results*.  A trace makes that promise a checkable artifact: the engine
emits one event stream per run, and two runs are *equivalent* iff their
**semantic** events match — step frontiers, task outcomes, queries,
puts, and effect applications.  Everything timing- or schedule-shaped
(costs, scheduling decisions, injected faults) is either carried in
``VOLATILE_KEYS`` fields or flagged ``meta`` so that
:func:`repro.trace.diff.trace_diff` can ignore it when comparing runs
under different strategies, and include it when verifying an exact
replay of one recorded schedule.

Event kinds
-----------

``run-start``  (meta)      run configuration: program, strategy, seeds
``step``       (semantic)  one all-minimums step: index, width, frontier
``task``       (semantic)  one task's outcome: trigger, fired rules
``query``      (semantic)  one Gamma query: table, kind, result count
``put``        (semantic)  one ``ctx.put``: rule, table, tuple
``effect``     (semantic)  one deferred put applied to Delta (phase C)
``admit``      (semantic)  one externally fed tuple entering Delta
                           (initial puts and session ``feed`` calls);
                           carried at the feed's current step, so
                           chunked-feed comparisons treat admits as a
                           step-independent multiset
``retract``    (semantic)  one tuple removed by retraction repair
                           (``Delete`` of a base fact, over-delete
                           cascade, or grown-result invalidation);
                           ``pending: true`` marks a tuple pulled from
                           Delta before it was ever processed
``sched``      (meta)      one batch's chaos schedule: order/picks/faults
``fault``      (meta)      one injected fault that actually triggered
``run-end``    (semantic)  run summary: steps, output hash, table sizes

Sharded runs (:mod:`repro.dist`, both backends) tag their
``task``/``query``/``put``/``effect`` events with the ``node`` that
produced them, in one causal trace in the kernel's deterministic step
order.  ``node`` is placement, not
semantics — it lives in ``VOLATILE_KEYS`` so a sharded trace still
compares equal to the single-node trace of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent", "VOLATILE_KEYS", "semantic_key"]

#: data keys excluded from event comparison: they vary with strategy,
#: host load, store representation, or tuple placement, never with
#: program semantics.
VOLATILE_KEYS = frozenset({"cost", "wall_time", "node"})


@dataclass(slots=True)
class TraceEvent:
    """One recorded engine event."""

    seq: int                      #: global emission index within the run
    step: int                     #: engine step the event belongs to (0 = init)
    kind: str                     #: see module docstring
    data: dict[str, Any] = field(default_factory=dict)
    meta: bool = False            #: scheduling/diagnostic, not semantic

    def to_json(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "seq": self.seq,
            "step": self.step,
            "kind": self.kind,
            "data": self.data,
        }
        if self.meta:
            d["meta"] = True
        return d

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(d["seq"]),
            step=int(d["step"]),
            kind=str(d["kind"]),
            data=dict(d.get("data", {})),
            meta=bool(d.get("meta", False)),
        )


def _canonical(value: Any) -> Any:
    """JSON-shaped canonical form so in-memory and round-tripped events
    compare equal (tuples become lists, dict keys become strings)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def semantic_key(event: TraceEvent) -> tuple:
    """The comparison key of an event: kind + step + non-volatile data.
    ``seq`` is excluded (meta events shift it between runs)."""
    data = {
        k: _canonical(v) for k, v in event.data.items() if k not in VOLATILE_KEYS
    }
    return (event.kind, event.step, tuple(sorted(data.items(), key=lambda kv: kv[0])))
