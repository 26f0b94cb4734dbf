"""Every weight of the virtual-time model, in one place.

Cores and computers are priced by one :class:`~repro.simcore.machine.Machine`;
what differs between a fork/join pool, the ``-sequential`` build and a
simulated cluster is only which constants below it runs with.

* :data:`DEFAULT_WEIGHTS` — work units per metered op that is not a
  store op (store ops are priced by each store's
  :class:`~repro.gamma.base.CostProfile`).
* :class:`CalibratedCosts` — the machine: spawn and join costs,
  contention growth per shared resource, and the GC-pressure tax.  The
  defaults were calibrated once against the paper's figures; a run sets
  its own through ``ExecOptions.calib``.
* :data:`CLUSTER` and :data:`NET` — the sharded cost model's machine
  (one core per node, a coordination barrier per superstep, no
  collector) and its interconnect (a :class:`NetModel`).  Neither is
  reachable from ``ExecOptions``.

Why speedup curves bend (paper evidence):

* the Delta tree serialises concurrent inserts — "the inner loop of the
  program puts several million Estimate tuples through the Delta tree,
  which is still not sufficiently scalable to cope with a large number
  of threads contending for the same branches of the tree" (§6.5,
  Fig 12's ≈4× plateau);
* concurrent Gamma structures cost more than sequential ones — "the
  absolute speedup figures are about 35 % lower, because the sequential
  Java data structures (eg. TreeMap) are significantly faster than the
  equivalent concurrent data structures" (§6.2);
* dense numeric kernels saturate memory bandwidth, flattening Fig 11
  beyond ~20 cores;
* fork/join dispatch adds a per-task spawn cost and a per-step join
  barrier;
* garbage collection: "this program inserts more than 8 million PvWatts
  tuples that cannot be garbage collected into the Gamma database and
  ... we have observed up to 60 % of the elapsed time being spent in
  the garbage collector" (§6.2).  Each step pays a mostly-serial tax
  proportional to the objects it allocated, amplified by how full the
  heap already is::

      gc_time = alloc · allocations · (1 + amplify · retained / (retained + half_full)) · serial_share

  ``retained`` counts *boxed tuples* on the heap — native-array stores
  report (near) zero (:meth:`TableStore.heap_tuples`), which is why the
  §6.4/§6.6 native-array optimisation and the Disruptor's recycling
  (§6.3) help scalability, not just raw speed.  The tax is
  stop-the-world time, so it hurts parallel efficiency far more than
  sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DEFAULT_WEIGHTS", "CalibratedCosts", "NO_GC", "CLUSTER", "NetModel", "NET"]

#: Work units charged per op for non-store counters (``CostMeter.charge``
#: without an explicit cost).
DEFAULT_WEIGHTS: dict[str, float] = {
    "tuple_put": 1.0,      # a rule issuing put (allocation + handoff)
    "delta_insert": 7.0,   # insertion into the Delta tree (calibrated to the paper's §6.2 noDelta effect)
    "delta_pop": 5.5,      # removal of one tuple from the Delta tree
    "rule_fire": 0.5,      # dispatch overhead of firing a rule
    "reduce_op": 0.3,      # one reducer step
}


def _default_growth() -> dict[str, float]:
    return {
        # the Delta tree's hot branches ping-pong badly (Fig 12)
        "delta": 0.06,
        # memory bandwidth saturates gently (Fig 11 flattening)
        "membw": 0.035,
    }


@dataclass(frozen=True)
class CalibratedCosts:
    """All machine-level tunables of the virtual-time model."""

    #: per-task fork/join spawn overhead (work units)
    spawn_cost: float = 0.8
    #: per-step join-barrier cost, multiplied by log2(cores)
    barrier_cost: float = 2.0
    #: serialisable fraction of Delta-tree traffic when shared
    delta_serial_fraction: float = 0.30
    #: contention growth per extra core, by resource name
    resource_growth: dict[str, float] = field(default_factory=_default_growth)
    #: default growth for resources not named above (locks/CAS retry)
    default_growth: float = 0.10
    #: work units of collector time per allocated (retained or transient) object
    gc_alloc_cost: float = 0.35
    #: how strongly a full heap amplifies the per-allocation tax
    gc_amplify: float = 3.0
    #: retained-object count at which amplification reaches half strength
    gc_half_full: float = 200_000.0
    #: fraction of GC work that is stop-the-world (the rest is concurrent)
    gc_serial_share: float = 0.8

    def growth(self, resource: str) -> float:
        return self.resource_growth.get(resource, self.default_growth)

    def gc_tax(self, allocations: float, retained: float) -> float:
        """Serial GC time (work units) charged to one step."""
        if allocations <= 0:
            return 0.0
        pressure = 1.0 + self.gc_amplify * retained / (retained + self.gc_half_full)
        return self.gc_alloc_cost * allocations * pressure * self.gc_serial_share


#: the calibration with GC effectively disabled (for ablations)
NO_GC = CalibratedCosts(gc_alloc_cost=0.0)

#: the sharded cost model's machine: one core per node, so no spawn;
#: per superstep a coordination barrier (the global minimal-class
#: agreement) of 6 work units per log2(nodes); no collector
CLUSTER = CalibratedCosts(spawn_cost=0.0, barrier_cost=6.0, gc_alloc_cost=0.0)


@dataclass(frozen=True)
class NetModel:
    """Interconnect constants (virtual work units)."""

    latency: float = 40.0      # per batched message
    per_tuple: float = 1.5     # marshalling + copy per tuple
    #: per-tuple cost of a remote *query* result (row shipped back)
    per_result: float = 1.0


#: the interconnect every priced sharded run assumes
NET = NetModel()
