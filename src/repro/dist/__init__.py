"""Distributed execution substrate (§2 stage 3: partitioned /
duplicated / shared tuples across computers, with explicit
communication costs): one step loop, a sharded tier, two wires.

A distributed run is an ordinary
:class:`~repro.core.session.EngineSession` over the ordinary
:class:`~repro.core.kernel.StepKernel`, given
:class:`repro.dist.superstep.ShardedExecutor` as its execution tier:
it decides which node fires a tuple and the order firing records reach
the kernel, and every backend fires rules through the same
``fire_records`` on the same ``Shard``, whose plan cache resolves where
a query shape's rows live into its access path and whose read plans
fetch what a class will ask of other shards once.  A backend implements
``execute(step, plan) -> records`` plus the read it hands its shards,
``fetch``; it may price, ship, retry and account, but not decide.
`repro.dist.engine` is the cost-model backend (in-process shards, a
LogP-style network model, virtual time), `repro.dist.procrun` the
worker mesh (real OS processes over pipes or TCP), also reachable as
``ExecOptions(strategy="processes")``.  DESIGN.md §5.3 has the whole
design."""

from repro.dist.check import QueryLocality, check_locality, locality_summary
from repro.dist.engine import DistEngine, DistOptions, DistRunResult, run_distributed
from repro.dist.network import NODE_COUNTERS, NetModel, StepTraffic
from repro.dist.placement import (
    OnNode,
    Partitioned,
    Placement,
    PlacementMap,
    Replicated,
    spread_hash,
)
from repro.dist.procrun import ProcessShardRuntime, run_sharded
from repro.dist.transport import TRANSPORTS, resolve_transport

__all__ = [
    "DistEngine",
    "DistOptions",
    "DistRunResult",
    "run_distributed",
    "ProcessShardRuntime",
    "run_sharded",
    "Partitioned",
    "Replicated",
    "OnNode",
    "Placement",
    "PlacementMap",
    "spread_hash",
    "NetModel",
    "StepTraffic",
    "NODE_COUNTERS",
    "QueryLocality",
    "check_locality",
    "locality_summary",
    "TRANSPORTS",
    "resolve_transport",
]
