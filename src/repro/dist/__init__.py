"""Distributed execution substrate (§2 stage 3: partitioned /
duplicated / shared tuples across computers, with explicit
communication costs): one step loop, a sharded tier, three backends.

A distributed run is ``ExecOptions(strategy="processes", threads=N,
placements=...)``: an ordinary
:class:`~repro.core.session.EngineSession` over the ordinary
:class:`~repro.core.kernel.StepKernel`, whose tier is
:class:`repro.dist.superstep.ShardedExecutor` — it decides which node
fires a tuple and the order firing records reach the kernel, and every
backend fires rules through the same ``fire_records`` on the same
``Shard``, whose plan cache resolves where a query shape's rows live
into its access path and whose read plans fetch what a class will ask
of other shards once.  The session opens, feeds, settles, snapshots,
restores and closes as under any strategy; the backend is its strategy
and lives as long as it.  A backend implements ``execute(step, plan)
-> records`` plus the read it hands its shards, ``fetch``; it may
price, ship, retry and account, but not decide.  The ``DIST_TRANSPORT``
switch (or ``run_sharded(transport=...)``) picks it: ``pipe`` or
``tcp`` run the worker mesh of :mod:`repro.dist.procrun` (real OS
processes), ``model`` the cost model of :mod:`repro.dist.engine`
(in-process shards, a LogP-style network model, virtual time).
DESIGN.md §5.3 has the whole design."""

from repro.dist.check import QueryLocality, check_locality, locality_summary
from repro.dist.engine import DistEngine
from repro.dist.network import NODE_COUNTERS
from repro.dist.placement import (
    OnNode,
    Partitioned,
    Placement,
    PlacementMap,
    Replicated,
    spread_hash,
)
from repro.dist.procrun import ProcessShardRuntime, run_sharded, sharded_backend
from repro.dist.transport import TRANSPORTS, resolve_transport
from repro.simcore import NetModel, StepTraffic

__all__ = [
    "DistEngine",
    "ProcessShardRuntime",
    "run_sharded",
    "sharded_backend",
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
