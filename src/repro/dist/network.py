"""Cluster-interconnect cost model for distributed virtual time.

§2 stage 3 leaves "how the communication should be implemented" to the
architecture hints; the simulator needs only its *cost*.  The model is
the standard LogP-flavoured account:

* each message pays ``latency`` once plus ``per_tuple`` marshalling per
  carried tuple;
* messages between the same (src, dst) pair within one superstep are
  **batched**: one latency, summed payload — distributed JStar's
  natural bulk exchange (the engine moves whole put-sets per step);
* a read of another shard is a synchronous round trip: one per (node,
  owner) for all the probes of a class that the rules' read plans
  predict, one more per read they did not;
* a node's send/receive work serialises on its NIC: per-step comm time
  at a node = sum of its message costs; the step's comm makespan is the
  busiest node's total (full-duplex assumed between distinct pairs).

:data:`NODE_COUNTERS` is the *real* counterpart, and the one
declaration of what a node of a sharded run counts: a mesh worker
(:mod:`repro.dist.worker`) counts actual pickled bytes and messages on
its coordinator channel (step frames in, done records out — every tuple
travels here) *and* on its peer mesh (``q`` / ``a`` frames: batches of
probes and their rows), so the network columns of a distributed
``run_report`` are measured traffic; a shard counts its reads of other
shards under the same names on either backend.  Workers snapshot their
counters into every ``done`` record as one fixed-width block: a record's
size does not depend on how far a counter has run, so byte counts
repeat exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "NODE_COUNTERS",
    "NetModel",
    "NetReport",
    "StepTraffic",
    "pack_counters",
    "sum_counters",
]

#: what one node counts -> its ``format_nodes`` column.  The names are
#: the keys of a ``RunResult.nodes`` entry and of ``Shard.counters``, in
#: the order a worker packs them and the report prints them
NODE_COUNTERS = {
    "queries_served": "served",         # q frames answered
    "remote_queries": "remote q",       # q frames sent (cost model: round trips priced)
    "probes_remote": "probes",          # (read, answering node) pairs
    "probes_planned": "planned",        # ... of which a class's exchange held
    "msgs": "msgs",                     # control plane, both directions
    "bytes_sent": "sent B",
    "bytes_recv": "recv B",
    "peer_msgs": "peer msgs",           # peer plane, both directions
    "peer_bytes_sent": "peer sent B",
    "peer_bytes_recv": "peer recv B",
}

#: the block a done record and a bye carry: one unsigned 64-bit word per
#: counter
_BLOCK = struct.Struct(f">{len(NODE_COUNTERS)}Q")


def pack_counters(counters: Mapping[str, int]) -> bytes:
    return _BLOCK.pack(*(counters[name] for name in NODE_COUNTERS))


def sum_counters(blocks: Iterable[bytes]) -> dict[str, int]:
    """The named sum of packed blocks — a node's final block plus the
    last one of each incarnation that crashed."""
    columns = zip(*map(_BLOCK.unpack, blocks))
    return dict(zip(NODE_COUNTERS, map(sum, columns)))


@dataclass(frozen=True)
class NetModel:
    """Interconnect constants (virtual work units)."""

    latency: float = 40.0      # per batched message
    per_tuple: float = 1.5     # marshalling + copy per tuple
    #: per-tuple cost of a remote *query* result (row shipped back)
    per_result: float = 1.0


@dataclass
class NetReport:
    """The cost model's account of a sharded run, in virtual work units
    — its ``RunResult.report``: per superstep the busiest node's
    ``compute``, the ``comm`` makespan and the ``barrier``, summed into
    ``elapsed`` with the fed tuples' Delta inserts."""

    n_nodes: int
    elapsed: float = 0.0
    compute: float = 0.0
    comm: float = 0.0
    barrier: float = 0.0
    messages: int = 0
    tuples_moved: int = 0


@dataclass
class StepTraffic:
    """Accumulates one superstep's communication."""

    net: NetModel
    #: (src, dst) -> tuples carried this step
    batches: dict[tuple[int, int], int] = field(default_factory=dict)
    #: synchronous round trips issued this step (one per batch of
    #: probes a node asks an owner): each pays latency twice
    round_trips: int = 0
    shipped_results: int = 0

    def send(self, src: int, dst: int, n_tuples: int = 1) -> None:
        if src == dst or n_tuples <= 0:
            return
        key = (src, dst)
        self.batches[key] = self.batches.get(key, 0) + n_tuples

    def remote_query(self, src: int, dst: int, n_results: int) -> None:
        if src == dst:
            return
        self.round_trips += 1
        self.shipped_results += n_results

    # -- accounting ----------------------------------------------------------

    def tuples_moved(self) -> int:
        return sum(self.batches.values())

    def messages(self) -> int:
        return len(self.batches) + 2 * self.round_trips

    def comm_time(self, n_nodes: int) -> float:
        """The step's communication makespan (busiest NIC)."""
        per_node = [0.0] * n_nodes
        for (src, dst), n in self.batches.items():
            cost = self.net.latency + self.net.per_tuple * n
            per_node[src] += cost
            per_node[dst] += cost
        # a round trip stalls its issuing node; the owner marshals rows
        rt = self.round_trips * 2 * self.net.latency + (
            self.shipped_results * self.net.per_result
        )
        return (max(per_node) if per_node else 0.0) + rt
