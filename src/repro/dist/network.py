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

:class:`WireStats` is the *real* counterpart: the multiprocess runtime
(:mod:`repro.dist.procrun`) counts actual pickled bytes and messages on
each coordinator↔worker control channel (step frames out, done records
back — every tuple travels here) *and* on each worker's peer mesh
(``q`` / ``a`` frames: batches of probes and their rows), so the
network columns of a distributed ``run_report`` are measured traffic.
Workers snapshot their counters into every ``done`` record as one
fixed-width block (``repro.dist.worker.COUNTERS``): a record's size does
not depend on how far a counter has run, so byte counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NetModel", "StepTraffic", "WireStats"]


@dataclass
class WireStats:
    """Measured traffic on one coordinator↔worker pipe (both counted
    from the owning endpoint's perspective)."""

    msgs_sent: int = 0
    msgs_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0

    def on_send(self, n_bytes: int) -> None:
        self.msgs_sent += 1
        self.bytes_sent += n_bytes

    def on_recv(self, n_bytes: int) -> None:
        self.msgs_recv += 1
        self.bytes_recv += n_bytes

    def to_state(self) -> tuple[int, int, int, int]:
        """The four counters in field order — what a worker packs into
        its fixed-width counter block."""
        return (self.msgs_sent, self.msgs_recv, self.bytes_sent, self.bytes_recv)

    def add_state(self, state: tuple[int, int, int, int]) -> None:
        """Fold a :meth:`to_state` snapshot into this counter."""
        self.msgs_sent += state[0]
        self.msgs_recv += state[1]
        self.bytes_sent += state[2]
        self.bytes_recv += state[3]


@dataclass(frozen=True)
class NetModel:
    """Interconnect constants (virtual work units)."""

    latency: float = 40.0      # per batched message
    per_tuple: float = 1.5     # marshalling + copy per tuple
    #: per-tuple cost of a remote *query* result (row shipped back)
    per_result: float = 1.0


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
