"""Virtual-time model of a single-producer / multi-consumer Disruptor
pipeline — the benchmark engine behind Fig 10 and the Table 1 tuning.

The threaded implementation in :mod:`repro.disruptor.dsl` is real but
GIL-bound, so (exactly like the engine's fork/join strategy) timing is
replayed in virtual time.  The model follows the classic pipeline
recurrences over the published event stream:

* the producer finishes event *k* at
  ``P(k) = max(P(k-1), Cmin(k - ring)) + parse``
  — it stalls when the slowest consumer is a full ring behind
  (backpressure);
* consumer *i* finishes event *k* at
  ``C_i(k) = max(C_i(k-1), P(k) + wake_i(k)) + service_i(k)``
  where service is ``proc`` for events the consumer owns (its month)
  and ``scan`` for events it merely inspects, and ``wake`` is the wait
  strategy's latency when the consumer had gone idle;
* the critical-path end is ``max_i (C_i(n) + flush_i)``.

Oversubscription (13 actors on ≤ 8 cores) is handled with the standard
work/critical-path bound: ``elapsed = max(T_pipeline, W_total /
cores)``, plus the busy-spin CPU burn being added to *W* (a spinning
consumer occupies a core — why BusySpin loses to Blocking in Table 1
when consumers outnumber cores).

Cost constants come from the wait/claim strategy classes and
:class:`PipelineCosts`; keys (months) drive per-event routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import DisruptorError
from repro.disruptor.claim import ClaimStrategy, SingleThreadedClaimStrategy
from repro.disruptor.ring import check_ring_size
from repro.disruptor.wait import BlockingWaitStrategy, WaitStrategy

__all__ = ["PipelineCosts", "PipelineResult", "simulate_pipeline"]


@dataclass(frozen=True)
class PipelineCosts:
    """Per-event work (virtual units) of the application layer."""

    #: producer: read + parse one record
    parse: float = 1.0
    #: consumer: process an owned event (insert into local Gamma, ...)
    proc: float = 1.2
    #: consumer: inspect a foreign event and skip it
    scan: float = 0.08
    #: per-consumer final flush (run the reducer over its Gamma)
    flush_per_owned: float = 0.35


@dataclass(frozen=True)
class PipelineResult:
    elapsed: float
    pipeline_time: float
    total_work: float
    producer_busy: float
    consumer_busy: list[float]
    producer_stalls: int
    consumer_wakes: int

    @property
    def bound(self) -> str:
        return "pipeline" if self.pipeline_time >= self.elapsed else "work"


def simulate_pipeline(
    keys: Sequence[int],
    n_consumers: int,
    cores: int,
    ring_size: int = 1024,
    batch: int = 256,
    wait: WaitStrategy | None = None,
    claim: ClaimStrategy | None = None,
    costs: PipelineCosts | None = None,
    switch_cost: float = 0.5,
) -> PipelineResult:
    """Run the pipeline recurrences over ``keys`` (event *k* is owned by
    consumer ``keys[k] % n_consumers``).

    ``switch_cost`` models oversubscription: with ``1 + n_consumers``
    actors multiplexed onto fewer cores, the OS keeps descheduling
    actors that have work, stretching the critical path by up to
    ``1 + 1.5*switch_cost`` (saturating).  §6.3 runs 13 actors on 8
    cores, so this is on the paper's own operating point.

    ``ring_size`` is held to :class:`~repro.disruptor.ring.RingBuffer`'s
    rule and ``batch`` must be at least 1; anything else is a
    :class:`~repro.core.errors.DisruptorError`.  A batch larger than the
    ring still runs (Table 1's ring-64 row does), although the real
    ring's ``publish_batch`` refuses it.
    """
    if cores < 1 or n_consumers < 1:
        raise ValueError("need >=1 core and >=1 consumer")
    check_ring_size(ring_size)
    if batch < 1:
        raise DisruptorError(f"producer batch must be >= 1, got {batch}")
    wait = wait if wait is not None else BlockingWaitStrategy()
    claim = claim if claim is not None else SingleThreadedClaimStrategy(ring_size)
    c = costs if costs is not None else PipelineCosts()

    n = len(keys)
    per_event_pub = c.parse + claim.publish_cost + claim.claim_cost / max(1, batch)

    # consumer state
    ctime = [0.0] * n_consumers
    cbusy = [0.0] * n_consumers
    owned = [0] * n_consumers
    idle_since: list[bool] = [True] * n_consumers
    wakes = 0

    # ring-occupancy window: the producer may claim slot k only after
    # EVERY gating consumer has passed slot k - ring_size, i.e. at the
    # max of their finish times; tracked with a circular buffer
    finish_all: list[float] = [0.0] * max(1, ring_size)

    ptime = 0.0
    pbusy = 0.0
    stalls = 0

    for k in range(n):
        gate = finish_all[k % ring_size] if k >= ring_size else 0.0
        if gate > ptime:
            stalls += 1
            ptime = gate
        ptime += per_event_pub
        pbusy += per_event_pub

        batch_boundary = (k % batch) == 0
        owner = keys[k] % n_consumers
        cmax = 0.0
        for i in range(n_consumers):
            service = c.proc if i == owner else c.scan
            start = ptime
            if ctime[i] >= start:
                start = ctime[i]
                idle_since[i] = False
            else:
                # consumer had drained; it pays the wait strategy's
                # wake-up latency once per publish batch, not per event
                if idle_since[i] or batch_boundary:
                    start += wait.wake_latency
                    wakes += 1
                idle_since[i] = True
            ctime[i] = start + service
            cbusy[i] += service
            if ctime[i] > cmax:
                cmax = ctime[i]
        owned[owner] += 1
        finish_all[k % ring_size] = cmax

    # final flush: each consumer reduces over what it owned
    end = ptime
    for i in range(n_consumers):
        flush = c.flush_per_owned * owned[i]
        ctime[i] += flush
        cbusy[i] += flush
        if ctime[i] > end:
            end = ctime[i]

    # CPU-burn of spinning waiters: a stalled-but-spinning consumer
    # occupies a core for the whole run window, not just the pipeline
    # span — estimate the window first (one fixed-point step), then
    # charge the burn against it
    actors = 1 + n_consumers
    oversub = 1.0 + switch_cost * min(1.5, max(0.0, actors / cores - 1.0))
    base_work = pbusy + sum(cbusy)
    window = max(end * oversub, base_work / cores)
    burn = wait.spin_burn * sum(max(0.0, window - b) for b in cbusy)
    total_work = base_work + burn
    elapsed = max(end * oversub, total_work / cores)
    return PipelineResult(
        elapsed=elapsed,
        pipeline_time=end,
        total_work=total_work,
        producer_busy=pbusy,
        consumer_busy=cbusy,
        producer_stalls=stalls,
        consumer_wakes=wakes,
    )
