"""The ring buffer (Table 1's ``RingBuffer`` rows).

A fixed, power-of-two slot array indexed by ``sequence & (size - 1)``.
Slots are pre-allocated and *recycled* — events are written into
existing slot objects rather than allocated per message, which is the
Disruptor's GC story the paper leans on ("recycle objects rather than
garbage collecting them", §6.3).  Here each slot is a single-element
list cell; publishers store into it, consumers read from it.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import DisruptorError
from repro.disruptor.claim import ClaimStrategy, SingleThreadedClaimStrategy
from repro.disruptor.sequence import Sequence, SequenceBarrier
from repro.disruptor.wait import BlockingWaitStrategy, WaitStrategy

__all__ = ["RingBuffer", "check_ring_size"]


def check_ring_size(size: int) -> None:
    """The rule every ring (real or simulated) is held to: slots are
    indexed by ``sequence & (size - 1)``."""
    if size < 2 or size & (size - 1):
        raise DisruptorError(f"ring size must be a power of two >= 2, got {size}")


class RingBuffer:
    """Pre-allocated slots + producer cursor + gating sequences."""

    def __init__(
        self,
        size: int,
        wait_strategy: WaitStrategy | None = None,
        claim_strategy: ClaimStrategy | None = None,
    ):
        check_ring_size(size)
        self.size = size
        self._mask = size - 1
        self._slots: list[list[Any]] = [[None] for _ in range(size)]
        self.wait_strategy = wait_strategy or BlockingWaitStrategy()
        self.claim = claim_strategy or SingleThreadedClaimStrategy(size)
        self.gating: list[Sequence] = []

    # -- wiring ----------------------------------------------------------

    @property
    def cursor(self) -> Sequence:
        return self.claim.cursor

    def add_gating_sequences(self, *sequences: Sequence) -> None:
        """Register the sequences the producer must not overrun (the
        final consumers of every chain)."""
        self.gating.extend(sequences)

    def new_barrier(self, dependents: list[Sequence] | None = None) -> SequenceBarrier:
        return SequenceBarrier(self.cursor, dependents or [], self.wait_strategy)

    # -- producing ----------------------------------------------------------

    def next(self, n: int = 1) -> int:
        """Claim ``n`` slots; blocks while the ring is full (the
        backpressure that throttles the PvWatts producer when one
        month's consumer lags, §6.3)."""
        if not self.gating:
            raise DisruptorError("no gating sequences; producer would overrun")
        return self.claim.next(n, self.gating)

    def set(self, sequence: int, value: Any) -> None:
        """Write a claimed-but-unpublished slot."""
        self._slots[sequence & self._mask][0] = value

    def publish(self, lo: int, hi: int | None = None) -> None:
        """Publish claimed slots ``[lo, hi]`` and wake waiters."""
        self.claim.publish(lo, hi if hi is not None else lo)
        self.wait_strategy.signal_all()

    def publish_batch(self, values: list[Any]) -> int:
        """Claim-write-publish a whole batch (the paper's producer
        "claims slots in a batch of 256"); returns the high sequence."""
        n = len(values)
        if n == 0:
            return self.cursor.get()
        if n > self.size:
            raise DisruptorError(f"batch of {n} exceeds ring size {self.size}")
        hi = self.next(n)
        lo = hi - n + 1
        for i, v in enumerate(values):
            self._slots[(lo + i) & self._mask][0] = v
        self.publish(lo, hi)
        return hi

    # -- consuming ----------------------------------------------------------

    def get(self, sequence: int) -> Any:
        return self._slots[sequence & self._mask][0]

    def __repr__(self) -> str:
        return f"RingBuffer(size={self.size}, cursor={self.cursor.get()})"
