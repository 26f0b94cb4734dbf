"""Benchmark harness utilities shared by ``figures/``.

Implements the paper's measurement protocol (§6.2): "Each program was
run at least 20 times, the first 6 measurements (while the Hotspot
compiler optimises the code) were ignored and then the average of the
remaining times was taken" — :func:`timed_average` (scaled-down counts
by default; CPython has no JIT warm-up, but the discard protocol is
kept for fidelity and to shed cold-cache noise).

Speedup bookkeeping follows footnote 11: "Relative speedup is the
speedup relative to the parallel version running with one thread, while
absolute speedup is relative to the fastest sequential or
single-threaded parallel version."
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["timed_average", "SpeedupSeries", "speedup_series"]


def timed_average(
    fn: Callable[[], object],
    runs: int = 8,
    discard: int = 2,
) -> float:
    """Mean wall-clock seconds over ``runs`` calls, first ``discard``
    ignored (the paper's ≥20-run / drop-6 protocol, scaled)."""
    if runs <= discard:
        raise ValueError("need runs > discard")
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    kept = times[discard:]
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class SpeedupSeries:
    """One speedup-vs-threads curve (one line of Figs 8/11/12/13)."""

    label: str
    threads: tuple[int, ...]
    elapsed: tuple[float, ...]  # virtual time per thread count
    sequential: float | None = None  # the -sequential reference, if any

    @property
    def relative(self) -> tuple[float, ...]:
        """Speedup vs the 1-thread parallel run (footnote 11)."""
        base = self.elapsed[self.threads.index(1)] if 1 in self.threads else self.elapsed[0]
        return tuple(base / e for e in self.elapsed)

    @property
    def absolute(self) -> tuple[float, ...]:
        """Speedup vs the fastest of {sequential, 1-thread parallel}."""
        candidates = [self.elapsed[self.threads.index(1)]] if 1 in self.threads else [self.elapsed[0]]
        if self.sequential is not None:
            candidates.append(self.sequential)
        base = min(candidates)
        return tuple(base / e for e in self.elapsed)

    def rows(self) -> list[tuple[int, float, float, float]]:
        rel, ab = self.relative, self.absolute
        return [
            (t, e, r, a)
            for t, e, r, a in zip(self.threads, self.elapsed, rel, ab)
        ]

    def format(self) -> str:
        lines = [f"== {self.label} =="]
        if self.sequential is not None:
            lines.append(f"sequential reference: {self.sequential:.1f} wu")
        lines.append("threads  elapsed(wu)  relative  absolute")
        for t, e, r, a in self.rows():
            lines.append(f"{t:7d}  {e:11.1f}  {r:8.2f}  {a:8.2f}")
        return "\n".join(lines)


def speedup_series(
    label: str,
    threads: Sequence[int],
    run: Callable[[int], float],
    sequential: float | None = None,
) -> SpeedupSeries:
    """Sweep ``run(n_threads) -> elapsed`` over a thread list."""
    elapsed = tuple(run(t) for t in threads)
    return SpeedupSeries(label, tuple(threads), elapsed, sequential)
