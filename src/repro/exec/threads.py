"""Real-threads strategy — functional validation of parallel safety.

The GIL makes CPython threads useless for CPU speedup (why the
fork/join strategy is *simulated*, DESIGN.md §2), but they are very
useful for a different purpose: genuinely interleaving rule firings to
validate that the engine's step protocol is safe under concurrency —
Gamma is read-only while a batch fires, effects are buffered per task,
and application order is deterministic.  Integration tests run every
case study under this strategy and assert byte-identical output with
the sequential strategy.

No virtual-time account is kept (``report()`` is ``None``); only wall
time, which the engine records anyway.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.exec.base import EngineTask, Strategy, TaskResult

__all__ = ["ThreadStrategy"]


class ThreadStrategy(Strategy):
    name = "threads"
    concurrent_stores = True
    needs_locks = True

    def __init__(self, pool_size: int = 4):
        if pool_size < 1:
            raise ValueError("thread pool needs at least one thread")
        self.n_threads = pool_size
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="jstar"
        )

    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        if self._pool is None:
            raise RuntimeError("strategy already closed")
        if len(tasks) == 1:
            return [tasks[0].run()]
        # map() preserves submission order in its results, which is all
        # the engine needs for deterministic effect application.
        return list(self._pool.map(lambda t: t.run(), tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
