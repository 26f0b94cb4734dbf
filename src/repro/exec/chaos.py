"""The chaos strategy: adversarial schedule fuzzing for the §1.3 contract.

Every built-in strategy promises that schedule changes *time but never
results*, because the all-minimums step protocol keeps Gamma read-only
while a batch fires and applies buffered effects in deterministic task
order.  :class:`ChaosStrategy` attacks that protocol on purpose, with a
seeded RNG so every attack is reproducible:

* **order permutation** — each batch executes in a random order (results
  are still returned in submission order, which is the contract);
* **interleaving** — task bodies run on cooperative threads that hand
  control back at every ``put``/query boundary, and the scheduler picks
  which task advances next at random, so rule bodies genuinely
  interleave at effect granularity (at most one body runs at a time, so
  no real data race is introduced — only every *schedule* the protocol
  claims to tolerate);
* **fault injection** (:class:`FaultPlan`) — tasks raise mid-body and
  are redelivered from scratch, completed tasks are spuriously delivered
  a second time, and tasks are delayed behind the rest of their batch.

A run under ``ChaosStrategy`` must be byte-identical to the sequential
baseline; ``tests/chaos`` asserts exactly that over a seed matrix.  The
strategy records every scheduling decision (through the engine's trace
recorder, when tracing is on) so a failing seed can be replayed exactly
by :class:`repro.trace.replay.TraceReplayer`, and the deliberately
broken ``completion_order_effects`` variant — effects applied in
arrival order, the classic unsound "optimisation" — exists so the test
harness can prove it would catch a real violation.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.errors import EngineError
from repro.exec.base import EngineTask, Strategy, TaskResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.replay import ReplaySchedule

__all__ = ["ChaosFault", "FaultPlan", "ChaosStrategy", "DEFAULT_INTERLEAVE_CAP"]

#: batches wider than this run permuted-sequentially instead of on
#: cooperative threads (one thread per task would be wasteful for the
#: thousand-tuple init batches of the CSV workloads)
DEFAULT_INTERLEAVE_CAP = 16

#: a raise-fault triggers at the task's k-th put/query boundary,
#: k drawn uniformly from [1, _MAX_FAULT_POINT]
_MAX_FAULT_POINT = 3


class ChaosFault(Exception):
    """Injected mid-task failure; the strategy redelivers the task."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-task fault probabilities for one chaos run.

    ``raise_prob``      task raises :class:`ChaosFault` at a random
                        put/query boundary and is re-run from scratch —
                        tests that a half-executed body leaks no effects
                        (all effects are buffered on the discarded
                        :class:`~repro.exec.base.TaskResult`);
    ``duplicate_prob``  the task is delivered a second time after it
                        completed and the duplicate's result discarded —
                        tests Gamma's set semantics end to end;
    ``delay_prob``      the task executes only after every other task of
                        its batch finished — tests that in-batch
                        completion order carries no meaning.

    At most one fault is assigned per task (a single uniform draw
    against the cumulative probabilities), so the probabilities must sum
    to at most 1.
    """

    raise_prob: float = 0.0
    duplicate_prob: float = 0.0
    delay_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("raise_prob", "duplicate_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise EngineError(f"fault plan {name} must be in [0, 1], got {p}")
        if self.raise_prob + self.duplicate_prob + self.delay_prob > 1.0 + 1e-9:
            raise EngineError("fault plan probabilities must sum to at most 1")

    @property
    def enabled(self) -> bool:
        return self.raise_prob > 0 or self.duplicate_prob > 0 or self.delay_prob > 0

    def to_dict(self) -> dict[str, float]:
        return {
            "raise_prob": self.raise_prob,
            "duplicate_prob": self.duplicate_prob,
            "delay_prob": self.delay_prob,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        return cls(
            raise_prob=float(d.get("raise_prob", 0.0)),
            duplicate_prob=float(d.get("duplicate_prob", 0.0)),
            delay_prob=float(d.get("delay_prob", 0.0)),
        )


class _TaskState:
    """Book-keeping for one task under chaos control."""

    __slots__ = (
        "index", "task", "result", "thread", "done", "paused", "resume",
        "yields", "fault_kind", "fault_at", "faulted", "error", "interleaved",
    )

    def __init__(self, index: int, task: EngineTask):
        self.index = index
        self.task = task
        self.result: TaskResult | None = None
        self.thread: threading.Thread | None = None
        self.done = False
        self.paused = False
        self.resume = False
        self.yields = 0
        self.fault_kind: str | None = None
        self.fault_at: int | None = None
        self.faulted = False
        self.error: BaseException | None = None
        self.interleaved = False


class _Gate:
    """Cooperative scheduler core: at most one task body runs between
    yield points; :meth:`yield_point` is installed as the strategy's
    ``yield_point`` hook and called by every ``RuleContext`` put/query.
    Calls from threads that are not chaos-controlled (engine init puts,
    other strategies) are no-ops."""

    def __init__(self) -> None:
        self.cv = threading.Condition()
        self._local = threading.local()

    def current(self) -> _TaskState | None:
        return getattr(self._local, "state", None)

    def run_inline(self, state: _TaskState, fn: Callable[[], TaskResult]) -> TaskResult:
        """Run ``fn`` on the calling thread with ``state`` installed so
        yield points see it (permuted-sequential mode, duplicate
        deliveries)."""
        prev = self.current()
        self._local.state = state
        try:
            return fn()
        finally:
            self._local.state = prev

    def adopt(self, state: _TaskState) -> None:
        """Install ``state`` on the calling worker thread."""
        self._local.state = state

    def yield_point(self) -> None:
        state = self.current()
        if state is None:
            return
        state.yields += 1
        if (
            state.fault_kind == "raise"
            and not state.faulted
            and state.fault_at is not None
            and state.yields >= state.fault_at
        ):
            state.faulted = True
            raise ChaosFault(
                f"injected fault in task {state.index} at boundary {state.yields}"
            )
        if not state.interleaved:
            return
        with self.cv:
            state.paused = True
            self.cv.notify_all()
            while not state.resume:
                self.cv.wait()
            state.resume = False
            state.paused = False


class ChaosStrategy(Strategy):
    """Seeded adversarial scheduling; see module docstring.

    ``script`` replays the recorded decisions of an earlier traced run
    instead of drawing fresh ones (see
    :class:`repro.trace.replay.ReplaySchedule`);
    ``completion_order_effects`` is the intentionally-broken variant
    that returns results in completion order — it exists solely so the
    chaos harness can demonstrate it *catches* an engine that applies
    effects in arrival order.
    """

    name = "chaos"
    concurrent_stores = False
    needs_locks = False
    n_threads = 1

    def __init__(
        self,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        interleave_cap: int = DEFAULT_INTERLEAVE_CAP,
        completion_order_effects: bool = False,
        script: "ReplaySchedule | None" = None,
    ):
        self.seed = seed
        self._rng = random.Random(seed)
        self.fault_plan = fault_plan or FaultPlan()
        self._cap = max(1, interleave_cap)
        self._broken = completion_order_effects
        self._script = script
        self._gate = _Gate()
        self.yield_point = self._gate.yield_point
        self._tracer: Any = None
        self._stats: Any = None
        self._batch_no = 0

    # -- engine hookup ------------------------------------------------------

    def bind(self, tracer: Any = None, stats: Any = None) -> None:
        self._tracer = tracer
        self._stats = stats

    def state_dict(self) -> dict:
        """Checkpoint the schedule RNG mid-stream so a restored session
        draws the *continuation* of this run's decision sequence — the
        same decisions an uninterrupted run would have drawn."""
        version, internal, gauss = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss],
            "batch_no": self._batch_no,
        }

    def load_state(self, state: dict) -> None:
        if not state:
            return
        version, internal, gauss = state["rng"]
        self._rng.setstate((version, tuple(int(x) for x in internal), gauss))
        self._batch_no = int(state["batch_no"])

    def _count_fault(self, kind: str, task_index: int) -> None:
        if self._stats is not None:
            self._stats.on_fault(kind)
        if self._tracer is not None:
            self._tracer.emit(
                "fault", {"fault": kind, "task": task_index, "batch": self._batch_no},
                meta=True,
            )

    # -- decision drawing ---------------------------------------------------

    def _draw_decisions(
        self, n: int
    ) -> tuple[str, list[int], dict[int, str], dict[int, int]]:
        """(mode, execution order, fault assignment, raise points) for
        one batch — either fresh from the RNG or from the replay script."""
        if self._script is not None:
            return self._script.decisions_for(self._batch_no, n)
        mode = "interleave" if 1 < n <= self._cap else "seq"
        order = list(range(n))
        self._rng.shuffle(order)
        faults: dict[int, str] = {}
        fault_points: dict[int, int] = {}
        plan = self.fault_plan
        if plan.enabled:
            for i in range(n):
                r = self._rng.random()
                if r < plan.raise_prob:
                    faults[i] = "raise"
                    fault_points[i] = self._rng.randint(1, _MAX_FAULT_POINT)
                elif r < plan.raise_prob + plan.duplicate_prob:
                    faults[i] = "duplicate"
                elif r < plan.raise_prob + plan.duplicate_prob + plan.delay_prob:
                    faults[i] = "delay"
        return mode, order, faults, fault_points

    # -- execution ----------------------------------------------------------

    def run_batch(self, tasks: Sequence[EngineTask]) -> list[TaskResult]:
        self._batch_no += 1
        n = len(tasks)
        if n == 0:
            return []
        mode, order, faults, fault_points = self._draw_decisions(n)
        states = [_TaskState(i, t) for i, t in enumerate(tasks)]
        for i, kind in faults.items():
            states[i].fault_kind = kind
            if kind == "raise":
                states[i].fault_at = fault_points.get(i, 1)

        if mode == "interleave":
            picks, completion = self._run_interleaved(states)
        else:
            picks, completion = self._run_sequential(states, order)

        # spurious duplicate deliveries: re-run after the batch, discard
        # the result — set semantics must absorb the redelivery
        for s in states:
            if s.fault_kind == "duplicate":
                dup = _TaskState(s.index, s.task)
                self._gate.run_inline(dup, s.task.run)
                self._count_fault("duplicate", s.index)

        if self._tracer is not None:
            self._tracer.emit(
                "sched",
                {
                    "batch": self._batch_no,
                    "mode": mode,
                    "n": n,
                    "order": list(order),
                    "picks": list(picks),
                    "faults": {str(i): k for i, k in sorted(faults.items())},
                    "fault_points": {str(i): p for i, p in sorted(fault_points.items())},
                },
                meta=True,
            )

        for s in states:
            assert s.result is not None
        if self._broken:
            # UNSOUND on purpose: hand effects back in arrival order
            return [states[i].result for i in completion]  # type: ignore[misc]
        return [s.result for s in states]  # type: ignore[misc]

    def _run_with_redelivery(self, state: _TaskState) -> TaskResult:
        """Run one task; an injected :class:`ChaosFault` discards the
        partial result (and everything buffered on it) and re-runs the
        task from scratch, like a work-stealing pool redelivering after
        a worker died."""
        while True:
            try:
                return state.task.run()
            except ChaosFault:
                self._count_fault("raise", state.index)
                # state.faulted stays True: the redelivery runs clean

    def _run_sequential(
        self, states: list[_TaskState], order: list[int]
    ) -> tuple[list[int], list[int]]:
        """Permuted-sequential execution: every task runs to completion,
        delayed tasks are pushed behind the rest of the batch."""
        prompt = [i for i in order if states[i].fault_kind != "delay"]
        delayed = [i for i in order if states[i].fault_kind == "delay"]
        completion: list[int] = []
        for i in prompt + delayed:
            state = states[i]
            if state.fault_kind == "delay":
                self._count_fault("delay", state.index)
            state.result = self._gate.run_inline(
                state, lambda s=state: self._run_with_redelivery(s)
            )
            completion.append(i)
        return [], completion

    def _run_interleaved(
        self, states: list[_TaskState]
    ) -> tuple[list[int], list[int]]:
        """Cooperative-thread execution: the scheduler repeatedly picks
        one runnable task and advances it to its next put/query boundary
        (or completion).  Exactly one body runs at any moment."""
        gate = self._gate
        script_picks = (
            self._script.picks_for(self._batch_no) if self._script is not None else None
        )
        pick_cursor = 0

        def worker(state: _TaskState) -> None:
            gate.adopt(state)
            with gate.cv:
                while not state.resume:
                    gate.cv.wait()
                state.resume = False
            try:
                state.result = self._run_with_redelivery(state)
            except BaseException as exc:  # noqa: BLE001 — reported to the caller
                state.error = exc
            finally:
                with gate.cv:
                    state.done = True
                    gate.cv.notify_all()

        for state in states:
            state.interleaved = True
            state.thread = threading.Thread(
                target=worker, args=(state,), name=f"chaos-{state.index}", daemon=True
            )
            state.thread.start()

        picks: list[int] = []
        completion: list[int] = []
        known_done = [False] * len(states)
        while True:
            with gate.cv:
                for s in states:
                    if s.done and not known_done[s.index]:
                        known_done[s.index] = True
                        completion.append(s.index)
                unfinished = [s for s in states if not s.done]
                if not unfinished:
                    break
                runnable = [s for s in unfinished if s.fault_kind != "delay"]
                if not runnable:
                    # only delayed tasks remain: release them now
                    for s in unfinished:
                        self._count_fault("delay", s.index)
                        s.fault_kind = None
                    runnable = unfinished
            if script_picks is not None:
                if pick_cursor >= len(script_picks):
                    raise EngineError(
                        f"replay schedule exhausted in batch {self._batch_no}: "
                        "the replayed program diverged from the recording"
                    )
                idx = script_picks[pick_cursor]
                pick_cursor += 1
                state = states[idx]
                if state.done or state not in runnable:
                    raise EngineError(
                        f"replay schedule picked task {idx} in batch "
                        f"{self._batch_no} but it is not runnable — the "
                        "replayed program diverged from the recording"
                    )
            else:
                state = runnable[self._rng.randrange(len(runnable))]
            picks.append(state.index)
            with gate.cv:
                state.resume = True
                gate.cv.notify_all()
                # wait until the worker is *parked again*: done, or paused
                # with the resume flag consumed.  Checking ``paused`` alone
                # would race the worker still waking from its previous
                # pause (stale ``paused=True``) and could release a second
                # task concurrently.
                while not (state.done or (state.paused and not state.resume)):
                    gate.cv.wait()
        for state in states:
            assert state.thread is not None
            state.thread.join()
            if state.error is not None:
                raise state.error
        return picks, completion

    # -- accounting ---------------------------------------------------------

    def account_step(
        self,
        results: Sequence[TaskResult],
        allocations: float,
        retained: float,
    ) -> None:
        pass  # chaos runs validate semantics, not virtual time
