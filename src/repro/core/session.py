"""Resumable engine sessions: open / feed / settle / snapshot / close.

The old monolithic ``Engine.run`` did everything in one breath: initial
puts, the step loop, stats folding, the run-end trace event.  A session
decomposes that breath so a caller can *stream*:

* :meth:`EngineSession.open` — emit the run-start event, start the
  strategy (a sharded run's workers), mark live;
* :meth:`EngineSession.feed` — admit external tuples against the
  **high-water mark** (the timestamp of the last popped equivalence
  class).  Everything at or above the mark is sound: the engine has
  answered no negative/aggregate query there yet (§4).  A tuple
  strictly below the mark is refused (``admission="strict"`` raises
  :class:`~repro.core.errors.CausalityError`) or quarantined
  (``"warn"``, with an :class:`~repro.core.errors.AdmissionWarning`);
* :meth:`EngineSession.settle` — drain Delta to quiescence and return
  the *increment*: a :class:`~repro.core.kernel.RunResult` whose output
  and step count cover only this settle;
* :meth:`EngineSession.snapshot` / :meth:`EngineSession.restore` —
  checkpoint the full engine state (Gamma, Delta, stats, meters,
  strategy RNG) to a versioned JSON document and rebuild a live session
  from it (:mod:`repro.core.snapshot`);
* :meth:`EngineSession.close` — settle anything pending, release the
  strategy (thread pools, a sharded run's workers), emit run-end, and
  return the cumulative result.  Sessions are context managers; the
  strategy is released even when a step raises.

Determinism: feeding a workload in K causally-sorted chunks produces
byte-identical output, table sizes, and semantic trace to feeding it in
one shot — :func:`causal_chunks` builds such chunks, and the
differential suite asserts the identity across all strategies.
"""

from __future__ import annotations

import json
import time
from functools import cmp_to_key
from pathlib import Path
from typing import IO, Iterable

from repro.core.database import Database
from repro.core.errors import EngineError
from repro.core.kernel import FeedReport, RunResult, StepKernel
from repro.core.ordering import compare_timestamps
from repro.core.program import ExecOptions, Program
from repro.core.tuples import JTuple
from repro.exec.base import Strategy

__all__ = ["EngineSession", "FeedReport", "causal_sort", "causal_chunks"]


class EngineSession:
    """One resumable execution of one program.

    Typical use::

        with program.session(options) as s:
            s.feed(first_batch)
            r1 = s.settle()       # incremental result
            s.feed(second_batch)
            r2 = s.settle()
        total = s.result          # cumulative RunResult

    :meth:`run` — what ``Program.run`` calls — is exactly
    ``open -> feed(initial puts) -> settle -> close``.
    """

    def __init__(
        self,
        program: Program,
        options: ExecOptions | None = None,
        strategy: Strategy | None = None,
    ):
        self.kernel = StepKernel(
            program, options if options is not None else ExecOptions(), strategy
        )
        self._opened = False
        self._closed = False
        self._out_cursor = 0
        self._fed_since_settle = 0
        #: the collector's firing and rule-put totals as of the last settle
        self._fires_seen = 0
        self._puts_seen = 0
        self._wall = 0.0
        #: a settle drained in slices: the steps and wall it started at
        self._settling: tuple[int, float] | None = None
        self._final: RunResult | None = None

    # -- delegated views -------------------------------------------------------

    @property
    def program(self) -> Program:
        return self.kernel.program

    @property
    def options(self) -> ExecOptions:
        return self.kernel.options

    @property
    def strategy(self) -> Strategy:
        return self.kernel.strategy

    @property
    def database(self) -> Database:
        return self.kernel.db

    @property
    def output(self) -> list[str]:
        return self.kernel.output

    @property
    def steps(self) -> int:
        return self.kernel.steps

    @property
    def high_water(self):
        return self.kernel.high_water

    @property
    def quarantined(self) -> list[JTuple]:
        return self.kernel.quarantined

    @property
    def stats(self):
        return self.kernel.stats

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def result(self) -> RunResult:
        """The cumulative result; only available after :meth:`close`."""
        if self._final is None:
            raise EngineError("session has no result yet; call close() first")
        return self._final

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> "EngineSession":
        """Mark the session live (idempotent).  Emits the run-start
        trace event and starts the strategy on the first call."""
        if self._closed:
            raise EngineError("this session is closed; construct a fresh one")
        if not self._opened:
            t0 = time.perf_counter()
            self._opened = True
            self.kernel.emit_run_start()
            self._go_live()
            self._wall += time.perf_counter() - t0
        return self

    def _go_live(self) -> None:
        """Start the strategy — a sharded backend's workers start here,
        at ``open`` or at the end of ``restore``; a failed start shuts
        the session down."""
        try:
            self.kernel.strategy.start()
        except BaseException:
            self._shutdown()
            raise

    def run(self) -> RunResult:
        """The single-shot run: ``open -> feed(initial puts) -> settle
        -> close``, returning the cumulative result."""
        with self:
            self.feed(self.program.initial_puts, source="<init>")
            self.settle()
        return self.result

    def __enter__(self) -> "EngineSession":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # guarantee pool release on the error path; no final result
            self._shutdown()
            return False
        if not self._closed:
            self.close()
        return False

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("this session is closed")
        if not self._opened:
            raise EngineError("session not opened; call open() or use `with`")

    def _shutdown(self) -> None:
        """Close out the strategy exactly once, whatever happened."""
        self._closed = True
        self.kernel.strategy.close()

    # -- incremental execution -------------------------------------------------

    def feed(self, tuples: Iterable[JTuple], source: str = "<feed>") -> FeedReport:
        """Admit external tuples (see :meth:`StepKernel.feed`).

        Admission failures (:class:`~repro.core.errors.CausalityError`
        under strict mode, :class:`~repro.core.errors.UnknownTableError`,
        and under retraction :class:`~repro.core.errors.RetractionError`)
        are checked for every event before any event applies, so they
        leave the session open and unchanged;
        any other error during the feed shuts the session down
        (releasing the strategy) and re-raises.
        """
        self._require_open()
        t0 = time.perf_counter()
        try:
            report = self.kernel.feed(tuples, source)
        except (EngineError,) + _ADMISSION_ERRORS:
            raise
        except BaseException:
            self._shutdown()
            raise
        self._fed_since_settle += report.admitted
        self._wall += time.perf_counter() - t0
        return report

    def settle(self, until: float | None = None) -> RunResult | None:
        """Drain Delta to quiescence and return this settle's increment:
        a RunResult whose ``output`` and ``steps`` cover only the work
        since the previous settle.  Records a per-settle frontier/fire
        delta on ``stats.settles`` (see
        :func:`repro.stats.report.format_settles`).  Given a
        ``perf_counter`` deadline ``until``, a call that passes it with
        work still pending returns None; the call that reaches
        quiescence returns the increment of the whole settle."""
        self._require_open()
        t0 = time.perf_counter()
        k = self.kernel
        start, wall0 = self._settling = self._settling or (k.steps, self._wall)
        try:
            k.drain(until)
        except BaseException:
            self._shutdown()
            raise
        if k.delta:
            self._wall += time.perf_counter() - t0
            return None
        self._settling = None
        steps_delta = k.steps - start
        k.flush_stats()
        fires_seen = sum(k.stats.trigger_edges.values())
        # the rules' put edges only: a feed's start at its source, and
        # a long session has fed from more sources than can be walked
        edges, tables = k.stats.put_edges, k.program.tables
        puts_seen = sum(edges.get((r.name, t), 0) for r in k.program.rules for t in tables)
        fires, puts = fires_seen - self._fires_seen, puts_seen - self._puts_seen
        self._fires_seen, self._puts_seen = fires_seen, puts_seen
        widths = k.stats.frontier_widths[k.steps - steps_delta :]
        if k.options.retraction:
            # retraction repair can insert/remove lines *below* the
            # cursor (output is causally keyed, not append-only), so the
            # increment view is unsound — each settle returns the full
            # cumulative output instead
            new_output = list(k.output)
        else:
            new_output = k.output[self._out_cursor :]
        self._wall += time.perf_counter() - t0
        k.stats.settles.append(
            {
                "settle": len(k.stats.settles) + 1,
                "fed": self._fed_since_settle,
                "steps": steps_delta,
                "fires": fires,
                "puts": puts,
                "output_lines": len(new_output),
                "max_width": max(widths, default=0),
            }
        )
        self._out_cursor = len(k.output)
        self._fed_since_settle = 0
        return k.build_result(output=new_output, steps=steps_delta, wall=self._wall - wall0)

    def close(self) -> RunResult:
        """Settle anything pending, emit the run-end event, release the
        strategy, and return the *cumulative* result.  Idempotent: a
        second close returns the same result."""
        if self._closed:
            if self._final is not None:
                return self._final
            raise EngineError("session was shut down by an error; no result")
        self._require_open()
        try:
            if self.kernel.delta or self._fed_since_settle:
                self.settle()
            t0 = time.perf_counter()
            k = self.kernel
            # released before the result is built: a sharded backend
            # folds what its shards counted into the collector as it
            # reaps them
            k.strategy.close()
            k.flush_stats()
            k.emit_run_end()
            self._wall += time.perf_counter() - t0
            self._final = k.build_result(
                output=k.output, steps=k.steps, wall=self._wall
            )
        finally:
            self._shutdown()
        return self._final

    # -- checkpoint / restore --------------------------------------------------

    def snapshot(
        self, dest: str | Path | IO[str] | None = None, *, extra: object = None
    ) -> dict:
        """Serialise the full session state to the versioned snapshot
        document (see :mod:`repro.core.snapshot`); optionally write it
        to ``dest`` as JSON.  The session stays open.  ``extra`` is an
        opaque JSON-serialisable value stored under the document's
        ``extra`` key and ignored on restore — callers (e.g. the session
        service) use it to persist their own metadata atomically with
        the engine state."""
        self._require_open()
        from repro.core.snapshot import build_snapshot

        payload = build_snapshot(self, extra)
        if dest is not None:
            text = json.dumps(payload)  # the C encoder; json.dump is iterencode
            if isinstance(dest, (str, Path)):
                Path(dest).write_text(text, encoding="utf-8")
            else:
                dest.write(text)
        return payload

    @classmethod
    def restore(
        cls,
        source: str | Path | IO[str] | dict,
        program: Program,
        options: ExecOptions | None = None,
        strategy: Strategy | None = None,
    ) -> "EngineSession":
        """Rebuild a live, open session from a snapshot.  ``program``
        must be the same program the snapshot was taken from (rules are
        code and cannot be serialised; the snapshot carries the program
        name and table schemas and refuses a mismatch)."""
        from repro.core.snapshot import restore_session

        return restore_session(cls, source, program, options, strategy)


from repro.core.errors import CausalityError, UnknownTableError  # noqa: E402

#: feed-time errors raised before any kernel mutation — safe to keep
#: the session open after
_ADMISSION_ERRORS = (CausalityError, UnknownTableError)


# -- chunking helpers ----------------------------------------------------------


def causal_sort(db: Database, tuples: Iterable[JTuple]) -> list[JTuple]:
    """Stable-sort tuples by their timestamps.  Stability matters: the
    relative order of same-class tuples determines Delta leaf insertion
    order, which is the engine's deterministic pop order."""
    ts = db.timestamp
    return sorted(
        tuples, key=cmp_to_key(lambda a, b: compare_timestamps(ts(a), ts(b)))
    )


def causal_chunks(
    db: Database, tuples: Iterable[JTuple], k: int
) -> list[list[JTuple]]:
    """Split a workload into at most ``k`` feed chunks that are aligned
    to equivalence-class boundaries (no class straddles two chunks) and
    causally ordered across chunks.  Feeding these chunks through
    ``feed``/``settle`` produces byte-identical results to feeding the
    whole workload at once: each chunk's classes sit entirely at or
    above the high-water mark its predecessors left behind."""
    ordered = causal_sort(db, tuples)
    if not ordered:
        return []
    ts = db.timestamp
    classes: list[list[JTuple]] = []
    for tup in ordered:
        if classes and compare_timestamps(ts(classes[-1][-1]), ts(tup)) == 0:
            classes[-1].append(tup)
        else:
            classes.append([tup])
    k = max(1, min(k, len(classes)))
    base, extra = divmod(len(classes), k)
    chunks: list[list[JTuple]] = []
    i = 0
    for j in range(k):
        n = base + (1 if j < extra else 0)
        group = classes[i : i + n]
        i += n
        chunks.append([t for cls in group for t in cls])
    return chunks
