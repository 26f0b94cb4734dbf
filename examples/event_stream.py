#!/usr/bin/env python3
"""Event-driven programming: a sensor monitor (§3 + footnote 8).

Demonstrates four idioms — three straight from the paper, one from the
session API built on top of it:

* **external input tuples** arrive (here: shuffled!) and trigger rules
  through the Delta set — the program is an event processor with no
  event loop written anywhere;
* **the kosher println**: output lines are `Println` tuples whose
  orderby defines the log's sort order, so the printed alerts come out
  in causal (tick, sensor) order no matter how the inputs arrived or
  which strategy ran the rules;
* **lifetime hints** (§5 step 4): readings are only ever compared with
  the previous tick, so `RetentionHint("tick", 2)` keeps the Gamma heap
  at two ticks forever — identical output, bounded memory;
* **incremental sessions**: the same program driven by
  `EngineSession.feed`/`settle` as events arrive in bursts, with a
  mid-stream checkpoint — the finished log is byte-identical to the
  single-shot run.

Run:  python examples/event_stream.py
"""

import json
import tempfile
from pathlib import Path

from repro.apps.sensors import build_sensor_stream, run_sensors
from repro.core import EngineSession, ExecOptions, causal_chunks


def main() -> None:
    r = run_sensors(n_ticks=50, n_sensors=8)
    print(f"{len(r.output)} alerts from 400 shuffled readings, "
          "printed in causal order:")
    for line in r.output:
        print(" ", line)

    # same program, 8-way fork/join: byte-identical log
    r8 = run_sensors(n_ticks=50, n_sensors=8,
                     options=ExecOptions(strategy="forkjoin", threads=8))
    assert r8.output == r.output
    print("\nfork/join x8 produced the identical log (§1.3 determinism)")

    # bounded-memory variant
    rb = run_sensors(n_ticks=50, n_sensors=8, bounded_memory=True)
    assert rb.output == r.output
    print(f"\nwith RetentionHint('tick', 2): Gamma holds "
          f"{rb.table_sizes['Reading']} readings instead of "
          f"{r.table_sizes['Reading']} "
          f"({rb.stats.tables['Reading'].gamma_discarded} discarded), "
          "same output")
    print("(at paper-scale heaps this is what keeps the GC tax bounded — "
          "see figures/test_ablation_retention.py)")

    # the streaming twin: events arrive in five bursts, the session
    # settles after each, and we checkpoint after the second burst the
    # way a long-running monitor would
    handles, events = build_sensor_stream(n_ticks=50, n_sensors=8)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "monitor.snapshot.json"
        with handles.program.session() as s:
            chunks = causal_chunks(s.database, events, 5)
            for i, chunk in enumerate(chunks):
                s.feed(chunk)
                s.settle()
                if i == 1:
                    doc = s.snapshot(snap)
                    print(f"\nburst {i + 1}: checkpointed at step {doc['steps']} "
                          f"({len(json.dumps(doc)) // 1024} KiB on disk)")
        rs = s.result
        assert rs.output == r.output
        print(f"{len(chunks)} bursts fed through an EngineSession: "
              "identical log, per-settle stats in run_report(result)")

        # ... and the crash-recovery story: restore the checkpoint and
        # feed it the bursts the "crashed" monitor never saw
        resumed = EngineSession.restore(snap, handles.program)
        for chunk in chunks[2:]:
            resumed.feed(chunk)
            resumed.settle()
        rr = resumed.close()
        assert rr.output == r.output
        print("restored from the checkpoint, fed the remaining bursts: "
              "identical log again (snapshots are exact resume points)")


if __name__ == "__main__":
    main()
