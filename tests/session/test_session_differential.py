"""Session equivalence: chunked feed/settle and snapshot→restore runs
must be byte-identical to single-shot ``Program.run``.

Every example app's inputs are split into causally-aligned chunks
(:func:`repro.core.causal_chunks`) and driven through an
:class:`~repro.core.EngineSession` with one ``settle()`` per chunk,
under every strategy.  The claim checked is the §1.3 determinism
guarantee extended to *incremental arrival*: output text, per-table
sizes, and the semantic trace are identical to feeding everything at
once.  ``admit`` events (an external tuple entering Delta) are compared
as a step-independent multiset — *when* input arrived is exactly the
degree of freedom a session adds; everything downstream of admission
must not notice.

The snapshot leg cuts each run in half: settle chunk 1, snapshot,
restore into a fresh session (fresh strategy, fresh stores), feed the
rest, and compare the combined run against single-shot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.median import build_median_program
from repro.apps.pvwatts import build_pvwatts_program
from repro.apps.sensors import build_sensor_program
from repro.apps.ship import build_ship_program
from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import EngineSession, ExecOptions, causal_chunks
from repro.csvio.synth import generate_csv_bytes
from repro.gamma.nativearray import TwoIterationArrayStore
from repro.trace import format_divergence, trace_diff

CONFIGS = [
    pytest.param(("sequential", 1), id="sequential"),
    pytest.param(("forkjoin", 4), id="forkjoin-4"),
    pytest.param(("threads", 3), id="threads-3"),
    pytest.param(("chaos", 7), id="chaos-7"),
]


def _options(config, **extra) -> ExecOptions:
    strategy, n = config
    if strategy == "chaos":
        return ExecOptions(strategy="chaos", chaos_seed=n, trace=True, **extra)
    return ExecOptions(strategy=strategy, threads=n, trace=True, **extra)


@pytest.fixture(scope="module")
def small_csv() -> bytes:
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    return b"\n".join(lines[:1200]) + b"\n"


def ship_case(_csv):
    p, _ = build_ship_program()
    return p, {}


def pvwatts_case(csv):
    h = build_pvwatts_program({"large1000.csv": csv}, n_readers=2)
    return h.program, {}


def shortestpath_case(_csv):
    h = build_shortestpath_program(
        GraphSpec(n_vertices=60, extra_edges=90, seed=3), n_gen_tasks=4
    )
    return h.program, {}


def sensors_case(_csv):
    h = build_sensor_program(n_ticks=12, n_sensors=4)
    return h.program, {}


def median_case(_csv):
    vals = np.random.default_rng(9).random(300)
    h = build_median_program(vals, n_regions=6)
    n = len(vals)
    return h.program, {
        "store_overrides": {"Data": lambda schema: TwoIterationArrayStore(schema, n)}
    }


APPS = {
    "ship": ship_case,
    "pvwatts": pvwatts_case,
    "shortestpath": shortestpath_case,
    "sensors": sensors_case,
    "median": median_case,
}

#: apps whose stores all support checkpointing (median's two-iteration
#: ring store deliberately opts out — see test_snapshot.py)
SNAPSHOT_APPS = ["ship", "pvwatts", "shortestpath", "sensors"]


def _admit_multiset(trace):
    return sorted(
        (e.kind, tuple(sorted(e.data.items())))
        for e in trace.events
        if not e.meta and e.kind == "admit"
    )


def _non_admit(trace):
    return [e for e in trace.events if not e.meta and e.kind != "admit"]


def _assert_equivalent(ref, got, label):
    assert got.output_text() == ref.output_text(), f"output diverged: {label}"
    assert got.table_sizes == ref.table_sizes, f"table sizes diverged: {label}"
    assert got.steps == ref.steps, f"step count diverged: {label}"
    d = trace_diff(_non_admit(ref.trace), _non_admit(got.trace))
    assert d is None, f"trace diverged ({label}): {format_divergence(d)}"
    assert _admit_multiset(ref.trace) == _admit_multiset(got.trace), (
        f"admitted tuples diverged: {label}"
    )


def _single_shot(case, csv, config):
    program, extra = case(csv)
    return program.run(_options(config, **extra))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", list(APPS), ids=list(APPS))
class TestChunkedFeed:
    def test_chunked_equals_single_shot(self, app, config, small_csv):
        ref = _single_shot(APPS[app], small_csv, config)
        program, extra = APPS[app](small_csv)
        puts = list(program.initial_puts)
        program.initial_puts.clear()  # the session owns the input stream
        with program.session(_options(config, **extra)) as s:
            chunks = causal_chunks(s.database, puts, 4)
            for chunk in chunks:
                s.feed(chunk)
                s.settle()
        _assert_equivalent(ref, s.result, f"{app} under {config}, {len(chunks)} chunks")


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", SNAPSHOT_APPS, ids=SNAPSHOT_APPS)
class TestSnapshotRestore:
    def test_snapshot_restore_equals_single_shot(self, app, config, small_csv, tmp_path):
        ref = _single_shot(APPS[app], small_csv, config)
        program, extra = APPS[app](small_csv)
        puts = list(program.initial_puts)
        program.initial_puts.clear()
        opts = _options(config, **extra)
        path = tmp_path / "session.snapshot.json"

        first = program.session(opts).open()
        chunks = causal_chunks(first.database, puts, 2)
        first.feed(chunks[0])
        first.settle()
        first.snapshot(path)
        first.close()  # the "crashed" producer; its result is discarded

        resumed = EngineSession.restore(path, program, opts)
        for chunk in chunks[1:]:
            resumed.feed(chunk)
            resumed.settle()
        got = resumed.close()
        _assert_equivalent(ref, got, f"{app} snapshot/restore under {config}")
