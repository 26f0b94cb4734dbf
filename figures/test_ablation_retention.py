"""Ablation — lifetime hints (§5 step 4) on a long event stream.

Paper: "If program analysis makes it possible to determine that this
tuple can never participate in future queries, then it can be removed
from the Gamma database and garbage collected.  Currently, this
program analysis is not automated, so we simply retain all tuples, or
use manual lifetime hints from the user to determine when tuples can
be discarded."

The sensor-monitoring program only ever queries the previous tick, so
a ``RetentionHint("tick", 2)`` is a sound manual hint.  The ablation
measures what the hint buys on a long stream: bounded heap, lower GC
tax, better parallel efficiency — identical output.
"""

from __future__ import annotations

import pytest

from repro.apps.sensors import run_sensors
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions
from repro.simcore.gc import GcModel

TICKS = 150
SENSORS = 8
# the GC model's half-full point is calibrated for the paper-scale
# heaps (hundreds of thousands of tuples); this stream is scaled down
# ~100x, so the model is scaled with it
OPTS = ExecOptions(strategy="forkjoin", threads=8, gc_model=GcModel(half_full=600.0))


@pytest.fixture(scope="module")
def runs():
    plain = run_sensors(TICKS, SENSORS, OPTS)
    bounded = run_sensors(TICKS, SENSORS, OPTS, bounded_memory=True)
    assert bounded.output == plain.output  # semantics untouched
    return plain, bounded


def test_ablation_retention_wall(benchmark):
    benchmark.pedantic(
        lambda: run_sensors(TICKS, SENSORS, OPTS, bounded_memory=True),
        rounds=2,
        warmup_rounds=1,
    )


def test_ablation_retention_report(benchmark, runs, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    plain, bounded = runs
    rows = [
        FigureRow("retained Reading tuples, no hint", float(plain.table_sizes["Reading"])),
        FigureRow("retained Reading tuples, hint keep-2", float(bounded.table_sizes["Reading"])),
        FigureRow("tuples discarded by the hint", float(bounded.stats.tables["Reading"].gamma_discarded)),
        FigureRow("GC time, no hint (wu)", plain.report.gc_time),
        FigureRow("GC time, hint (wu)", bounded.report.gc_time),
        FigureRow("elapsed, no hint (wu)", plain.virtual_time),
        FigureRow("elapsed, hint (wu)", bounded.virtual_time),
    ]
    emit(
        "ablation_retention",
        figure_block(
            "Ablation — §5 step 4 lifetime hints on a 150-tick event stream",
            rows,
            note="output is byte-identical; the hint bounds the heap at two "
            "ticks and removes most of the GC tax",
        ),
    )
    assert bounded.table_sizes["Reading"] == 2 * SENSORS
    assert plain.table_sizes["Reading"] == TICKS * SENSORS
    assert bounded.report.gc_time < plain.report.gc_time * 0.8
    assert bounded.virtual_time < plain.virtual_time
