"""Ablation — the Delta-tree contention knob behind Fig 12.

§8: "We are still investigating why the speedup is not higher for the
Dijkstra shortest path program (it seems to be a problem with the
scalability of our Delta tree data structures)."

The virtual machine makes that hypothesis a tunable: the serialisable
fraction of Delta traffic (``CalibratedCosts.delta_serial_fraction``,
default 0.30 — calibrated once against §6.2).  Sweeping it shows the
Fig 12 plateau is *caused* by that fraction: a perfectly scalable Delta
tree (fraction 0) pushes Dijkstra toward linear speedup, and a worse
one caps it lower — quantitative support for the paper's diagnosis and
a prediction for their future tuning ("continuing to tune the JStar
compiler and runtime to get ... better scalability").
"""

from __future__ import annotations

import pytest

from repro.apps.shortestpath import (
    GraphSpec,
    distances_from_result,
    recommended_options,
    run_shortestpath,
)
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions
from repro.simcore import CalibratedCosts

SPEC = GraphSpec(n_vertices=1200, extra_edges=2400)
FRACTIONS = (0.0, 0.15, 0.30, 0.60)


def _speedup_at_8(fraction: float) -> float:
    calib = CalibratedCosts(delta_serial_fraction=fraction)

    def run(threads: int):
        return run_shortestpath(
            SPEC,
            recommended_options(
                ExecOptions(strategy="forkjoin", threads=threads, calib=calib)
            ),
        )

    r1, r8 = run(1), run(8)
    assert distances_from_result(r1) == distances_from_result(r8)
    return r1.virtual_time / r8.virtual_time


@pytest.fixture(scope="module")
def sweep():
    return {f: _speedup_at_8(f) for f in FRACTIONS}


def test_ablation_delta_contention_report(benchmark, sweep, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    rows = [
        FigureRow(f"delta serial fraction = {f:.2f}: speedup @8", s)
        for f, s in sweep.items()
    ]
    rows.append(
        FigureRow("calibrated default (0.30) reproduces Fig 12's", sweep[0.30], paper=4.0)
    )
    emit(
        "ablation_delta_contention",
        figure_block(
            "Ablation — Delta-tree scalability knob vs Dijkstra speedup @8 "
            "(§8's diagnosis, quantified)",
            rows,
            note="a perfectly scalable Delta tree lifts the plateau; the "
            "calibrated fraction lands on the paper's ~4x",
        ),
    )
    # monotone: worse Delta scalability => lower speedup
    speeds = [sweep[f] for f in FRACTIONS]
    assert all(a >= b - 1e-9 for a, b in zip(speeds, speeds[1:]))
    # removing the contention entirely frees substantial headroom
    assert sweep[0.0] > sweep[0.30] * 1.2
    # the calibrated point stays in the paper's band
    assert 3.0 < sweep[0.30] < 5.5
