"""Ablation — the GC-pressure model (§6.2's diagnosis).

Paper: "Given that this program inserts more than 8 million PvWatts
tuples that cannot be garbage collected into the Gamma database and
that we have observed up to 60 % of the elapsed time being spent in
the garbage collector, it is clear that garbage collection is at least
partially responsible" [for PvWatts's sub-linear speedup].

The ablation removes the GC model (``NO_GC``) and re-measures the
Fig 8 point: speedup improves and the GC share of elapsed time drops to
zero — i.e. the model attributes to garbage collection exactly the kind
of loss the paper blames on it.  A second arm keeps GC but removes the
*retained heap* by pruning PvWatts tuples with a lifetime hint after
aggregation would be unsound — so instead it uses the native-array
analogy: the custom store's small object count already lowers pressure;
we quantify that too.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import array_of_hashsets_store, run_pvwatts
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions
from repro.simcore import NO_GC, CalibratedCosts

BASE = ExecOptions(
    strategy="forkjoin",
    threads=8,
    no_delta=frozenset({"PvWatts"}),
    store_overrides={"PvWatts": array_of_hashsets_store()},
)


@pytest.fixture(scope="module")
def runs(csv_by_month):
    def run(opts):
        return run_pvwatts(csv_by_month, opts, n_readers=8)

    with_gc_1 = run(BASE.with_(threads=1))
    with_gc_8 = run(BASE)
    no_gc_1 = run(BASE.with_(threads=1, calib=NO_GC))
    no_gc_8 = run(BASE.with_(calib=NO_GC))
    heavy_gc_8 = run(BASE.with_(calib=CalibratedCosts(gc_alloc_cost=1.2)))
    return with_gc_1, with_gc_8, no_gc_1, no_gc_8, heavy_gc_8


def test_ablation_gc_report(benchmark, runs, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    with_gc_1, with_gc_8, no_gc_1, no_gc_8, heavy_gc_8 = runs
    s_with = with_gc_1.virtual_time / with_gc_8.virtual_time
    s_without = no_gc_1.virtual_time / no_gc_8.virtual_time
    gc_share = with_gc_8.report.gc_time / with_gc_8.report.elapsed
    heavy_share = heavy_gc_8.report.gc_time / heavy_gc_8.report.elapsed
    rows = [
        FigureRow("speedup @8, GC model on", s_with),
        FigureRow("speedup @8, GC model off", s_without),
        FigureRow("GC share of elapsed @8 (default model)", gc_share),
        FigureRow("GC share of elapsed @8 (heavy-alloc model)", heavy_share),
    ]
    emit(
        "ablation_gc",
        figure_block(
            "Ablation — GC pressure on PvWatts parallel runs "
            "(§6.2: 'up to 60% of elapsed time in the collector')",
            rows,
            note="removing the GC model recovers speedup; a heavier "
            "allocation model pushes the GC share toward the paper's 60%",
        ),
    )
    assert s_without > s_with          # GC is partially responsible
    assert gc_share > 0.05             # visible at default calibration
    assert heavy_share > gc_share      # and scales with allocation cost
    assert no_gc_8.report.gc_time == 0.0
