"""Ablation — the data-structure advisor vs hand tuning (§1.4/§6.2).

The paper hand-crafted the PvWatts array-of-hashsets store after
"some experimentation" and planned "a compiler flag that automates the
generation of these optimised ... data structures, in the future".
This bench runs that flag: profile once with default stores, let the
advisor pick representations from the observed query shapes, and
compare three configurations at the Fig 8 operating point (8 threads,
-noDelta):

* default stores (concurrent skip lists),
* advisor-chosen stores,
* the paper's hand-tuned custom store.

The advisor must recover most of the hand-tuned gain without a human
in the loop — and never change program output.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import (
    array_of_hashsets_store,
    month_means_from_output,
    run_pvwatts,
)
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions
from repro.stats import advise, overrides_from

BASE = ExecOptions(strategy="forkjoin", threads=8, no_delta=frozenset({"PvWatts"}))


@pytest.fixture(scope="module")
def configs(csv_by_month):
    # stage A: profile with defaults (sequential is fine for shapes)
    profiled = run_pvwatts(
        csv_by_month, ExecOptions(no_delta=frozenset({"PvWatts"})), n_readers=8
    )
    recommendations = advise(profiled)
    advised_overrides = overrides_from(recommendations)

    default = run_pvwatts(csv_by_month, BASE, n_readers=8)
    advised = run_pvwatts(
        csv_by_month, BASE.with_(store_overrides=advised_overrides), n_readers=8
    )
    hand = run_pvwatts(
        csv_by_month,
        BASE.with_(store_overrides={"PvWatts": array_of_hashsets_store()}),
        n_readers=8,
    )
    return profiled, recommendations, default, advised, hand


def test_ablation_advisor_report(benchmark, configs, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    profiled, recommendations, default, advised, hand = configs

    # identical answers across all configurations
    ref = month_means_from_output(default.output)
    for r in (advised, hand):
        assert month_means_from_output(r.output) == ref

    by_table = {r.table: r for r in recommendations}
    rows = [
        FigureRow("default stores @8 (wu)", default.virtual_time),
        FigureRow("advisor-chosen stores @8 (wu)", advised.virtual_time),
        FigureRow("hand-tuned custom store @8 (wu)", hand.virtual_time),
        FigureRow("advisor gain over default", default.virtual_time / advised.virtual_time),
        FigureRow("hand-tuned gain over default", default.virtual_time / hand.virtual_time),
        FigureRow(
            "advisor recovers this share of the hand-tuned gain",
            (default.virtual_time - advised.virtual_time)
            / max(1e-9, default.virtual_time - hand.virtual_time),
        ),
    ]
    note = f"advisor picked for PvWatts: {by_table['PvWatts'].kind} — {by_table['PvWatts'].reason}"
    emit(
        "ablation_advisor",
        figure_block(
            "Ablation — §1.4 data-structure advisor vs hand tuning (PvWatts @8)",
            rows,
            note=note,
        ),
    )
    assert by_table["PvWatts"].kind in ("hash-index", "array-of-hashsets")
    assert advised.virtual_time < default.virtual_time           # it helps
    share = (default.virtual_time - advised.virtual_time) / (
        default.virtual_time - hand.virtual_time
    )
    assert share > 0.7                                           # most of the gain
