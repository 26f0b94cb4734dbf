"""§6.3 — phase breakdown of the optimised PvWatts program (1 thread).

Paper: "the relative times of the various phases are: 16.9 % reading
and parsing the input file; 63.7 % creating the PvWatts tuples and
inserting them into their Gamma table; 3.8 % creating SumMonth tuples
and inserting into the Delta tree; 15.6 % processing the SumMonth
tuples by running a Statistics reducer over all the PvWatts tuples for
each month."  This split is what motivates the Disruptor redesign
(Amdahl: ≤ 4.2x with one reader and 12 consumers).

We regenerate the same four-way split from the cost meter's counter
ledger and recompute the paper's Amdahl bound from the measured read
fraction.
"""

from __future__ import annotations

from repro.apps.pvwatts import array_of_hashsets_store, run_pvwatts
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions

PAPER = {"read": 16.9, "gamma": 63.7, "delta": 3.8, "reduce": 15.6}


def phase_fractions(result) -> dict[str, float]:
    m = result.meter
    read = m.costs.get("csv_parse", 0.0) + m.costs.get("io_record", 0.0)
    gamma = (
        m.cost_by_prefix("gamma_insert:PvWatts")
        + m.costs.get("tuple_put", 0.0)  # tuple creation
    )
    delta = (
        m.costs.get("delta_insert", 0.0)
        + m.costs.get("delta_pop", 0.0)
        + m.cost_by_prefix("gamma_insert:SumMonth")
    )
    reduce_ = (
        m.costs.get("reduce_op", 0.0)
        + m.cost_by_prefix("gamma_lookup:PvWatts")
        + m.cost_by_prefix("gamma_result:PvWatts")
        + m.costs.get("query_result", 0.0)
    )
    total = read + gamma + delta + reduce_
    return {
        "read": 100 * read / total,
        "gamma": 100 * gamma / total,
        "delta": 100 * delta / total,
        "reduce": 100 * reduce_ / total,
    }


def test_sec63_phase_breakdown(benchmark, csv_by_month, emit):
    opts = ExecOptions(
        strategy="forkjoin",
        threads=1,
        no_delta=frozenset({"PvWatts"}),
        store_overrides={"PvWatts": array_of_hashsets_store()},
    )
    result = benchmark.pedantic(
        lambda: run_pvwatts(csv_by_month, opts), rounds=2, warmup_rounds=1
    )
    frac = phase_fractions(result)
    amdahl = 1.0 / (frac["read"] / 100 + (1 - frac["read"] / 100) / 12)
    paper_amdahl = 1.0 / (0.169 + (1 - 0.169) / 12)
    rows = [
        FigureRow(f"{name} %", frac[name], paper=PAPER[name]) for name in PAPER
    ] + [
        FigureRow("Amdahl bound (1 reader, 12 consumers)", amdahl, paper=paper_amdahl)
    ]
    emit(
        "sec63_phases",
        figure_block(
            "§6.3 — optimised PvWatts phase breakdown at 1 thread (% of work)",
            rows,
            note="phases attributed from the cost-meter ledger; the Amdahl "
            "bound justifies the Disruptor design exactly as in the paper",
        ),
    )
    # shape: gamma-insert phase dominates, read is a minority, the split
    # ranks the same way as the paper's
    assert frac["gamma"] > frac["read"] > frac["delta"]
    assert frac["gamma"] > 40
    assert 2.5 < amdahl < 7.0
