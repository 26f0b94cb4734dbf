"""§6.2 — the ``-noDelta PvWatts`` optimisation.

Paper: "the sequential execution time is 23.0 seconds without the
optimisation and 8.44 seconds with the optimisation" — a 2.73×
sequential improvement from routing the 8.76 M PvWatts tuples straight
into Gamma instead of through the Delta tree (§5.1).

Reproduced in both currencies: virtual time (the calibrated model of a
compiled runtime) and wall time (pytest-benchmark).
"""

from __future__ import annotations

from repro.apps.pvwatts import month_means_from_output, run_pvwatts
from repro.figures import FigureRow, figure_block
from repro.core import ExecOptions

PAPER_RATIO = 23.0 / 8.44  # 2.73x

PLAIN = ExecOptions(strategy="sequential")
NODELTA = PLAIN.with_(no_delta=frozenset({"PvWatts"}))


def test_nodelta_wall_plain(benchmark, csv_by_month):
    benchmark.pedantic(lambda: run_pvwatts(csv_by_month, PLAIN), rounds=3, warmup_rounds=1)


def test_nodelta_wall_optimised(benchmark, csv_by_month):
    benchmark.pedantic(lambda: run_pvwatts(csv_by_month, NODELTA), rounds=3, warmup_rounds=1)


def test_sec62_report(benchmark, csv_by_month, emit):
    plain = benchmark.pedantic(
        lambda: run_pvwatts(csv_by_month, PLAIN), rounds=2, warmup_rounds=1
    )
    opt = run_pvwatts(csv_by_month, NODELTA)
    # identical answers
    assert month_means_from_output(plain.output) == month_means_from_output(opt.output)
    ratio_v = plain.virtual_time / opt.virtual_time
    rows = [
        FigureRow("plain virtual time (wu)", plain.virtual_time),
        FigureRow("-noDelta virtual time (wu)", opt.virtual_time),
        FigureRow("virtual speedup", ratio_v, paper=PAPER_RATIO),
        FigureRow("plain wall (s)", plain.wall_time),
        FigureRow("-noDelta wall (s)", opt.wall_time),
        FigureRow("wall speedup", plain.wall_time / max(opt.wall_time, 1e-9), paper=PAPER_RATIO),
        FigureRow(
            "delta inserts avoided",
            plain.stats.tables["PvWatts"].delta_inserts
            - opt.stats.tables["PvWatts"].delta_inserts,
        ),
    ]
    emit(
        "sec62_nodelta",
        figure_block(
            "§6.2 — -noDelta PvWatts: 23.0 s -> 8.44 s in the paper (2.73x)",
            rows,
            note="mechanism: 8 760 PvWatts tuples skip the Delta tree entirely",
        ),
    )
    assert ratio_v > 1.3
    assert opt.stats.tables["PvWatts"].delta_bypass == 8760
