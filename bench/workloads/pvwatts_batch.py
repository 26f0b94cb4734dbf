"""``pvwatts_batch``: Fig 4 map-reduce over a generated CSV, -noDelta
PvWatts into the month-array store, 8 readers."""

from __future__ import annotations

from repro.apps.pvwatts import (
    array_of_hashsets_store,
    build_pvwatts_program,
    month_means_from_output,
    run_pvwatts,
)
from repro.core import ExecOptions
from repro.csvio import expected_month_means, generate_csv_bytes

from bench import oracle
from bench.workloads.dijkstra_batch import codegen_build_ms, refused_rules

#: years of hourly records: 8 years = 1.35 MB of CSV, ~70k tuples
SIZES = {"full": 8, "quick": 1}
N_READERS = 8


def _means_agree(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(abs(got[k] - want[k]) < 6e-4 for k in want)


def run(rep) -> None:
    n_years = SIZES[rep.size]
    with rep.setup():
        data = generate_csv_bytes(n_years=n_years, seed=rep.seed, order="by-month")
    options = ExecOptions(
        no_delta=frozenset({"PvWatts"}),
        store_overrides={"PvWatts": array_of_hashsets_store(concurrent=False)},
        metering="off",
    )

    if rep.tracer is not None:
        rep.layers["plan.codegen_build_ms"] = codegen_build_ms(
            build_pvwatts_program({"f.csv": data}, "f.csv", N_READERS).program, options
        )
        rep.tracer.install("engine", "csvio")

    with rep.leg("default"):
        result = run_pvwatts(data, options, n_readers=N_READERS)
        result.output_text()
    # The printed means are float sums over hash-set iteration order, so
    # their last digit can differ between tiers and hash seeds (seed 102:
    # scalar prints 2017/4 as 1174.113, codegen as 1174.112).  The digest
    # therefore covers table sizes and month keys; the means are checked
    # against the generator's ground truth within half a printed digit.
    want = expected_month_means(n_years, seed=rep.seed)
    got = month_means_from_output(result.output)
    rep.digest = oracle.digest("", result.table_sizes, sorted(got))
    rep.check(_means_agree(got, want), "month means != generator's ground truth")
    rep.tuples = sum(result.table_sizes.values())
    rep.counts = {"steps": result.steps, "tuples": rep.tuples, "csv_bytes": len(data)}

    if rep.tracer is not None:
        return rep.hosted_here()

    rep.layers["gamma.heap_tuples"] = result.require_database().heap_tuples()
    rep.layers["core.kernel.steps"] = result.steps
    # the codegen leg starts from the heap the scalar leg started from
    del result
    with rep.leg("codegen"):
        fast = run_pvwatts(data, options.with_(execution="codegen"), n_readers=N_READERS)
        fast.output_text()
    fast_means = month_means_from_output(fast.output)
    rep.check_digest(
        oracle.digest("", fast.table_sizes, sorted(fast_means)),
        rep.digest,
        "codegen leg vs scalar leg",
    )
    rep.check(_means_agree(fast_means, want), "codegen month means != ground truth")
    rep.layers["plan.codegen_refused_rules"] = refused_rules(fast)
    rep.hosted_here()
