"""Fig 8 — PvWatts relative speedup vs fork/join pool size, with
alternative data structures for the PvWatts Gamma table.

Paper (dual-CPU Xeon W5590, 8 cores): "The relative speedup is
average, reaching nearly 4X speedup with 8 threads.  The absolute
speedup figures are about 35 % lower, because the sequential Java data
structures (eg. TreeMap) are significantly faster than the equivalent
concurrent data structures."

Three Gamma backends are swept, per §6.2's data-structure discussion:
the default concurrent skip list, the (year, month) hash index, and
the custom array-of-hashsets — all via ``store_overrides``, the program
source untouched.
"""

from __future__ import annotations

import pytest

from repro.apps.pvwatts import (
    array_of_hashsets_store,
    hash_index_store,
    run_pvwatts,
)
from repro.figures import speedup_series
from repro.core import ExecOptions

THREADS = (1, 2, 4, 6, 8)
PAPER_RELATIVE_AT_8 = 4.0
PAPER_ABS_DISCOUNT = 0.35

BACKENDS = {
    "concurrent-skiplist (default)": None,
    "hash-index(year,month)": hash_index_store(),
    "array-of-hashsets (custom, §6.2)": array_of_hashsets_store(),
}


def _options(threads: int, backend) -> ExecOptions:
    overrides = {} if backend is None else {"PvWatts": backend}
    return ExecOptions(
        strategy="forkjoin",
        threads=threads,
        no_delta=frozenset({"PvWatts"}),
        store_overrides=overrides,
    )


#: each backend's -sequential reference uses its own sequential variant
#: (footnote 11: absolute speedup is vs the fastest sequential version)
SEQ_BACKENDS = {
    "concurrent-skiplist (default)": None,  # TreeSet default
    "hash-index(year,month)": hash_index_store(concurrent=False),
    "array-of-hashsets (custom, §6.2)": array_of_hashsets_store(concurrent=False),
}


@pytest.fixture(scope="module")
def series(csv_by_month):
    out = {}
    for label, backend in BACKENDS.items():
        seq_backend = SEQ_BACKENDS[label]
        seq = run_pvwatts(
            csv_by_month,
            ExecOptions(
                no_delta=frozenset({"PvWatts"}),
                store_overrides={} if seq_backend is None else {"PvWatts": seq_backend},
            ),
            n_readers=8,
        ).virtual_time
        out[label] = speedup_series(
            label,
            THREADS,
            lambda t, b=backend: run_pvwatts(
                csv_by_month, _options(t, b), n_readers=8
            ).virtual_time,
            sequential=seq,
        )
    return out


def test_fig08_wall_at_8_threads(benchmark, csv_by_month):
    benchmark.pedantic(
        lambda: run_pvwatts(
            csv_by_month, _options(8, array_of_hashsets_store()), n_readers=8
        ),
        rounds=3,
        warmup_rounds=1,
    )


def test_fig08_report(benchmark, series, emit):
    benchmark.pedantic(lambda: None, rounds=1)
    blocks = [s.format() for s in series.values()]
    custom = series["array-of-hashsets (custom, §6.2)"]
    default = series["concurrent-skiplist (default)"]
    rel8 = custom.relative[-1]
    discount = 1 - default.absolute[-1] / default.relative[-1]
    blocks.append(
        f"custom-store relative speedup at 8 threads: {rel8:.2f} (paper ~{PAPER_RELATIVE_AT_8})\n"
        f"default-store absolute/relative discount: {discount:.0%} "
        f"(paper ~{PAPER_ABS_DISCOUNT:.0%}: TreeMap vs ConcurrentSkipListMap)"
    )

    emit("fig08_pvwatts_speedup", "### Fig 8 — PvWatts speedup by Gamma backend\n" + "\n\n".join(blocks))

    assert 3.0 < rel8 < 5.5           # "nearly 4X with 8 threads"
    assert 0.15 < discount < 0.50     # paper: ~35 %
    # custom store is the fastest backend in absolute time at 8 threads
    assert custom.elapsed[-1] <= min(s.elapsed[-1] for s in series.values())
    # monotone-ish speedup in threads
    assert custom.relative[0] == pytest.approx(1.0)
    assert custom.relative[-1] > custom.relative[1]
