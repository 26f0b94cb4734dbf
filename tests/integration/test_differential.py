"""Cross-strategy differential harness.

§1.3's guarantee — identical output under every strategy and thread
count.  This harness runs every example program under the full matrix

    {sequential, forkjoin×{1, 2, 4}, threads×{1, 2, 4}, chaos×3 seeds}

and asserts byte-identical ``output_text()``, equal ``table_sizes``,
and — every run being traced — zero divergent semantic trace events
(``trace_diff``) against the sequential reference.  A divergence
pinpoints its configuration via the parametrised test id.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.median import run_median
from repro.apps.pvwatts import run_pvwatts
from repro.apps.sensors import run_sensors
from repro.apps.ship import run_ship
from repro.apps.shortestpath import GraphSpec, run_shortestpath
from repro.core import ExecOptions
from repro.csvio.synth import generate_csv_bytes

# sequential ignores the thread count, so it appears once; for the
# chaos axis the second element is the schedule-fuzzing seed instead
CONFIGS = [
    ("sequential", 1),
    ("forkjoin", 1),
    ("forkjoin", 2),
    ("forkjoin", 4),
    ("threads", 1),
    ("threads", 2),
    ("threads", 4),
    ("chaos", 0),
    ("chaos", 1),
    ("chaos", 2),
]
MATRIX = [pytest.param((s, t), id=f"{s}-{t}") for (s, t) in CONFIGS]


def _options(config) -> ExecOptions:
    strategy, n = config
    if strategy == "chaos":
        return ExecOptions(strategy="chaos", chaos_seed=n, trace=True)
    return ExecOptions(strategy=strategy, threads=n, trace=True)


@pytest.fixture(scope="module")
def small_csv() -> bytes:
    """A sliced-down PvWatts year: header + ~1500 records, enough for
    every month to appear without making 10 runs per app expensive."""
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    return b"\n".join(lines[:1500]) + b"\n"


def _assert_same(run, config):
    """Run under the reference config and the probed config; compare."""
    from repro.trace import format_divergence, trace_diff

    ref = run(ExecOptions(trace=True))
    got = run(_options(config))
    assert got.output_text() == ref.output_text(), (
        f"output diverged under {config}"
    )
    assert got.table_sizes == ref.table_sizes, (
        f"table sizes diverged under {config}"
    )
    d = trace_diff(ref.trace, got.trace)
    assert d is None, f"trace diverged under {config}: {format_divergence(d)}"


@pytest.mark.parametrize("config", MATRIX)
class TestDifferential:
    def test_ship(self, config):
        _assert_same(lambda o: run_ship(o), config)

    def test_pvwatts(self, config, small_csv):
        _assert_same(
            lambda o: run_pvwatts(small_csv, o, n_readers=2), config
        )

    def test_shortestpath(self, config):
        spec = GraphSpec(n_vertices=90, extra_edges=140, seed=3)
        _assert_same(
            lambda o: run_shortestpath(spec, o, n_gen_tasks=4), config
        )

    def test_sensors(self, config):
        _assert_same(
            lambda o: run_sensors(n_ticks=12, n_sensors=4, options=o), config
        )

    def test_median(self, config):
        vals = np.random.default_rng(9).random(500)
        _assert_same(lambda o: run_median(vals, o, n_regions=6), config)

