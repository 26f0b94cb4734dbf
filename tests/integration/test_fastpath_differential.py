"""Differential harness for the zero-overhead hot path.

``metering="off"`` and the compiled plan cache are pure performance
features: §1.3's determinism contract demands they change *time*,
never results.  This harness runs every example program
under the fast-path matrix

    {sequential, forkjoin×2, threads×2, chaos} × metering="off"

and asserts byte-identical ``output_text()``, equal ``table_sizes``,
and zero divergent semantic trace events (``trace_diff``) against the
fully metered sequential reference.  A final 20-seed chaos fuzz leg
replays the schedule-permutation matrix with metering off.
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
from repro.trace import format_divergence, trace_diff

# (strategy, threads-or-seed)
FAST_CONFIGS = [
    ("sequential", 1),
    ("forkjoin", 2),
    ("threads", 2),
    ("chaos", 1),
]

MATRIX = [pytest.param(c, id=f"{c[0]}-{c[1]}") for c in FAST_CONFIGS]


def _fast_options(config) -> ExecOptions:
    strategy, n = config
    kw = dict(metering="off", trace=True)
    if strategy == "chaos":
        return ExecOptions(strategy="chaos", chaos_seed=n, **kw)
    return ExecOptions(strategy=strategy, threads=n, **kw)


@pytest.fixture(scope="module")
def small_csv() -> bytes:
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    return b"\n".join(lines[:1500]) + b"\n"


def _apps(small_csv):
    vals = np.random.default_rng(9).random(500)
    spec = GraphSpec(n_vertices=90, extra_edges=140, seed=3)
    return {
        "ship": lambda o: run_ship(o),
        "pvwatts": lambda o: run_pvwatts(small_csv, o, n_readers=2),
        "shortestpath": lambda o: run_shortestpath(spec, o, n_gen_tasks=4),
        "sensors": lambda o: run_sensors(n_ticks=12, n_sensors=4, options=o),
        "median": lambda o: run_median(vals, o, n_regions=6),
    }


@pytest.fixture(scope="module")
def apps(small_csv):
    return _apps(small_csv)


@pytest.fixture(scope="module")
def references(apps):
    """The fully metered sequential runs every fast config must match."""
    return {name: run(ExecOptions(trace=True)) for name, run in apps.items()}


def _assert_same(got, ref, label: str) -> None:
    assert got.output_text() == ref.output_text(), f"output diverged: {label}"
    assert got.table_sizes == ref.table_sizes, f"table sizes diverged: {label}"
    d = trace_diff(ref.trace, got.trace)
    assert d is None, f"trace diverged: {label}: {format_divergence(d)}"


@pytest.mark.parametrize("config", MATRIX)
@pytest.mark.parametrize("app", ["ship", "pvwatts", "shortestpath", "sensors", "median"])
def test_fast_path_matches_metered_reference(app, config, apps, references):
    got = apps[app](_fast_options(config))
    _assert_same(got, references[app], f"{app} under {config}")


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("app", ["ship", "sensors", "shortestpath"])
def test_chaos_fuzz_with_metering_off(app, seed, apps, references):
    got = apps[app](
        ExecOptions(strategy="chaos", chaos_seed=seed, metering="off", trace=True)
    )
    _assert_same(got, references[app], f"{app} chaos seed {seed} metering off")
