"""Shared app registry for the chaos fuzz harness.

Every example app is exposed as a ``name -> runner(options)`` mapping,
sized so that 20 chaos seeds per app stay cheap.  Runners build a fresh
program per call (a session runs once) and take *plain* options — no
``-noDelta`` hints — because raise-faults require fully delta-buffered
effects (see ``ExecOptions.__post_init__``).
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

APP_NAMES = ["ship", "pvwatts", "shortestpath", "sensors", "median"]


@pytest.fixture(scope="session")
def chaos_apps():
    lines = generate_csv_bytes(n_years=1).split(b"\n")
    csv = b"\n".join(lines[:400]) + b"\n"
    vals = np.random.default_rng(9).random(200)
    spec = GraphSpec(n_vertices=30, extra_edges=40, seed=3)
    return {
        "ship": lambda o: run_ship(o),
        "pvwatts": lambda o: run_pvwatts(csv, o, n_readers=2),
        "shortestpath": lambda o: run_shortestpath(spec, o, n_gen_tasks=3),
        "sensors": lambda o: run_sensors(n_ticks=10, n_sensors=4, options=o),
        "median": lambda o: run_median(vals, o, n_regions=4),
    }


@pytest.fixture(scope="session")
def baselines(chaos_apps):
    """Traced sequential reference run per app."""
    return {
        name: run(ExecOptions(strategy="sequential", trace=True))
        for name, run in chaos_apps.items()
    }
