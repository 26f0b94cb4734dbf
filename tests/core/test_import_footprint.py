"""The engine imports only what a run uses.

numpy backs the native-array stores, the data generators and the apps
that store in them; networkx backs the dependency graphs.  Their package
inits re-export those names lazily (PEP 562), so importing the engine,
the service, the mesh, the textual front-end or one app loads neither
stack.  Each check runs in a fresh interpreter: this process has long
since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: package -> {defining module -> the names the package re-exports lazily}
LAZY = {
    "repro.gamma": {"repro.gamma.nativearray": ["NativeArrayStore", "TwoIterationArrayStore"]},
    "repro.stats": {"repro.stats.depgraph": ["program_graph", "execution_graph"]},
    "repro.csvio": {
        "repro.csvio.synth": ["expected_month_means", "generate_csv_bytes", "hourly_records"]
    },
    "repro.apps": {
        "repro.apps.ship": ["FIG2_TRACE", "build_ship_program", "run_ship", "ship_trace"],
        "repro.apps.pvwatts": [
            "build_pvwatts_program",
            "run_pvwatts",
            "month_means_from_output",
            "array_of_hashsets_store",
            "hash_index_store",
        ],
        "repro.apps.pvwatts_disruptor": [
            "DisruptorConfig",
            "run_disruptor_threaded",
            "run_disruptor_simulated",
        ],
        "repro.apps.matmul": ["build_matmul_program", "run_matmul", "random_matrix"],
        "repro.apps.shortestpath": [
            "GraphSpec",
            "make_graph",
            "build_shortestpath_program",
            "run_shortestpath",
            "recommended_options",
            "distances_from_result",
        ],
        "repro.apps.median": [
            "build_median_program",
            "run_median",
            "median_from_result",
            "random_doubles",
        ],
        "repro.apps.sensors": ["build_sensor_program", "run_sensors"],
    },
}

_PROBE = """
import importlib, json, sys
lazy = json.loads(sys.argv[1])
out = {}
for pkg, homes in lazy.items():
    package = importlib.import_module(pkg)
    names = [n for ns in homes.values() for n in ns]
    out[pkg] = {
        "listed": [n for n in names if n not in dir(package)],
        "not_loaded_yet": [m for m in homes if m in sys.modules],
        "identity": [
            n for m, ns in homes.items() for n in ns
            if getattr(package, n) is not getattr(importlib.import_module(m), n)
        ],
        "in_all": [n for n in names if n not in package.__all__],
    }
    star = {}
    exec(f"from {pkg} import *", star)
    out[pkg]["star"] = sorted(set(package.__all__) - set(star))
    try:
        getattr(package, "no_such_name")
    except AttributeError as exc:
        out[pkg]["unknown"] = str(exc)
print(json.dumps(out))
"""


def _python(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_ROOT),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_engine_imports_no_numpy_or_networkx():
    loaded = _python(
        "import sys, repro, repro.core, repro.serve, repro.dist.procrun, repro.lang\n"
        "import repro.apps.pvwatts\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'networkx'}))"
    )
    assert loaded.strip() == "[]"


def test_lazy_names_resolve_to_the_defining_modules_objects():
    report = json.loads(_python(_PROBE, json.dumps(LAZY)))
    for pkg, found in report.items():
        assert found["listed"] == [], f"{pkg}: dir() misses a lazy name"
        assert found["not_loaded_yet"] == [], f"{pkg}: a lazy module loaded with the package"
        assert found["identity"] == [], f"{pkg}: a lazy name is not its module's object"
        assert found["in_all"] == [], f"{pkg}: a lazy name left __all__"
        assert found["star"] == [], f"{pkg}: import * missed a name"
        assert found["unknown"] == f"module {pkg!r} has no attribute 'no_such_name'"


def test_baselines_resolve_to_the_submodule():
    found = _python(
        "import sys, repro.apps\n"
        "print(repro.apps.baselines is sys.modules['repro.apps.baselines'])"
    )
    assert found.strip() == "True"
