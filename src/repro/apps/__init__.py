"""The paper's case-study programs (§6) and the Fig 2 Ship walkthrough,
written in the embedded JStar DSL, plus hand-coded baselines
(`repro.apps.baselines`) standing in for the paper's Java comparators.
"""

from repro._lazy import lazy_exports

# one entry per app: importing one (``repro.apps.pvwatts``) loads no
# other, and numpy loads with the first app that stores in it
_APPS = {
    "baselines": ("baselines",),
    "ship": ("FIG2_TRACE", "build_ship_program", "run_ship", "ship_trace"),
    "pvwatts": (
        "build_pvwatts_program",
        "run_pvwatts",
        "month_means_from_output",
        "array_of_hashsets_store",
        "hash_index_store",
    ),
    "pvwatts_disruptor": (
        "DisruptorConfig",
        "run_disruptor_threaded",
        "run_disruptor_simulated",
    ),
    "matmul": ("build_matmul_program", "run_matmul", "random_matrix"),
    "shortestpath": (
        "GraphSpec",
        "make_graph",
        "build_shortestpath_program",
        "run_shortestpath",
        "recommended_options",
        "distances_from_result",
    ),
    "median": ("build_median_program", "run_median", "median_from_result", "random_doubles"),
    "sensors": ("build_sensor_program", "run_sensors"),
}
__getattr__, __dir__ = lazy_exports(__name__, _APPS)
__all__ = [name for names in _APPS.values() for name in names]
