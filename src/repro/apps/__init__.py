"""The paper's case-study programs (§6) and the Fig 2 Ship walkthrough,
written in the embedded JStar DSL, plus hand-coded baselines
(`repro.apps.baselines`) standing in for the paper's Java comparators.
"""

from repro.apps import baselines
from repro.apps.matmul import build_matmul_program, random_matrix, run_matmul
from repro.apps.median import (
    build_median_program,
    median_from_result,
    random_doubles,
    run_median,
)
from repro.apps.pvwatts import (
    array_of_hashsets_store,
    build_pvwatts_program,
    hash_index_store,
    month_means_from_output,
    run_pvwatts,
)
from repro.apps.pvwatts_disruptor import (
    DisruptorConfig,
    run_disruptor_simulated,
    run_disruptor_threaded,
)
from repro.apps.sensors import build_sensor_program, run_sensors
from repro.apps.ship import FIG2_TRACE, build_ship_program, run_ship, ship_trace
from repro.apps.shortestpath import (
    GraphSpec,
    build_shortestpath_program,
    distances_from_result,
    make_graph,
    recommended_options,
    run_shortestpath,
)

__all__ = [
    "baselines",
    "FIG2_TRACE",
    "build_ship_program",
    "run_ship",
    "ship_trace",
    "build_pvwatts_program",
    "run_pvwatts",
    "month_means_from_output",
    "array_of_hashsets_store",
    "hash_index_store",
    "DisruptorConfig",
    "run_disruptor_threaded",
    "run_disruptor_simulated",
    "build_matmul_program",
    "run_matmul",
    "random_matrix",
    "GraphSpec",
    "make_graph",
    "build_shortestpath_program",
    "run_shortestpath",
    "recommended_options",
    "distances_from_result",
    "build_median_program",
    "run_median",
    "median_from_result",
    "random_doubles",
    "build_sensor_program",
    "run_sensors",
]
