"""Benchmark harness utilities (paper's §6 measurement protocol)."""

from repro.figures.figures import FigureRow, comparison_block, figure_block
from repro.figures.harness import SpeedupSeries, speedup_series, timed_average

__all__ = [
    "timed_average",
    "SpeedupSeries",
    "speedup_series",
    "FigureRow",
    "figure_block",
    "comparison_block",
]
