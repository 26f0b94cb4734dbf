"""Hand-coded median baselines (§6.1's Java comparator).

"The JStar Median program is twice as fast as the Java version, because
the Java program uses ``Arrays.sort`` (a double-pivot quicksort) to
find the median, whereas the JStar program uses a median-specific
variant of quicksort that partitions the whole array, but then recurses
only into the half of the array that contains the median."

Baseline mapping (consistent with the other Fig 6 baselines, which are
hand-coded *Python* idioms):

* :func:`median_sort_baseline` — the hand-coded idiom: standard-library
  full sort, then index (``Arrays.sort`` ↦ ``sorted``).
* :func:`kernel_comparison` — the same algorithm on the unboxed
  substrate (numpy introsort) beside ``np.partition``: the paper's
  algorithmic claim (selection beats full sort ≈2×) without
  interpreter effects.
* :func:`quickselect_reference` — sequential selection reference used
  as ground truth by tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "median_sort_baseline",
    "quickselect_reference",
    "kernel_comparison",
]


def median_sort_baseline(values: np.ndarray) -> float:
    """Hand-coded idiom: full standard-library sort, then take the
    lower median (the ``Arrays.sort`` way)."""
    ordered = sorted(values.tolist())
    return float(ordered[(len(ordered) - 1) // 2])


def quickselect_reference(values: np.ndarray) -> float:
    """Iterative quickselect, recursing only into the half containing
    the median — the algorithm the JStar program distributes."""
    arr = values.copy()
    k = (len(arr) - 1) // 2
    while True:
        if len(arr) == 1:
            return float(arr[0])
        pivot = arr[0]
        below = arr[arr < pivot]
        equal = arr[arr == pivot]
        if k < len(below):
            arr = below
        elif k < len(below) + len(equal):
            return float(pivot)
        else:
            k -= len(below) + len(equal)
            arr = arr[arr > pivot]


def kernel_comparison(values: np.ndarray) -> tuple[float, float]:
    """(selection result, full-sort result) computed with the two C
    kernels (``np.partition`` vs ``np.sort``) — the §6.1 algorithmic
    claim in isolation; both must agree."""
    k = (len(values) - 1) // 2
    sel = float(np.partition(values, k)[k])
    srt = float(np.sort(values)[k])
    return sel, srt
