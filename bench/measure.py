"""Clocks, CPU/RSS accounting and order statistics shared by the
runner, the repetitions and ``compare.py``."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time

__all__ = [
    "REFERENCE_PROBE_S",
    "probe",
    "percentile",
    "quartiles",
    "children_cpu",
    "tree_cpu",
    "proc_cpu",
    "host_steal",
    "self_rss_mb",
    "children_rss_mb",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: seconds per probe slice on the reference box in its usual state;
#: times are reported as if the probe always read this
REFERENCE_PROBE_S = 0.0042
#: slices per probe: ~0.12 s, long enough to average over the host's
#: millisecond bursts, short enough to sit right beside the leg it scales
PROBE_SLICES = 25


def _probe_slice(n: int = 20_000) -> int:
    d = {}
    for i in range(n):
        d[(i, i * 7 % 1000)] = (i,)
    total = 0
    for key in d:
        total += d[key][0]
    return total


def probe(slices: int = PROBE_SLICES) -> float:
    """The one calibration constant: mean seconds per slice of a fixed
    loop over builtin dicts and tuples (collector off so that the heap's
    size does not enter).  It uses nothing from the repository, so no
    change to the runtime can move it; it moves with the speed the host
    grants the guest, which is why a repetition takes it on both sides
    of every leg.  The mean, not the median: a leg pays for every burst
    that falls inside it, and so should its yardstick."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(slices):
            _probe_slice()
        return (time.perf_counter() - t0) / slices
    finally:
        if was_enabled:
            gc.enable()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (the convention of the old
    ``bench_service.py``, so its published p50/p99 stay comparable)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[min(n - 1, max(0, round(q * (n - 1))))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's own definition); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def children_cpu() -> float:
    """User+sys CPU seconds of every child already waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def tree_cpu() -> float:
    """User+sys CPU seconds of this process plus every child it has
    already waited for."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime + children_cpu()


def proc_cpu(pid: int) -> float:
    """User+sys CPU seconds of a live process that is not ours to wait
    for yet (the service child, mid-run), from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        # the command name may contain spaces; fields resume after ')'
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def host_steal() -> float:
    """Seconds of CPU the hypervisor has taken from this guest so far,
    over all CPUs (0 where ``/proc/stat`` has no steal column): the one
    direct sign that a slow repetition was the host's doing."""
    try:
        with open("/proc/stat", "rb") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak RSS of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
