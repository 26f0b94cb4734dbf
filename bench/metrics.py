"""From the repetitions of one run to the metrics ``BENCHMARK.json``
names.

The driver's contract wants every end-to-end metric on every workload,
so a metric whose definition does not apply to a workload repeats that
workload's nearest native measurement (the cells marked *alias* in
``bench/README.md``): it gates nothing new there and adds no noise of
its own.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

from bench.layers import PER_LAYER
from bench.measure import REFERENCE_PROBE_S, percentile

__all__ = [
    "ROOT",
    "load_spec",
    "end_to_end",
    "per_layer",
    "exact_count_mismatches",
]

ROOT = Path(__file__).resolve().parent.parent
_SRC_PACKAGES = ("core", "plan", "gamma", "dist", "serve", "exec", "stats")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def speed(rep: dict, leg: str = "default") -> float:
    """The factor that turns the times of one leg of this repetition
    into times at reference speed.  The host grants the guest anything
    between 1x and 0.55x of its usual speed for minutes at a time; the
    probe the repetition takes right before and right after the leg
    reads that speed (``leg="setup"``: the probes at process start and
    before the first leg)."""
    probe_s = rep["setup_probe_s"] if leg == "setup" else rep["legs"][leg]["probe_s"]
    return REFERENCE_PROBE_S / probe_s


def _median(reps: list[dict], pick) -> float:
    return statistics.median(pick(r) for r in reps)


def _leg_time(reps: list[dict], leg: str, key: str) -> float:
    return statistics.median(r["legs"][leg][key] * speed(r, leg) for r in reps)


def _pooled(reps: list[dict], op: str) -> list[float]:
    return [ms * speed(r) for r in reps for ms in r["latency_ms"].get(op, ())]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """The eleven end-to-end metrics from the untraced repetitions of
    one run: medians over the repetitions, percentiles over their
    latency samples pooled; every time at reference speed."""
    wall = _leg_time(reps, "default", "wall_s")
    out = {
        "setup_s": statistics.median(r["setup_s"] * speed(r, "setup") for r in reps),
        "wall_s": wall,
        "cpu_s": _leg_time(reps, "default", "cpu_s"),
        "peak_rss_mb": _median(reps, lambda r: r["peak_rss_mb"]),
        "bytes_per_tuple": _median(reps, lambda r: r["bytes"] / r["tuples"]),
    }
    if all("codegen" in r["legs"] for r in reps):
        out["wall_codegen_s"] = _leg_time(reps, "codegen", "wall_s")
    else:  # alias: the workload has no codegen leg
        out["wall_codegen_s"] = wall
    if all("seq" in r["legs"] for r in reps):
        out["mesh_vs_seq"] = _median(
            reps, lambda r: r["legs"]["default"]["wall_s"] / r["legs"]["seq"]["wall_s"]
        )
    else:  # alias: CPU seconds of the process tree per wall second
        out["mesh_vs_seq"] = _median(
            reps, lambda r: r["legs"]["default"]["cpu_s"] / r["legs"]["default"]["wall_s"]
        )
    settle = _pooled(reps, "settle")
    feed = _pooled(reps, "feed")
    if settle:
        out["settle_p50_ms"] = percentile(settle, 0.50)
        out["settle_p90_ms"] = percentile(settle, 0.90)
    else:  # alias: the one operation a client sees is the whole run
        out["settle_p50_ms"] = out["settle_p90_ms"] = wall * 1e3
    if feed:
        out["feed_p50_ms"] = percentile(feed, 0.50)
        out["feed_p99_ms"] = percentile(feed, 0.99)
    else:  # alias: a churn round is feed+settle; elsewhere the whole run
        out["feed_p50_ms"] = out["settle_p50_ms"]
        out["feed_p99_ms"] = out["settle_p90_ms"]
    return out


def _src_lines() -> dict[str, float]:
    out = {}
    for package in _SRC_PACKAGES:
        total = 0
        for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
            with open(path, "rb") as fh:
                total += sum(1 for _ in fh)
        out[f"src.lines.{package}"] = total
    return out


_TIME_UNITS = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


def per_layer(reps: list[dict]) -> dict[str, float]:
    """Every per-layer metric: the median over the repetitions
    that report it (spans come from traced repetitions, outer numbers
    from untraced ones), times at reference speed, 0 for a layer the
    workload never enters."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {name: 0.0 for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        power = _TIME_UNITS.get(unit, 0)
        samples = [
            r["layers"][name] * speed(r) ** power for r in traced + plain if name in r["layers"]
        ]
        if samples:
            out[name] = statistics.median(samples)
    if traced and plain:
        out["bench.trace_overhead"] = _leg_time(traced, "default", "wall_s") / _leg_time(
            plain, "default", "wall_s"
        )
    attempted = sum(r["attempted"] for r in reps)
    out["bench.failed_ops"] = sum(r["failed"] for r in reps) / attempted if attempted else 1.0
    legs = [leg for r in reps for leg in r["legs"].values()]
    out["bench.steal_share"] = sum(leg["steal_s"] for leg in legs) / sum(
        leg["wall_s"] for leg in legs
    )
    out["bench.calibration_s"] = _median(reps, lambda r: r["legs"]["default"]["probe_s"])
    out["bench.nproc"] = os.cpu_count() or 1
    out.update(_src_lines())
    return out


def exact_count_mismatches(reps: list[dict]) -> list[str]:
    """Counts made by the program must repeat exactly across the
    repetitions of one seed (a count only traced repetitions report is
    compared among those)."""
    problems = []
    seen: dict[str, int] = {}
    for r in reps:
        for name, value in r["counts"].items():
            if seen.setdefault(name, value) != value:
                problems.append(
                    f"count {name} differs across repetitions: {seen[name]} vs {value}"
                )
    return problems
