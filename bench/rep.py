"""One repetition of one workload, in a fresh process.

The runner (``bench/run.py``) starts this once per repetition so that
peak RSS, linecache'd codegen drivers and plan caches never leak from
one repetition into the next, and so that every repetition pays (and
reports) the whole set-up, imports included.  Prints one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before the runtime is imported: imports are set-up

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from bench.measure import host_steal, probe, self_rss_mb, tree_cpu  # noqa: E402

_T1 = time.perf_counter()
_PROBE0 = probe()  # the host's speed as set-up starts
_PROBE0_S = time.perf_counter() - _T1  # the probe itself is not set-up

from bench import oracle  # noqa: E402
from bench.layers import span_metrics  # noqa: E402
from bench.trace import Tracer  # noqa: E402

class Rep:
    """What one repetition measured; the workload module fills it in."""

    def __init__(self, workload: str, seed: int, quick: bool, traced: bool, inject: bool):
        self.workload = workload
        self.seed = seed
        self.size = "quick" if quick else "full"
        self.tracer = Tracer() if traced else None
        self.inject = inject
        self.setup_s = 0.0
        #: the probe on both sides of set-up (process start, first leg)
        self.setup_probe_s = _PROBE0
        #: leg name -> {"wall_s", "cpu_s", "steal_s", "probe_s"}; "default" is
        #: the timed region
        self.legs: dict[str, dict[str, float]] = {}
        #: per-operation client-observed latencies, when the workload has them
        self.latency_ms: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        #: numerator / denominator of bytes_per_tuple
        self.bytes = 0
        self.tuples = 0
        #: counts that must repeat exactly for one seed
        self.counts: dict[str, int] = {}
        #: per-layer numbers (outer ones when untraced, spans when traced)
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = ""

    @contextmanager
    def setup(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    @contextmanager
    def leg(self, name: str, extra_cpu=None):
        """Time one leg: wall, and CPU of the whole process tree.
        ``extra_cpu`` reads the CPU of a child not yet waited for.  The
        ``default`` leg of a traced repetition is the traced region.  The
        probe runs right before and right after, outside the timing."""
        before = probe()
        if not self.legs:
            self.setup_probe_s = (_PROBE0 + before) / 2
        cpu0 = tree_cpu() + (extra_cpu() if extra_cpu else 0.0)
        steal0 = host_steal()
        t0 = time.perf_counter()
        try:
            if self.tracer is not None and name == "default":
                with self.tracer.region():
                    yield
            else:
                yield
        finally:
            wall = time.perf_counter() - t0
            cpu = tree_cpu() + (extra_cpu() if extra_cpu else 0.0) - cpu0
            steal = host_steal() - steal0
            self.legs[name] = {"wall_s": wall, "cpu_s": cpu, "steal_s": steal,
                               "probe_s": (before + probe()) / 2}

    def hosted_here(self) -> None:
        """The engine ran in this process (the single-process
        workloads): its peak RSS is ours, and ``bytes_per_tuple``, which
        has no native meaning here, repeats it per stored tuple."""
        self.peak_rss_mb = self_rss_mb()
        self.bytes = int(self.peak_rss_mb * 1024 * 1024)

    def check(self, ok: bool, what: str) -> None:
        """One checked operation; a false one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_digest(self, got: str, want: str, what: str) -> None:
        if self.inject:
            got = "injected-mismatch"
        self.check(got == want, f"{what}: digest {got[:12]} != {want[:12]}")

    def check_pinned(self) -> None:
        """Default-seed digests are pinned in ``expected.json``."""
        if self.seed != oracle.DEFAULT_SEED:
            return
        want = oracle.pinned_digest(self.workload, self.size)
        if want is not None:
            self.check(self.digest == want, f"pinned digest {self.digest[:12]} != {want[:12]}")

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "traced": self.tracer is not None,
            "setup_s": self.setup_s,
            "setup_probe_s": self.setup_probe_s,
            "legs": self.legs,
            # 0.1 us is below what perf_counter resolves across a socket
            "latency_ms": {op: [round(ms, 4) for ms in v] for op, v in self.latency_ms.items()},
            "peak_rss_mb": self.peak_rss_mb,
            "bytes": self.bytes,
            "tuples": self.tuples,
            "counts": self.counts,
            "layers": self.layers,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "digest": self.digest,
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args(argv)

    rep = Rep(args.workload, args.seed, args.quick, bool(args.trace), args.inject_mismatch)
    module = importlib.import_module(f"bench.workloads.{args.workload}")
    rep.setup_s = time.perf_counter() - _T0 - _PROBE0_S
    try:
        module.run(rep)
        rep.check_pinned()
        if rep.tracer is not None:
            rep.layers.update(span_metrics(rep.tracer.totals()))
            rep.counts["gamma.insert_tuples"] = rep.layers["gamma.insert_tuples"]
    except Exception:  # noqa: BLE001 - a crashed repetition is a failed operation
        rep.check(False, "repetition raised: " + traceback.format_exc(limit=8))
    print(json.dumps(rep.as_dict()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
