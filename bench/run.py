"""The benchmark's one command.

Driver mode, one workload, as ``BENCHMARK.json``'s ``command``::

    python3 bench/run.py --workload dijkstra_batch --seed 7 --seconds 20 --trace 0

runs fresh-process repetitions of that workload for ``--seconds``,
checks every output against the oracle, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Suite mode, every workload::

    python3 bench/run.py [--seed N] [--quick] [--runs R] [--out FILE]

makes ``1 warm-up + R`` such runs per workload, interleaved round-robin,
plus one traced run each, prints every metric by name with its unit,
and writes one JSON result file for ``bench/compare.py``.
(``PYTHONPATH=src python -m bench.run`` is the same command.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench.layers import PER_LAYER  # noqa: E402
from bench.measure import quartiles  # noqa: E402
from bench.metrics import (  # noqa: E402
    end_to_end,
    exact_count_mismatches,
    load_spec,
    per_layer,
)
from bench.oracle import DEFAULT_SEED  # noqa: E402

_REP = Path(__file__).with_name("rep.py")
#: a run never starts more repetitions than this, however fast they are
MAX_REPS = 12
#: a repetition that takes longer than this is killed and counted failed
REP_TIMEOUT_S = 120


def _one_rep(workload: str, seed: int, traced: bool, quick: bool, inject: bool) -> dict:
    """Run one repetition in a fresh process.  A child that dies or
    prints no result is one failed operation."""
    cmd = [sys.executable, str(_REP), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if quick:
        cmd.append("--quick")
    if inject:
        cmd.append("--inject-mismatch")
    why = ""
    # hash order decides set iteration order in the stores, and with it
    # both the work done and the last digit of pvwatts' float sums
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    # its own process group, so that a repetition killed for overrunning
    # takes its service child or mesh workers with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = f"repetition exited with code {proc.returncode} and no result"
    except subprocess.TimeoutExpired:
        why = f"repetition exceeded {REP_TIMEOUT_S}s"
    except ValueError as exc:
        why = f"repetition printed no JSON result: {exc}"
    finally:
        if proc.poll() is None:  # overran, or the runner itself was interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return {"workload": workload, "traced": traced, "legs": {}, "latency_ms": {}, "layers": {},
            "counts": {}, "attempted": 1, "failed": 1, "failures": [why]}


def measure_run(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool = False,
    inject: bool = False,
) -> dict:
    """One run: repetitions until ``seconds`` are used, then the run's
    metrics.  A traced run alternates untraced and traced repetitions
    (outer numbers and the tracing overhead come from the former)."""
    started = time.monotonic()
    reps: list[dict] = []
    step = 2 if trace else 1
    while True:
        for _ in range(step):
            reps.append(_one_rep(workload, seed, trace and len(reps) % 2 == 1, quick, inject))
        elapsed = time.monotonic() - started
        if len(reps) >= MAX_REPS or elapsed + step * elapsed / len(reps) > seconds:
            break

    mismatches = exact_count_mismatches(reps)
    failures = [f for r in reps for f in r["failures"]] + mismatches
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(mismatches)
    measured = [r for r in reps if "default" in r["legs"] and r.get("tuples")]
    plain = [r for r in measured if not r["traced"]]
    if trace:
        metrics = per_layer(measured) if plain and len(plain) < len(measured) else {}
        units = PER_LAYER
    else:
        metrics = end_to_end(plain) if plain else {}
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "calibration_s": statistics.median(
            [r["legs"]["default"]["probe_s"] for r in measured] or [0.0]
        ),
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reps": reps,
    }


# -- suite mode ----------------------------------------------------------------


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=False,
        )
        return out.stdout.decode().strip() or "unknown"
    except OSError:
        return "unknown"


def _summary(samples: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(samples)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def run_suite(seed: int, seconds: float, runs: int, quick: bool, inject: bool) -> dict:
    """Every workload: 1 warm-up run, then ``runs`` measured runs
    interleaved round-robin across the workloads, then one traced run."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    measured: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, dict] = {}
    for i in range(1 + runs):
        for w in names:
            run = measure_run(w, seed, seconds, trace=False, quick=quick, inject=inject)
            print(f"  {'warm-up' if i == 0 else f'run {i}/{runs}'} {w}: "
                  f"{len(run['reps'])} reps, failed {run['failed']}", flush=True)
            if i > 0 or not runs:
                measured[w].append(run)
    for w in names:
        traced[w] = measure_run(w, seed, seconds, trace=True, quick=quick, inject=inject)
        print(f"  traced {w}: {len(traced[w]['reps'])} reps, failed {traced[w]['failed']}",
              flush=True)

    doc = {
        "meta": {
            "commit": _commit(),
            "seed": seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "created_unix": int(time.time()),
            "bench.calibration_s": statistics.median(
                r["calibration_s"] for w in names for r in measured[w] + [traced[w]]
            ),
            "run_seconds": seconds,
            "runs": runs,
            "quick": quick,
            "comparable": not quick,
        },
        "workloads": {},
    }
    for w in names:
        all_runs = measured[w] + [traced[w]]
        e2e = {}
        for m in spec["end_to_end"]:
            samples = [r["metrics"][m["name"]]["value"] for r in measured[w] if r["metrics"]]
            if samples:
                e2e[m["name"]] = _summary(samples, m["unit"])
        attempted = sum(r["attempted"] for r in all_runs)
        failed = sum(r["failed"] for r in all_runs)
        # the counts of one seed must also agree from run to run
        failures = [f for r in all_runs for f in r["failures"]]
        mismatches = exact_count_mismatches([rep for r in all_runs for rep in r["reps"]])
        doc["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": traced[w]["metrics"],
            "counts": next(
                (rep["counts"] for r in measured[w] for rep in r["reps"] if rep["counts"]), {}
            ),
            "attempted": attempted,
            "failed": failed + len(mismatches),
            "failed_ops": (failed + len(mismatches)) / attempted,
            "failures": failures + mismatches,
            "runs": all_runs,
        }
    return doc


def _print_suite(doc: dict) -> None:
    meta = doc["meta"]
    print(f"\ncommit {meta['commit']}  seed {meta['seed']}  nproc {meta['nproc']}  "
          f"python {meta['python']}  calibration {meta['bench.calibration_s']:.4f} s"
          + ("  [--quick: numbers are NOT comparable]" if meta["quick"] else ""))
    for w, entry in doc["workloads"].items():
        print(f"\n== {w}: failed_ops {entry['failed']}/{entry['attempted']}")
        for failure in entry["failures"]:
            print(f"   FAILED: {failure.splitlines()[0]}")
        print("   end to end (median [q1, q3] over runs)")
        for name, s in entry["end_to_end"].items():
            print(f"     {name:<18} {s['median']:>12.4f} {s['unit']:<6} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']}")
        print("   per layer (one traced run; 0 = the workload never enters the layer)")
        for name, m in entry["per_layer"].items():
            if m["value"]:
                print(f"     {name:<34} {m['value']:>14.4f} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="driver mode: run this one workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="how long one run measures")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="same code paths, ~1/10 sizes, 2 runs; numbers are not comparable")
    ap.add_argument("--runs", type=int, help="suite mode: measured runs per workload (default 5)")
    ap.add_argument("--out", help="suite mode: result file (default bench/out/result-<time>.json)")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt every oracle comparison (the smoke test's failure path)")
    args = ap.parse_args(argv)

    if not (_ROOT / "src" / "repro").is_dir():
        print("bench: src/repro is not in this checkout; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (2 if args.quick else spec["run_seconds"])

    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        run = measure_run(args.workload, args.seed, seconds, bool(args.trace), args.quick,
                          args.inject_mismatch)
        for failure in run["failures"]:
            print("FAILED: " + failure, file=sys.stderr)
        if not run["metrics"]:
            print("bench: no repetition completed; no result", file=sys.stderr)
            return 1
        print(json.dumps({"detail": {k: v for k, v in run.items() if k != "metrics"}}))
        print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if run["correct"] else 1

    runs = args.runs if args.runs is not None else (2 if args.quick else 5)
    doc = run_suite(args.seed, seconds, runs, args.quick, args.inject_mismatch)
    out = Path(args.out) if args.out else _ROOT / "bench" / "out" / f"result-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    _print_suite(doc)
    print(f"\nwrote {out}")
    return 1 if any(entry["failed"] for entry in doc["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
