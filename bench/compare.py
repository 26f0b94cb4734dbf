"""Compare two result files of ``bench/run.py`` against the bounds in
``BENCHMARK.json``::

    python3 bench/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A (its base is A), and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread (inter-quartile distance over the
  median) of either side is wider than the bound, so the comparison
  cannot tell; reported instead of ``ok`` unless every run of B reads
  better than every run of A.

Exits 1 when any row is ``worse``, any operation failed, or the exact
counts of the two files differ; ``unresolved`` rows do not fail the
comparison, they ask for more runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench.metrics import load_spec  # noqa: E402


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """``(verdict, share by which B is worse than A)`` for one row."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        if better == "lower":
            all_better = max(b["samples"]) < min(a["samples"])
        else:
            all_better = min(b["samples"]) > max(a["samples"])
        if not all_better:
            return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], list[str]]:
    rows, problems = [], []
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            problems.append(f"{name}: missing from one result file")
            continue
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                problems.append(f"{name}: {w['failed']} failed operations in {side}")
        if a["meta"]["seed"] == b["meta"]["seed"] and wa["counts"] != wb["counts"]:
            problems.append(f"{name}: exact counts differ: {wa['counts']} vs {wb['counts']}")
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if sa is None or sb is None:
                problems.append(f"{name}/{m['name']}: missing from one result file")
                continue
            v, worse_by = verdict(sa, sb, m["bound"], m["better"])
            rows.append({"workload": name, "metric": m["name"], "unit": m["unit"],
                         "bound": m["bound"], "a": sa, "b": sb,
                         "ratio": sb["median"] / sa["median"], "worse_by": worse_by,
                         "verdict": v})
    return rows, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", help="result file of the base (the ratio's base)")
    ap.add_argument("b", help="result file of the change")
    args = ap.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    for side, doc in (("A", a), ("B", b)):
        meta = doc["meta"]
        print(f"{side}: commit {meta['commit'][:12]} seed {meta['seed']} runs {meta['runs']} "
              f"calibration {meta['bench.calibration_s']:.4f} s"
              + ("" if meta["comparable"] else "  [--quick: not comparable]"))
    rows, problems = compare(a, b, load_spec())
    print(f"\n{'workload':<18} {'metric':<16} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    for r in rows:
        def cell(s):
            return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {r['unit']}"
        print(f"{r['workload']:<18} {r['metric']:<16} {cell(r['a']):<34} {cell(r['b']):<34} "
              f"{r['ratio']:>7.3f} {r['bound']:>6.2f}  {r['verdict']}")
    tally = {v: sum(1 for r in rows if r["verdict"] == v) for v in ("ok", "worse", "unresolved")}
    print(f"\n{tally['ok']} ok, {tally['worse']} worse, {tally['unresolved']} unresolved "
          f"(of {len(rows)} metric x workload rows)")
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if tally["worse"] or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
