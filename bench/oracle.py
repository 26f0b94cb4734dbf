"""Correctness checks for every repetition.

Each workload's output is compared with a result computed another way
(a heap Dijkstra, the generator's own month means, a scratch recompute,
an in-process session) and reduced to a sha256 digest of output text,
table sizes and result rows.  For the default seed the digests are also
pinned in ``expected.json``, so a change that moves *both* sides of a
comparison the same wrong way still fails.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from pathlib import Path

__all__ = [
    "DEFAULT_SEED",
    "digest",
    "dijkstra_distances",
    "done_rows",
    "pinned_digest",
]

DEFAULT_SEED = 42
_EXPECTED = Path(__file__).with_name("expected.json")


def digest(output_text: str, table_sizes: dict[str, int], rows=()) -> str:
    """sha256 over the output bytes, the sorted table sizes and the
    (already sorted) result rows."""
    h = hashlib.sha256()
    h.update(output_text.encode("utf-8"))
    h.update(json.dumps(sorted(table_sizes.items())).encode("ascii"))
    h.update(json.dumps([list(r) for r in rows]).encode("ascii"))
    return h.hexdigest()


def dijkstra_distances(edges, origin: int = 0) -> list[tuple[int, int]]:
    """Sorted ``(vertex, distance)`` rows by a plain heap Dijkstra over
    directed ``(src, dst, weight)`` edges: what the Done table must hold."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for s, d, w in edges:
        adj.setdefault(s, []).append((d, w))
    dist = {origin: 0}
    heap = [(0, origin)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj.get(v, ()):
            nd = d + w
            if nd < dist.get(u, nd + 1):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return sorted(dist.items())


def done_rows(database) -> list[tuple[int, int]]:
    return sorted(t.values for t in database.store("Done").scan())


def pinned_digest(workload: str, size: str) -> str | None:
    """The digest pinned for ``(workload, size)`` at the default seed."""
    if not _EXPECTED.exists():
        return None
    return json.loads(_EXPECTED.read_text()).get(size, {}).get(workload)


def _pin() -> None:
    """Rewrite ``expected.json`` from one repetition of every workload
    at the default seed, both sizes (run after a deliberate change of a
    workload's definition, never to make a failing check pass)."""
    import os
    import subprocess
    import sys

    rep = Path(__file__).with_name("rep.py")
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    pinned: dict = {"seed": DEFAULT_SEED, "full": {}, "quick": {}}
    for size in ("full", "quick"):
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(rep), "--workload", workload, "--seed", str(DEFAULT_SEED)]
            out = subprocess.run(
                cmd + (["--quick"] if size == "quick" else []),
                stdout=subprocess.PIPE,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": "0"},  # as the runner does
            )
            pinned[size][workload] = json.loads(out.stdout.splitlines()[-1])["digest"]
            print(size, workload, pinned[size][workload])
    _EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--pin"]:
        _pin()
    else:
        raise SystemExit("usage: python3 bench/oracle.py --pin")
