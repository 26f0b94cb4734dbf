"""Smoke test of the benchmark itself (not part of tier-1)::

    python -m pytest bench/tests -q

Runs the whole suite once in ``--quick`` mode and checks its shape
against ``BENCHMARK.json``; the numbers themselves are not comparable.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: single-threaded workloads, where span self times must add up to the wall
SINGLE_THREADED = ("dijkstra_batch", "pvwatts_batch", "dijkstra_churn")


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = subprocess.run(RUN + ["--quick", "--out", str(out)], cwd=ROOT, timeout=900)
    assert proc.returncode == 0
    return json.loads(out.read_text())


def test_every_workload_and_metric_is_emitted_with_its_unit(suite):
    assert not suite["meta"]["comparable"]  # --quick numbers are marked
    assert list(suite["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in suite["workloads"].items():
        for m in SPEC["end_to_end"]:
            got = entry["end_to_end"][m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert got["median"] > 0, (name, m["name"])  # never 0
        for m in SPEC["per_layer"]:
            assert entry["per_layer"][m["name"]]["unit"] == m["unit"], (name, m["name"])
        assert len(entry["per_layer"]) == len(SPEC["per_layer"])


def test_names_fit_the_contract():
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_benchmark_json_lists_exactly_the_layer_table():
    sys.path.insert(0, str(ROOT))
    from bench.layers import PER_LAYER

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_no_operation_failed_and_counts_repeat(suite):
    for name, entry in suite["workloads"].items():
        assert entry["failed_ops"] == 0, (name, entry["failures"])
        assert entry["counts"], name


def test_span_self_times_account_for_the_traced_wall(suite):
    for name in SINGLE_THREADED:
        coverage = suite["workloads"][name]["per_layer"]["bench.trace_coverage"]["value"]
        assert 0.95 <= coverage <= 1.0 + 1e-9, (name, coverage)


def test_each_workload_enters_the_layers_it_is_predicted_to(suite):
    layers = {w: e["per_layer"] for w, e in suite["workloads"].items()}
    assert layers["dijkstra_batch"]["core.delta.pop_ms"]["value"] > 0
    assert layers["dijkstra_batch"]["csvio.read_ms"]["value"] == 0
    assert layers["pvwatts_batch"]["csvio.read_ms"]["value"] > 0
    assert layers["pvwatts_batch"]["plan.codegen_refused_rules"]["value"] == 2
    assert layers["dijkstra_mesh"]["dist.transport.peer_msgs"]["value"] > 0
    assert layers["dijkstra_mesh"]["dist.procrun.coord_wait_ms"]["value"] > 0
    assert layers["telemetry_service"]["serve.tenant.checkpoint_ms"]["value"] > 0
    assert layers["dijkstra_churn"]["core.support.retractions"]["value"] > 0
    assert layers["dijkstra_churn"]["gamma.remove_calls"]["value"] > 0


def test_driver_mode_prints_the_contract_line():
    proc = subprocess.run(
        RUN + ["--workload", "dijkstra_batch", "--seed", "7", "--seconds", "1", "--trace", "0",
               "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300,
    )
    assert proc.returncode == 0
    last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_an_injected_oracle_mismatch_fails_the_run():
    proc = subprocess.run(
        RUN + ["--workload", "dijkstra_batch", "--seconds", "1", "--quick", "--inject-mismatch"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )
    assert proc.returncode != 0
    last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
