"""Shared fixtures/helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (§6) and emits a text block comparing measured numbers with
the paper's, via :func:`emit` — printed to stdout (visible with ``-s``)
and persisted under ``figures/results/`` so EXPERIMENTS.md can be
refreshed from a plain run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.csvio import generate_csv_bytes

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit


@pytest.fixture(scope="session")
def csv_by_month() -> bytes:
    """One synthetic year, chronological order (the paper's 'unsorted')."""
    return generate_csv_bytes(n_years=1, seed=42, order="by-month")


@pytest.fixture(scope="session")
def csv_round_robin() -> bytes:
    """Same records, round-robin months (the paper's 'sorted')."""
    return generate_csv_bytes(n_years=1, seed=42, order="round-robin")
