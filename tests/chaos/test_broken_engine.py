"""The harness must *catch* a broken engine, not only bless a sound one.

``ChaosStrategy(completion_order_effects=True)`` is the classic unsound
"optimisation": task results (and therefore buffered effects) are handed
back in completion order instead of submission order.  Within one
all-minimums class that changes the Delta insertion order of effects,
which changes subsequent frontier order — the exact bug class the §1.3
contract forbids.  The same three-axis comparison used by the fuzz
harness must flag it.
"""

from __future__ import annotations

import pytest

from repro.apps.sensors import build_sensor_program
from repro.core import ExecOptions
from repro.core.session import EngineSession
from repro.exec.chaos import ChaosStrategy
from repro.trace import trace_diff

SEEDS = list(range(6))


@pytest.fixture(scope="module")
def baseline():
    return build_sensor_program(12, 4).program.run(ExecOptions(trace=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_completion_order_engine_is_caught(seed, baseline):
    strategy = ChaosStrategy(seed=seed, completion_order_effects=True)
    broken = EngineSession(
        build_sensor_program(12, 4).program,
        ExecOptions(strategy="chaos", chaos_seed=seed, trace=True),
        strategy,
    ).run()
    diverged = (
        broken.output_text() != baseline.output_text()
        or broken.table_sizes != baseline.table_sizes
        or trace_diff(baseline.trace, broken.trace) is not None
    )
    assert diverged, (
        f"seed {seed}: the completion-order engine variant slipped past "
        "the output/table-size/trace comparison"
    )


def test_sound_runs_same_seeds_are_clean(baseline):
    """Control group: the identical seeds under the *sound* chaos
    strategy show zero divergence, so the detection above is caused by
    the broken effect order, not by the perturbed schedule."""
    for seed in SEEDS:
        r = build_sensor_program(12, 4).program.run(
            ExecOptions(strategy="chaos", chaos_seed=seed, trace=True)
        )
        assert r.output_text() == baseline.output_text()
        assert r.table_sizes == baseline.table_sizes
        assert trace_diff(baseline.trace, r.trace) is None
