"""Tests for the virtual-time pipeline model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DisruptorError
from repro.disruptor import (
    BlockingWaitStrategy,
    BusySpinWaitStrategy,
    PipelineCosts,
    simulate_pipeline,
)

RR = [i % 4 for i in range(2000)]       # balanced round-robin keys
HOT = [0] * 2000                         # one hot consumer


class TestModelShape:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            simulate_pipeline([], 0, 1)
        with pytest.raises(ValueError):
            simulate_pipeline([], 1, 0)

    @pytest.mark.parametrize(
        "ring",
        [dict(ring_size=0), dict(batch=0), dict(ring_size=-4), dict(ring_size=100)],
        ids=["ring-0", "batch-0", "ring-negative", "ring-not-power-of-two"],
    )
    def test_refuses_what_the_real_ring_refuses(self, ring):
        """The real ring's rule, checked before any event runs: no bare
        ZeroDivisionError / IndexError, no silently accepted ring."""
        with pytest.raises(DisruptorError):
            simulate_pipeline(RR, 4, 4, **ring)

    def test_empty_stream(self):
        r = simulate_pipeline([], 4, 4)
        assert r.elapsed == 0 or r.elapsed >= 0

    def test_more_cores_not_slower(self):
        e = [simulate_pipeline(RR, 4, c).elapsed for c in (1, 2, 4, 8)]
        assert e == sorted(e, reverse=True)

    def test_work_conserved_across_cores(self):
        w1 = simulate_pipeline(RR, 4, 1).total_work
        w8 = simulate_pipeline(RR, 4, 8).total_work
        assert w1 == pytest.approx(w8, rel=0.05)

    def test_hot_consumer_causes_stalls_and_slowdown(self):
        costs = PipelineCosts(parse=1.0, proc=3.0, scan=0.05)
        hot = simulate_pipeline(HOT, 4, 8, ring_size=64, costs=costs)
        rr = simulate_pipeline(RR, 4, 8, ring_size=64, costs=costs)
        assert hot.producer_stalls > 0
        assert hot.elapsed > rr.elapsed

    def test_bigger_ring_absorbs_bursts(self):
        costs = PipelineCosts(parse=1.0, proc=3.0, scan=0.05)
        # alternating hot months in runs shorter than the big ring
        keys = ([0] * 100 + [1] * 100) * 5
        small = simulate_pipeline(keys, 2, 8, ring_size=16, costs=costs)
        big = simulate_pipeline(keys, 2, 8, ring_size=512, costs=costs)
        assert big.producer_stalls <= small.producer_stalls
        assert big.elapsed <= small.elapsed + 1e-9

    def test_busyspin_burns_work(self):
        blocking = simulate_pipeline(RR, 12, 4, wait=BlockingWaitStrategy())
        spinning = simulate_pipeline(RR, 12, 4, wait=BusySpinWaitStrategy())
        assert spinning.total_work > blocking.total_work

    def test_blocking_wins_when_oversubscribed(self):
        """Table 1's outcome: 12 consumers on 8 cores -> Blocking beats
        BusySpin (spin burn steals cores from real work)."""
        blocking = simulate_pipeline(RR, 12, 8, wait=BlockingWaitStrategy())
        spinning = simulate_pipeline(RR, 12, 8, wait=BusySpinWaitStrategy())
        assert blocking.elapsed < spinning.elapsed

    def test_consumer_busy_reflects_ownership(self):
        r = simulate_pipeline([0, 0, 0, 1], 2, 4)
        assert r.consumer_busy[0] > r.consumer_busy[1]

    def test_bound_label(self):
        r = simulate_pipeline(RR, 4, 1)
        assert r.bound in ("pipeline", "work")


# -- properties -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=300),
    st.integers(1, 8),
    st.integers(1, 16),
)
def test_elapsed_at_least_work_over_cores(keys, consumers, cores):
    r = simulate_pipeline(keys, consumers, cores)
    assert r.elapsed >= r.total_work / cores - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=1, max_size=300))
def test_elapsed_at_least_pipeline_critical_path(keys):
    r = simulate_pipeline(keys, 12, 32)
    assert r.elapsed >= r.pipeline_time - 1e-6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=10, max_size=200), st.integers(1, 12))
def test_deterministic(keys, cores):
    a = simulate_pipeline(keys, 4, cores)
    b = simulate_pipeline(keys, 4, cores)
    assert a == b
