"""Sensor-stream app: event-driven style, kosher Println ordering,
retention hints (§3 + footnote 8 + §5 step 4)."""

from __future__ import annotations

import re

import pytest

from repro.apps.sensors import build_sensor_program, run_sensors
from repro.core import ExecOptions


def alert_keys(output: list[str]) -> list[tuple[int, int]]:
    out = []
    for line in output:
        m = re.match(r"tick (\d+): sensor (\d+)", line)
        assert m, line
        out.append((int(m.group(1)), int(m.group(2))))
    return out


class TestEventDriven:
    def test_alerts_detected(self):
        r = run_sensors()
        assert len(r.output) > 0
        assert all("spiked" in line for line in r.output)

    def test_output_in_causal_order_despite_shuffled_input(self):
        """Events are put in a random permutation; the Println table's
        orderby sorts the log by (tick, sensor) anyway."""
        ks = alert_keys(run_sensors().output)
        assert ks == sorted(ks)

    @pytest.mark.parametrize(
        "opts",
        [
            ExecOptions(strategy="forkjoin", threads=8),
            ExecOptions(strategy="threads", threads=3),
        ],
        ids=["forkjoin", "threads"],
    )
    def test_strategy_independent(self, opts):
        assert run_sensors(options=opts).output == run_sensors().output

    def test_no_alert_at_tick_zero(self):
        """Tick 0 has no previous reading, hence no alerts."""
        assert all(k[0] > 0 for k in alert_keys(run_sensors().output))

    def test_spike_rule_proves(self):
        handles = build_sensor_program(5, 2)
        rep = handles.program.check_causality()
        statuses = {f.rule: f.status for f in rep.findings}
        assert statuses["detect_spike"] == "proved"

    def test_deterministic_given_seed(self):
        assert run_sensors(seed=7).output == run_sensors(seed=7).output
        assert run_sensors(seed=7).output != run_sensors(seed=8).output


class TestRetention:
    def test_bounded_memory_same_output(self):
        plain = run_sensors()
        bounded = run_sensors(bounded_memory=True)
        assert bounded.output == plain.output

    def test_heap_bounded_to_two_ticks(self):
        r = run_sensors(n_ticks=40, n_sensors=4, bounded_memory=True)
        assert r.table_sizes["Reading"] == 2 * 4
        assert r.stats.tables["Reading"].gamma_discarded == 38 * 4

    def test_unbounded_heap_grows_linearly(self):
        r = run_sensors(n_ticks=40, n_sensors=4)
        assert r.table_sizes["Reading"] == 40 * 4

    def test_retention_reduces_gc_time(self):
        plain = run_sensors(n_ticks=60, n_sensors=8)
        bounded = run_sensors(n_ticks=60, n_sensors=8, bounded_memory=True)
        assert bounded.report.gc_time < plain.report.gc_time
