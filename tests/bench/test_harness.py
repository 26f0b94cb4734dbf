"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import pytest

from repro.figures import (
    FigureRow,
    SpeedupSeries,
    comparison_block,
    figure_block,
    speedup_series,
    timed_average,
)


class TestTimedAverage:
    def test_discards_warmup(self):
        calls = []

        def fn():
            calls.append(len(calls))

        t = timed_average(fn, runs=6, discard=2)
        assert len(calls) == 6
        assert t >= 0

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            timed_average(lambda: None, runs=2, discard=2)


class TestSpeedupSeries:
    def make(self):
        return SpeedupSeries(
            "demo", threads=(1, 2, 4), elapsed=(100.0, 55.0, 30.0), sequential=80.0
        )

    def test_relative_vs_one_thread(self):
        s = self.make()
        assert s.relative == pytest.approx((1.0, 100 / 55, 100 / 30))

    def test_absolute_uses_fastest_baseline(self):
        # footnote 11: vs the fastest of sequential / 1-thread parallel
        s = self.make()
        assert s.absolute == pytest.approx((0.8, 80 / 55, 80 / 30))

    def test_absolute_without_sequential(self):
        s = SpeedupSeries("d", (1, 2), (10.0, 6.0))
        assert s.absolute == s.relative

    def test_rows_and_format(self):
        s = self.make()
        rows = s.rows()
        assert rows[0][0] == 1 and rows[-1][0] == 4
        text = s.format()
        assert "demo" in text and "sequential reference" in text
        assert len(text.splitlines()) == 6

    def test_speedup_series_sweeps(self):
        seen = []

        def run(t):
            seen.append(t)
            return 100.0 / t

        s = speedup_series("x", (1, 2, 5), run, sequential=None)
        assert seen == [1, 2, 5]
        assert s.relative[-1] == pytest.approx(5.0)


class TestFigureFormatting:
    def test_figure_block(self):
        text = figure_block(
            "T", [FigureRow("a", 1.5, paper=2.0), FigureRow("b", 3.0)], note="n"
        )
        assert "### T" in text and "note: n" in text
        assert "2.00" in text and "—" in text

    def test_figure_row_ratio(self):
        assert FigureRow("a", 1.0, paper=2.0).ratio == 0.5
        assert FigureRow("a", 1.0).ratio is None
        assert FigureRow("a", 1.0, paper=0.0).ratio is None

    def test_comparison_block(self):
        text = comparison_block(
            "C", [("p", 2.0, 1.0)], paper_ratios={"p": 2.5}, note="why"
        )
        assert "2.00" in text and "2.50" in text and "why" in text

    def test_comparison_block_division_by_zero(self):
        text = comparison_block("C", [("p", 2.0, 0.0)])
        assert "inf" in text
