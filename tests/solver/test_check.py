"""Tests for the program-level static causality pass."""

from __future__ import annotations

import warnings

import pytest

from repro.core import Program, StratificationError, StratificationWarning
from repro.solver import RuleMeta, check_program


def _elsewhere(ctx):
    """Body analysis refuses a rule that hands its context away: what
    the helper does with it cannot be read off the rule."""


def good_and_bad_program():
    p = Program("mixed")
    T = p.table("T", "int t", orderby=("Int", "seq t"))

    m_good = RuleMeta(T)
    m_good.branch().put(T, t=m_good.trigger["t"] + 1)

    @p.foreach(T, meta=m_good, name="good")
    def good(ctx, t): ...

    m_bad = RuleMeta(T)
    m_bad.branch().put(T, t=m_bad.trigger["t"] - 1)

    @p.foreach(T, meta=m_bad, name="bad")
    def bad(ctx, t): ...

    @p.foreach(T, name="opaque")
    def opaque(ctx, t):
        _elsewhere(ctx)

    return p


class TestCheckProgram:
    def test_statuses(self):
        p = good_and_bad_program()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_program(p)
        by_name = {f.rule: f.status for f in rep.findings}
        assert by_name == {"good": "proved", "bad": "failed", "opaque": "unchecked"}
        assert not rep.all_proved
        # the finding says why the body was not analysed
        (unchecked,) = rep.by_status("unchecked")
        assert "context escapes" in unchecked.reason
        assert "opaque: unchecked (the rule context escapes" in rep.summary()

    def test_warning_emitted_for_failure(self):
        p = good_and_bad_program()
        with pytest.warns(StratificationWarning, match="bad"):
            check_program(p)

    def test_strict_raises(self):
        p = good_and_bad_program()
        with pytest.raises(StratificationError):
            check_program(p, strict=True)

    def test_assume_stratified_accepted(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))
        m = RuleMeta(T)
        m.branch().put(T, t=m.trigger["t"] - 1)

        @p.foreach(T, meta=m, assume_stratified=True, name="assumed")
        def r(ctx, t): ...

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_program(p)
        assert rep.findings[0].status == "assumed"
        assert rep.all_proved

    def test_assume_without_meta(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T, assume_stratified=True, name="trusted")
        def r(ctx, t):
            _elsewhere(ctx)

        rep = check_program(p)
        assert rep.findings[0].status == "assumed"

    def test_body_without_sites_proves_vacuously(self):
        p = Program()
        T = p.table("T", "int t", orderby=("Int", "seq t"))

        @p.foreach(T)
        def quiet(ctx, t): ...

        rep = check_program(p)
        assert rep.findings[0].status == "proved"
        assert rep.findings[0].obligations == []

    def test_summary_lists_unproved(self):
        p = good_and_bad_program()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_program(p)
        s = rep.summary()
        assert "bad: failed" in s and "UNPROVED" in s

    def test_by_status(self):
        p = good_and_bad_program()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_program(p)
        assert len(rep.by_status("failed")) == 1

    def test_program_method_shorthand(self):
        p = good_and_bad_program()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = p.check_causality()
        assert len(rep.findings) == 3

    def test_paper_missing_order_scenario(self):
        """§6.1: omit 'order Req < PvWatts < SumMonth' and the SumMonth
        rule fails stratification."""
        from repro.apps.pvwatts import build_pvwatts_program

        handles = build_pvwatts_program({"f.csv": b""}, "f.csv", declare_order=False)
        with pytest.warns(StratificationWarning):
            rep = check_program(handles.program)
        failed = {f.rule for f in rep.by_status("failed")}
        assert "average_month" in failed

    def test_paper_with_order_proves(self):
        from repro.apps.pvwatts import build_pvwatts_program

        handles = build_pvwatts_program({"f.csv": b""}, "f.csv", declare_order=True)
        rep = check_program(handles.program)
        statuses = {f.rule: f.status for f in rep.findings}
        assert statuses["make_summonth"] == "proved"
        assert statuses["average_month"] == "proved"
