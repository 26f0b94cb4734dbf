"""A snapshot row that does not fit its table is refused at restore.

Every row of a snapshot — Gamma tables, pending Delta, quarantine and
the support index — becomes a tuple through an arity check plus its
table's checked constructor before the restored session goes live.  A
short row or a string in an int field used to be stored as is (and
later feeds and settles ran over it); a short Delta row raised a bare
``IndexError``.  Now each is an :class:`EngineError`, like every other
restore refusal, naming the section, the table, the row index and the
field.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import EngineError, EngineSession, ExecOptions
from tests.serve._progs import telemetry_factory

SHORT = "[1, 2] do not fill Reading('tick', 'sensor', 'value')"
STR_VALUE = "Reading.value expects int, got str ('hot')"


def snapshot(options: ExecOptions | None = None, settle: bool = True) -> dict:
    """A telemetry session's snapshot document: one settled reading,
    and one more pending in Delta unless ``settle``."""
    program = telemetry_factory()
    reading = program.schemas()["Reading"].make_tuple
    s = program.session(options or ExecOptions()).open()
    s.feed([reading((1, 1, 950))])
    s.settle()
    s.feed([reading((2, 1, 960))])
    if settle:
        s.settle()
    doc = s.snapshot()
    s.close()
    return doc


def refused(doc: dict, options: ExecOptions | None = None) -> str:
    with pytest.raises(EngineError) as err:
        EngineSession.restore(doc, telemetry_factory(), options)
    return str(err.value)


def test_a_short_table_row_is_refused():
    doc = snapshot()
    doc["tables"]["Reading"][1] = [1, 2]
    assert refused(doc) == f"snapshot tables.Reading row #1: {SHORT}"


def test_a_string_in_an_int_field_is_refused():
    doc = snapshot()
    doc["tables"]["Reading"][1] = [1, 2, "hot"]
    assert refused(doc) == f"snapshot tables.Reading row #1: {STR_VALUE}"


def test_a_short_delta_row_is_an_engine_error_not_an_index_error():
    doc = snapshot(settle=False)
    assert [name for name, _ in doc["delta"]] == ["Reading"]
    doc["delta"][0][1] = [2]  # too short for its own orderby
    assert refused(doc) == (
        "snapshot delta row #0: [2] do not fill Reading('tick', 'sensor', 'value')"
    )


def test_a_bad_quarantined_row_is_refused():
    doc = snapshot()
    doc["quarantined"] = [["Reading", [1, 2, "hot"]]]
    assert refused(doc) == f"snapshot quarantined row #0: {STR_VALUE}"


def test_an_unknown_table_is_refused():
    doc = snapshot(settle=False)
    doc["delta"][0][0] = "Nope"
    assert refused(doc) == (
        "snapshot delta row #0 names no table of this program: ['Nope', [2, 1, 960]]"
    )
    doc = snapshot()
    doc["tables"]["Nope"] = []
    assert refused(doc) == "snapshot tables names no table of this program: 'Nope'"


def test_a_bad_support_row_is_refused():
    opts = ExecOptions(retraction=True)
    doc = snapshot(opts)
    doc["support"]["base"][0] = ["Reading", [1, 2]]
    assert refused(doc, opts) == f"snapshot support.base row #0: {SHORT}"
    doc = snapshot(opts)
    doc["support"]["firings"][0]["trigger"] = ["Reading", [1, 2, "hot"]]
    assert refused(doc, opts) == f"snapshot support.firings[0].trigger: {STR_VALUE}"


def test_a_refused_mesh_restore_forks_no_worker():
    opts = ExecOptions(strategy="processes", threads=2)
    doc = snapshot(opts)
    doc["tables"]["Reading"][0] = [1, 2]
    assert refused(doc, opts) == f"snapshot tables.Reading row #0: {SHORT}"
    assert multiprocessing.active_children() == []


def test_a_well_formed_snapshot_still_restores():
    doc = snapshot(settle=False)
    restored = EngineSession.restore(doc, telemetry_factory())
    assert restored.settle().output == ["tick 2: sensor 1 hot at 960"]
    restored.close()
