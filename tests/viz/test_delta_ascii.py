"""Golden output of :func:`repro.viz.delta_ascii` for a Delta that
mixes literal, seq and par levels, prefixes and a truncated class."""

from __future__ import annotations

from repro.core.delta import DeltaTree
from repro.core.ordering import OrderDecls, evaluate_orderby
from repro.core.schema import TableSchema
from repro.core.tuples import TableHandle
from repro.viz import delta_ascii

GOLDEN = (
    "[lit=0]  {Req(id=1), Req(id=0)}  (2 parallel)\n"
    "[lit=0, par *]  {Job(id=1, region=5), Job(id=2, region=6)}  (2 parallel)\n"
    "[lit=1, seq=1, par *]  {Work(t=1, j=2), Work(t=1, j=0)}  (2 parallel)\n"
    "[lit=1, seq=2, par *]  {Work(t=2, j=0), Work(t=2, j=1), Work(t=2, j=2), "
    "Work(t=2, j=3), Work(t=2, j=4), Work(t=2, j=5) ... +2 more}  (8 parallel)\n"
    "[lit=1, seq=3, par *]  {Work(t=3, j=0)}  (1 parallel)\n"
    "[lit=2, seq=2, seq=0]  {Done(t=2, k=0)}  (1 parallel)\n"
    "[lit=2, seq=2, seq=1]  {Done(t=2, k=1)}  (1 parallel)"
)


def mixed_delta() -> DeltaTree:
    decls = OrderDecls()
    decls.declare("Req", "Work", "Done")
    decls.freeze()
    Req = TableHandle(TableSchema("Req", "int id", orderby=("Req",)))
    Job = TableHandle(TableSchema("Job", "int id, int region", orderby=("Req", "par region")))
    Work = TableHandle(TableSchema("Work", "int t, int j", orderby=("Work", "seq t", "par j")))
    Done = TableHandle(TableSchema("Done", "int t, int k", orderby=("Done", "seq t", "seq k")))
    rows = [Done.new(2, 1), Work.new(3, 0), Req.new(1), Job.new(1, 5), Work.new(1, 2),
            Done.new(2, 0), Work.new(1, 0), Job.new(2, 6), Req.new(0)]
    rows += [Work.new(2, j) for j in range(8)]
    d = DeltaTree()
    for t in rows:
        d.insert(t, evaluate_orderby(t.schema.orderby, t.asdict(), decls))
    return d


def test_delta_ascii_golden():
    assert delta_ascii(mixed_delta()) == GOLDEN


def test_delta_ascii_truncates_each_class():
    lines = delta_ascii(mixed_delta(), max_tuples_per_class=2).splitlines()
    assert lines[3] == (
        "[lit=1, seq=2, par *]  {Work(t=2, j=0), Work(t=2, j=1) ... +6 more}  (8 parallel)"
    )
    assert lines[:3] == GOLDEN.splitlines()[:3]
