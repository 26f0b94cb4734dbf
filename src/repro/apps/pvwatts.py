"""The PvWatts case study (Fig 4, §6.1–§6.3).

A map-reduce style program: read a CSV of hourly solar-power records,
average the power per month.  Transliteration of Fig 4::

    table PvWattsRequest(String filename) orderby (Req);
    table PvWatts(int year, int month, int day, String hour, int power)
        orderby (PvWatts);
    table SumMonth(int year, int month) orderby (SumMonth);
    order Req < PvWatts < SumMonth;

    put PvWattsRequest("large1000.csv");
    foreach (PvWattsRequest req) { ...read PvWatts tuples from *.csv... }
    foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
    foreach (SumMonth s)  { ...Statistics over get PvWatts(s.year, s.month)... }

Additions the paper describes around the core program:

* **parallel readers** (§6.2/Fig 7): the request rule splits the file
  into ``n_readers`` byte regions and puts one ``ReadRegion`` tuple per
  region; region tuples are mutually ``par`` so all readers run in one
  all-minimums step — Fig 7's phase 1.  Region boundary handling uses
  the Hadoop-style read-past-the-end protocol (:mod:`repro.csvio.split`).
* **-noDelta PvWatts** (§5.1/§6.2): pass
  ``no_delta={"PvWatts"}`` in :class:`ExecOptions` — tuples go straight
  to Gamma and the SumMonth rule fires inside the reader task.
* **custom Gamma store** (§6.2): :func:`array_of_hashsets_store` /
  :func:`hash_index_store` give the month-array and hash-index
  replacements for the PvWatts table benchmarked in Fig 8.

Since file I/O is a side effect, the reading rules are ``unsafe``
system rules (§1.2 footnote 1); "files" are provided through an
in-memory registry (filename → bytes), keeping runs hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core import ExecOptions, Program, RunResult, Statistics
from repro.core.tuples import TableHandle
from repro.csvio import PVWATTS_INT_POSITIONS, read_region, split_regions
from repro.gamma import ArrayOfHashSetsStore, HashIndexStore

__all__ = [
    "PvWattsHandles",
    "build_pvwatts_program",
    "run_pvwatts",
    "month_means_from_output",
    "array_of_hashsets_store",
    "hash_index_store",
]

_N_FIELDS = 5


@dataclass
class PvWattsHandles:
    program: Program
    PvWattsRequest: TableHandle
    ReadRegion: TableHandle
    PvWatts: TableHandle
    SumMonth: TableHandle


def build_pvwatts_program(
    files: Mapping[str, bytes],
    filename: str = "large1000.csv",
    n_readers: int = 1,
    declare_order: bool = True,
) -> PvWattsHandles:
    """Build the Fig 4 program over an in-memory file registry.

    ``declare_order=False`` omits the ``order Req < PvWatts < SumMonth``
    declaration — reproducing the paper's remark that the program then
    fails stratification (§6.1); the static checker and the runtime
    warner both flag it.
    """
    p = Program("pvwatts")
    PvWattsRequest = p.table("PvWattsRequest", "str filename", orderby=("Req",))
    ReadRegion = p.table(
        "ReadRegion", "str filename, int start, int end", orderby=("Req", "par start")
    )
    PvWatts = p.table(
        "PvWatts",
        "int year, int month, int day, str hour, int power",
        orderby=("PvWatts",),
    )
    SumMonth = p.table("SumMonth", "int year, int month", orderby=("SumMonth",))
    if declare_order:
        p.order("Req", "PvWatts", "SumMonth")

    @p.foreach(PvWattsRequest, unsafe=True)
    def split_input(ctx, req):
        """Cut the input file into reader regions (Fig 7 phase 1)."""
        ctx.io_allowed()
        data = files[req.filename]
        for start, end in split_regions(len(data), n_readers):
            ctx.put(ReadRegion.new(req.filename, start, end))

    @p.foreach(ReadRegion, unsafe=True)
    def read_loop(ctx, region):
        """One parallel CSV reader (byte-oriented, §6.1)."""
        ctx.io_allowed()
        data = files[region.filename]

        def on_record(rec: tuple) -> None:
            y, m, d, hour, power = rec
            ctx.put(PvWatts.new(y, m, d, hour.decode("ascii"), power))

        n = read_region(
            data, region.start, region.end, PVWATTS_INT_POSITIONS, _N_FIELDS, on_record
        )
        ctx.charge(0.6 * n, "csv_parse")
        ctx.charge(0.2 * n, "io_record")

    # the two pure rules are the paper's SMT targets
    @p.foreach(PvWatts)
    def make_summonth(ctx, pv):
        ctx.put(SumMonth.new(pv.year, pv.month))

    @p.foreach(SumMonth)
    def average_month(ctx, s):
        stats = ctx.reduce(
            PvWatts,
            s.year,
            s.month,
            reducer=Statistics(),
            value=lambda rec: rec.power,
        )
        ctx.println(f"{s.year}/{s.month}: {stats.mean:.3f}")

    p.put(PvWattsRequest.new(filename))
    return PvWattsHandles(p, PvWattsRequest, ReadRegion, PvWatts, SumMonth)


# -- Gamma store alternatives for the PvWatts table (Fig 8) -----------------


def array_of_hashsets_store(concurrent: bool = True):
    """The paper's custom month-array store (§6.2)."""

    def factory(schema):
        return ArrayOfHashSetsStore(schema, "month", 1, 12, concurrent=concurrent)

    return factory


def hash_index_store(concurrent: bool = True):
    """HashSet/ConcurrentHashMap indexed by (year, month)."""

    def factory(schema):
        return HashIndexStore(schema, ("year", "month"), concurrent=concurrent)

    return factory


# -- convenience runners ------------------------------------------------------


def run_pvwatts(
    data: bytes,
    options: ExecOptions | None = None,
    n_readers: int = 1,
    filename: str = "large1000.csv",
) -> RunResult:
    handles = build_pvwatts_program({filename: data}, filename, n_readers)
    return handles.program.run(options or ExecOptions())


def month_means_from_output(output: list[str]) -> dict[tuple[int, int], float]:
    """Parse the program's println lines back into {(year, month): mean}."""
    out: dict[tuple[int, int], float] = {}
    for line in output:
        head, _, mean = line.partition(": ")
        y, _, m = head.partition("/")
        out[(int(y), int(m))] = float(mean)
    return out
