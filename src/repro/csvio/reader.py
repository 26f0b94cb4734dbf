"""Byte-oriented CSV reading.

§6.1: "JStar uses its own more efficient CSV library that keeps lines
as byte arrays and avoids conversion to strings as much as possible" —
which is why the JStar PvWatts program beats the hand-coded Java one
(whose reader uses ``BufferedReader.readline`` plus ``String.split``).

The Python analogue of the same trade: this reader slices raw
``bytes`` and feeds them to ``int()`` directly (CPython's ``int``
accepts ASCII byte strings), skipping the text decode that the
baseline reader (:func:`read_records_text`, the ``readline``/``split``
style) pays per line.  The speed *relationship* between the two is
what Fig 6's PvWatts pair measures.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

__all__ = [
    "PVWATTS_FIELDS",
    "PVWATTS_INT_POSITIONS",
    "iter_lines",
    "parse_int_fields",
    "read_records_bytes",
    "read_records_text",
]

#: field order of one PVWatts CSV record (:mod:`repro.csvio.synth`)
PVWATTS_FIELDS = ("year", "month", "day", "hour", "power")
#: positions parsed as integers (hour stays a string, as in Fig 4's
#: ``String hour`` column)
PVWATTS_INT_POSITIONS = (0, 1, 2, 4)


def iter_lines(data: bytes, start: int = 0, end: int | None = None) -> Iterator[bytes]:
    """Yield newline-separated lines of ``data[start:end)``.

    Uses one C-level ``bytes.split`` pass over the window (the whole
    point of the byte-oriented reader: no per-line Python scanning and
    no text decode).  A trailing newline produces no empty final line,
    matching a find-loop's behaviour.
    """
    if end is None:
        end = len(data)
    if start >= end:
        return iter(())
    window = data if (start == 0 and end == len(data)) else data[start:end]
    lines = window.split(b"\n")
    if lines and not lines[-1]:
        lines.pop()
    return iter(lines)


def parse_int_fields(
    line: bytes, int_positions: Sequence[int], n_fields: int
) -> tuple | None:
    """Split one CSV line on commas; fields at ``int_positions`` parsed
    as ints, the rest kept as ``bytes``.  Returns None for blank or
    malformed lines (wrong field count)."""
    if not line or line.endswith(b"\r") and len(line) == 1:
        return None
    if line.endswith(b"\r"):
        line = line[:-1]
    if not line:
        return None
    parts = line.split(b",")
    if len(parts) != n_fields:
        return None
    out: list = list(parts)
    try:
        for i in int_positions:
            out[i] = int(parts[i])
    except ValueError:
        return None
    return tuple(out)


def read_records_bytes(
    data: bytes,
    int_positions: Sequence[int],
    n_fields: int,
    start: int = 0,
    end: int | None = None,
    on_record: Callable[[tuple], None] | None = None,
) -> list[tuple] | int:
    """The JStar-style fast path: byte slicing, no string decode.

    With ``on_record`` given, records are streamed to the callback and
    the count is returned (no list retained); otherwise the record list
    is returned.
    """
    # the parse loop is inlined (no per-line function call) — this is
    # the hot path whose speed Fig 6's PvWatts pair compares
    if end is None:
        end = len(data)
    window = data if (start == 0 and end == len(data)) else data[start:end]
    # one whole-buffer probe decides whether per-line \r handling is
    # needed at all (it costs ~8% of the loop when done per line)
    has_cr = window.find(b"\r") != -1
    records: list[tuple] = [] if on_record is None else None  # type: ignore[assignment]
    n = 0
    for line in window.split(b"\n"):
        if has_cr and line.endswith(b"\r"):
            line = line[:-1]
        if not line:
            continue
        parts = line.split(b",")
        if len(parts) != n_fields:
            continue
        out = list(parts)
        try:
            for i in int_positions:
                out[i] = int(parts[i])
        except ValueError:
            continue
        rec = tuple(out)
        if on_record is None:
            records.append(rec)
        else:
            on_record(rec)
            n += 1
    return records if on_record is None else n


def read_records_text(
    data: bytes,
    int_positions: Sequence[int],
    n_fields: int,
    on_record: Callable[[tuple], None] | None = None,
) -> list[tuple] | int:
    """The baseline style: decode to str, ``splitlines``/``split`` —
    the analogue of ``BufferedReader.readline`` + ``String.split``.
    Field values come back as ``str`` (ints parsed), so downstream
    code sees the same shape as the byte path."""
    text = data.decode("ascii")
    records: list[tuple] = []
    n = 0
    for line in text.splitlines():
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            continue
        out: list = list(parts)
        try:
            for i in int_positions:
                out[i] = int(parts[i])
        except ValueError:
            continue
        rec = tuple(out)
        if on_record is None:
            records.append(rec)
        else:
            on_record(rec)
            n += 1
    return records if on_record is None else n
