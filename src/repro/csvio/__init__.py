"""CSV substrate: byte-oriented reader, region-split parallel reading,
and the synthetic PVWatts data generator (DESIGN.md §2 substitutions)."""

from repro._lazy import lazy_exports
from repro.csvio.reader import (
    PVWATTS_FIELDS,
    PVWATTS_INT_POSITIONS,
    iter_lines,
    parse_int_fields,
    read_records_bytes,
    read_records_text,
)
from repro.csvio.split import read_region, region_bounds, split_regions

# numpy loads with the first generated data set, not with the reader
__getattr__, __dir__ = lazy_exports(
    __name__,
    {"synth": ("expected_month_means", "generate_csv_bytes", "hourly_records")},
)

__all__ = [
    "iter_lines",
    "parse_int_fields",
    "read_records_bytes",
    "read_records_text",
    "read_region",
    "region_bounds",
    "split_regions",
    "PVWATTS_FIELDS",
    "PVWATTS_INT_POSITIONS",
    "expected_month_means",
    "generate_csv_bytes",
    "hourly_records",
]
