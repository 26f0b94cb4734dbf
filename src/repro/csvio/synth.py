"""Synthetic PVWatts-style solar data (the 192 MB NREL file substitute).

The paper's PvWatts case study reads ``large1000.csv`` — 8,760,000
hourly output records generated from NREL's PVWatts program — and
averages power per month (§6).  That file is not available, so this
module generates a deterministic stand-in with the same schema
(``year, month, day, hour, power``) and the properties the experiments
depend on:

* hourly records covering whole years (8 760 per installation-year),
  so all 12 months appear with realistic (28/30/31-day) weights;
* a plausible power model — seasonal × diurnal irradiance with seeded
  weather noise — so per-month averages are distinct and stable;
* two input orders matching Fig 10's experiment: ``"by-month"``
  (the paper's *unsorted* default: "ordered by year and month, which
  means that long sequences of records are processed by the same
  consumer") and ``"round-robin"`` (the paper's *sorted* best case:
  "sorted by day of the month and time of the day, so that input
  records are processed by consumers in a round-robin fashion").

Scale is a parameter; DESIGN.md records the default benchmark scale.
"""

from __future__ import annotations

import calendar
import math

import numpy as np

from repro.csvio.reader import PVWATTS_FIELDS, PVWATTS_INT_POSITIONS

__all__ = [
    "PVWATTS_FIELDS",
    "PVWATTS_INT_POSITIONS",
    "hourly_records",
    "generate_csv_bytes",
    "expected_month_means",
]

_DAYS = {m: calendar.monthrange(2001, m)[1] for m in range(1, 13)}  # non-leap


def _power(month: int, day: int, hour: int, noise: float) -> int:
    """Watt output of one installation-hour.

    Seasonal factor peaks mid-year (northern summer), diurnal factor is
    a half-sine between 06:00 and 18:00, plus multiplicative weather
    noise; night hours produce 0.
    """
    if hour < 6 or hour >= 18:
        return 0
    season = 0.6 + 0.4 * math.sin(math.pi * (month - 0.5) / 12.0)
    diurnal = math.sin(math.pi * (hour - 6) / 12.0)
    base = 4000.0 * season * diurnal
    jitter = 1.0 + 0.25 * noise + 0.002 * (day % 7)
    return max(0, int(base * jitter))


def hourly_records(
    n_years: int = 1,
    start_year: int = 2012,
    seed: int = 42,
    order: str = "by-month",
) -> list[tuple[int, int, int, str, int]]:
    """All hourly records, in the requested input order.

    ``order="by-month"`` is chronological (year, month, day, hour);
    ``order="round-robin"`` interleaves months: primary sort key is
    (day, hour), so consecutive records cycle through the 12 months.
    """
    if order not in ("by-month", "round-robin"):
        raise ValueError(f"unknown order {order!r}")
    rng = np.random.default_rng(seed)
    records: list[tuple[int, int, int, str, int]] = []
    for y in range(start_year, start_year + n_years):
        for month in range(1, 13):
            noise = rng.standard_normal(_DAYS[month] * 24)
            i = 0
            for day in range(1, _DAYS[month] + 1):
                for hour in range(24):
                    p = _power(month, day, hour, float(noise[i]))
                    records.append((y, month, day, f"{hour:02d}:00", p))
                    i += 1
    if order == "round-robin":
        records.sort(key=lambda r: (r[0], r[2], r[3], r[1]))
    return records


def generate_csv_bytes(
    n_years: int = 1,
    start_year: int = 2012,
    seed: int = 42,
    order: str = "by-month",
) -> bytes:
    """The CSV file as bytes (no header, matching the paper's reader)."""
    recs = hourly_records(n_years, start_year, seed, order)
    lines = [f"{y},{m},{d},{h},{p}" for (y, m, d, h, p) in recs]
    return ("\n".join(lines) + "\n").encode("ascii")


def expected_month_means(
    n_years: int = 1, start_year: int = 2012, seed: int = 42
) -> dict[tuple[int, int], float]:
    """Ground-truth per-(year, month) mean power, for validating both
    the JStar program and the baseline against the same data."""
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for y, m, _d, _h, p in hourly_records(n_years, start_year, seed):
        key = (y, m)
        sums[key] = sums.get(key, 0.0) + p
        counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}
