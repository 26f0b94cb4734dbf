"""Row/series formatters: print each table/figure the way the paper
reports it, side by side with the paper's numbers.

Every benchmark in ``figures/`` ends by printing one of these
blocks, so ``pytest figures/ --benchmark-only -s`` regenerates the
full evaluation section in text form; EXPERIMENTS.md records one frozen
copy with commentary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FigureRow", "figure_block", "comparison_block"]


@dataclass(frozen=True)
class FigureRow:
    label: str
    measured: float
    paper: float | None = None
    unit: str = ""

    @property
    def ratio(self) -> float | None:
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper


def figure_block(title: str, rows: Sequence[FigureRow], note: str = "") -> str:
    """A measured-vs-paper table."""
    out = [f"### {title}"]
    width = max((len(r.label) for r in rows), default=10)
    out.append(f"{'case'.ljust(width)}  {'measured':>12}  {'paper':>10}")
    for r in rows:
        paper = f"{r.paper:.2f}" if r.paper is not None else "—"
        out.append(
            f"{r.label.ljust(width)}  {r.measured:12.3f}  {paper:>10}"
            + (f" {r.unit}" if r.unit else "")
        )
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)


def comparison_block(
    title: str,
    pairs: Sequence[tuple[str, float, float]],
    paper_ratios: dict[str, float] | None = None,
    note: str = "",
) -> str:
    """A 'who wins, by what factor' table: (label, ours, theirs)."""
    out = [f"### {title}"]
    width = max((len(p[0]) for p in pairs), default=10)
    out.append(
        f"{'pair'.ljust(width)}  {'a':>12}  {'b':>12}  {'a/b':>7}  {'paper a/b':>9}"
    )
    for label, a, b in pairs:
        ratio = a / b if b else float("inf")
        paper = (paper_ratios or {}).get(label)
        paper_s = f"{paper:.2f}" if paper is not None else "—"
        out.append(
            f"{label.ljust(width)}  {a:12.4f}  {b:12.4f}  {ratio:7.2f}  {paper_s:>9}"
        )
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)
