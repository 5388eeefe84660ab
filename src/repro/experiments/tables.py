"""Table formatting for the benchmark harness.

Benchmarks print the same rows the paper reports; these helpers render
uniform ASCII tables so `pytest benchmarks/ --benchmark-only -s` output can
be compared to the paper side by side.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_paper_comparison"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
    float_fmt: str = "{:.2f}",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    def cell(x: object) -> str:
        if isinstance(x, float):
            return float_fmt.format(x)
        return str(x)

    str_rows = [[cell(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.rjust(w) for h, w in zip(headers, widths, strict=True))
    )
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths, strict=True)))
    return "\n".join(lines)


def format_paper_comparison(
    label: str,
    measured: dict[str, float],
    paper: dict[str, float],
) -> str:
    """Two-row comparison table: measured vs the paper's reported numbers.

    Keys present only on one side are shown with '-' on the other, so a
    reader can see at a glance whether the *shape* (ordering, rough
    ratios) reproduces.
    """
    keys = list(measured)
    rows = [
        ["measured"] + [measured.get(k, float("nan")) for k in keys],
        ["paper"] + [paper.get(k, float("nan")) for k in keys],
    ]
    return format_table([label] + keys, rows)
