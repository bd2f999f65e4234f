"""Fixed-width report tables for the benchmark harness.

The benches print rows shaped like the paper's tables; these helpers
keep the formatting in one place.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ModelParameterError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    align_right: bool = True,
) -> str:
    """Render a fixed-width text table.

    Args:
        headers: column titles.
        rows: cell values (stringified with ``str``).
        title: optional heading line.
        align_right: right-align cells (numeric tables) or left-align.

    Returns:
        The rendered table as one string.
    """
    if not headers:
        raise ModelParameterError("need at least one column")
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ModelParameterError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        if align_right:
            return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
