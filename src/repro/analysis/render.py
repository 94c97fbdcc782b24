"""Terminal renderings of the paper's figures and tables.

The benchmark harness prints the same rows and series the paper reports;
these helpers keep that output aligned and readable without any plotting
dependency.  Each renderer returns a string (callers decide where it
goes), uses only ASCII, and is deterministic — benchmark logs diff cleanly
across runs.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["render_heatmap", "render_table", "render_series"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_heatmap(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: np.ndarray,
    title: Optional[str] = None,
    fmt: str = "{:.0f}",
) -> str:
    """A heat-map grid in the layout of the paper's Figs. 4/5."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"values shape {values.shape} does not match labels "
            f"({len(row_labels)}, {len(col_labels)})"
        )
    rows = [
        [label] + [fmt.format(v) for v in values[i]]
        for i, label in enumerate(row_labels)
    ]
    return render_table([""] + list(col_labels), rows, title=title)


def render_series(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: Optional[str] = None,
    x_label: str = "x",
    fmt: str = "{:.3g}",
) -> str:
    """Tabulated multi-series data (e.g. the Fig. 3 roofline envelope)."""
    headers = [x_label] + list(series)
    rows = []
    for i, xv in enumerate(x):
        rows.append([fmt.format(xv)] + [fmt.format(series[s][i]) for s in series])
    return render_table(headers, rows, title=title)
