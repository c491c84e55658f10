"""Plain-text table rendering shared by the experiment harness.

Every E1–E15 table (DESIGN.md §4) is rendered through
:func:`render_table`: the CLI prints it, the runner's
:func:`repro.analysis.runner.write_table` persists it under
``benchmarks/results/`` with a provenance header, and
:mod:`repro.analysis.report` embeds it in EXPERIMENTS.md — one renderer,
so the three outputs can be diffed against each other."""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["render_table", "format_value"]


def format_value(value) -> str:
    """Human-stable formatting: floats to 3 significant decimals."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict-rows as an aligned text table (stable column order from
    the first row)."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns = list(rows[0].keys())
    table = [[format_value(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
