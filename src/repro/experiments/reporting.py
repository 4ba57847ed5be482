"""Plain-text tables for experiment results.

Every figure driver returns an :class:`ExperimentTable`, which renders the
same rows/series the paper plots so results can be eyeballed against the
original figures, as plain text (:meth:`ExperimentTable.to_text`) or Markdown
(:meth:`ExperimentTable.to_markdown`).  ``ROADMAP.md`` records where the
tiny-tier results still disagree with the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class ExperimentTable:
    """A labelled table of experiment results.

    Attributes:
        title: table heading (e.g. ``"Figure 4(a): DBLP, avg relative error"``).
        columns: column headings; the first column is the sweep axis.
        rows: one list of cell strings per sweep point.
        notes: free-form footnotes (dataset sizes, substitutions, ...).
    """

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, cells: Sequence[object]) -> None:
        """Append a row, converting every cell to a string."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(self.columns)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def to_text(self) -> str:
        """Render as a fixed-width text table."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append(f"\n_{note}_")
        return "\n".join(lines)

    def column_values(self, column: str) -> List[str]:
        """All values of one column, in row order (used by tests)."""
        index = self.columns.index(column)
        return [row[index] for row in self.rows]


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)
