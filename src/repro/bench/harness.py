"""Generic sweep runner for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class SweepResult:
    """Rows of one experiment sweep.

    ``columns`` names the values each row carries (first column is the
    sweep variable); ``rows`` is a list of dicts keyed by column.
    ``claims`` holds the experiment's shape assertions as evaluated on
    these rows: ``(claim text, holds)`` pairs, added by the builder.
    """

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    claims: list[tuple[str, bool]] = field(default_factory=list)

    def series(self, column: str) -> list:
        """One column as a list (for shape assertions)."""
        if column not in self.columns:
            raise KeyError(f"no column {column!r} in sweep {self.name!r}")
        return [row.get(column) for row in self.rows]

    def claim(self, text: str, holds: bool) -> None:
        """Record one shape assertion and whether these rows bear it
        out; ``python -m repro.bench`` fails when one does not."""
        self.claims.append((text, bool(holds)))


def run_sweep(
    name: str,
    variable: str,
    values: Sequence,
    runner: Callable[[object], dict],
    *,
    notes: str = "",
) -> SweepResult:
    """Run ``runner(value)`` for each sweep value and collect rows.

    The runner returns a dict of measured columns; the sweep variable
    is prepended automatically.
    """
    rows = []
    columns: list[str] = [variable]
    for value in values:
        measured = runner(value)
        row = {variable: value, **measured}
        for key in measured:
            if key not in columns:
                columns.append(key)
        rows.append(row)
    return SweepResult(name=name, columns=columns, rows=rows, notes=notes)
