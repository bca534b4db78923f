"""Light-weight experiment harness: parameterised runs, result tables, reports.

Every figure of the paper's evaluation section has a corresponding experiment
function in :mod:`repro.experiments.figures`.  Those functions return
:class:`ExperimentTable` instances — plain tabular data (one row per plotted
point) that ``examples/reproduce_paper_figures.py`` prints, that
``tests/test_experiments.py`` checks and that users can export to CSV for
plotting.

:func:`run_query_batch` is the harness-level entry point into the engine's
batch API: it evaluates a request workload against one shared refinement
context and summarises the per-query outcomes as an :class:`ExperimentTable`.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["ExperimentTable", "run_query_batch"]


@dataclass
class ExperimentTable:
    """A named table of experiment results.

    Attributes
    ----------
    name:
        Identifier of the experiment (e.g. ``"figure_6a"``).
    description:
        One-line description of what the experiment measures.
    columns:
        Ordered column names.
    rows:
        One dict per measured point; keys must be a subset of ``columns``.
    """

    name: str
    description: str
    columns: Sequence[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; unknown keys raise to catch typos early."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.name}")
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterable[dict[str, Any]]:
        return iter(self.rows)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render the table as aligned plain text (used by the examples)."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        header = list(self.columns)
        body = [[fmt(row.get(col, "")) for col in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"# {self.name}: {self.description}",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in body)
        return "\n".join(lines)

    def save_csv(self, path: str) -> None:
        """Write the table to a CSV file."""
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.columns))
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


def run_query_batch(
    engine,
    requests: Sequence,
    name: str = "query_batch",
    description: str = "per-query outcomes of one engine batch",
) -> tuple[ExperimentTable, list]:
    """Evaluate ``requests`` through ``engine.evaluate_many`` and tabulate.

    Returns the summary table together with the raw results (in request
    order).  Threshold-style results contribute their match statistics; other
    result types only report their runtime.  The engine's shared refinement
    context makes the batch cheaper than issuing the queries independently —
    the table's ``seconds`` column is per-query wall-clock inside the batch.
    """
    table = ExperimentTable(
        name=name,
        description=description,
        columns=(
            "query",
            "kind",
            "matches",
            "undecided",
            "rejected",
            "pruned",
            "seconds",
        ),
    )
    results = []
    for position, request in enumerate(requests):
        start = time.perf_counter()
        result = request.run(engine)
        elapsed = time.perf_counter() - start
        results.append(result)
        matches = undecided = rejected = pruned = None
        if hasattr(result, "matches"):
            matches = len(result.matches)
            undecided = len(result.undecided)
            rejected = len(result.rejected)
            pruned = result.pruned
        table.add_row(
            query=position,
            kind=type(request).__name__,
            matches=matches,
            undecided=undecided,
            rejected=rejected,
            pruned=pruned,
            seconds=elapsed,
        )
    return table, results
