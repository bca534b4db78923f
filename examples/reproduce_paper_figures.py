"""Regenerate (scaled-down) versions of every figure in the paper's evaluation.

This script runs the experiment behind each figure of Section VII with
laptop-friendly parameters, prints the resulting tables and optionally saves
them as CSV files for plotting.  ``tests/test_experiments.py`` runs the
same experiments at smaller sizes with assertions on the expected shapes.

Run with::

    python examples/reproduce_paper_figures.py [output_directory]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import (
    ablation_ugf_truncation,
    ablation_ugf_vs_regular_gf,
    figure5_mc_runtime,
    figure6a_pruning_power,
    figure6b_uncertainty_per_iteration,
    figure7_uncertainty_vs_runtime,
    figure8_predicate_queries,
    figure9a_influence_objects,
    figure9b_database_size,
)


def main(output_dir: str | None = None) -> None:
    experiments = [
        (
            "Figure 5",
            lambda: figure5_mc_runtime(
                num_objects=60, sample_sizes=(20, 40, 80, 160), num_queries=1
            ),
        ),
        (
            "Figure 6(a)",
            lambda: figure6a_pruning_power(
                max_extents=(0.001, 0.0025, 0.005, 0.0075, 0.01),
                num_objects=2_000,
                num_queries=5,
            ),
        ),
        (
            "Figure 6(b)",
            lambda: figure6b_uncertainty_per_iteration(
                num_objects=2_000, num_queries=3, iterations=5
            ),
        ),
        (
            "Figure 7(a)",
            lambda: figure7_uncertainty_vs_runtime(
                dataset="synthetic",
                sample_sizes=(25, 50, 100),
                num_objects=60,
                max_extent=0.06,
                iterations=5,
                num_queries=2,
            ),
        ),
        (
            "Figure 7(b)",
            lambda: figure7_uncertainty_vs_runtime(
                dataset="iip",
                sample_sizes=(25, 50, 100),
                num_objects=60,
                max_extent=0.6,
                iterations=5,
                num_queries=2,
            ),
        ),
        (
            "Figure 8",
            lambda: figure8_predicate_queries(
                k_values=(1, 5, 10), taus=(0.25, 0.5, 0.75), num_objects=60
            ),
        ),
        (
            "Figure 9(a)",
            lambda: figure9a_influence_objects(
                target_ranks=(1, 5, 10, 25, 50), num_objects=5_000, iterations=3
            ),
        ),
        (
            "Figure 9(b)",
            lambda: figure9b_database_size(
                database_sizes=(2_000, 4_000, 6_000, 8_000, 10_000), iterations=3
            ),
        ),
        ("Ablation: UGF vs regular GFs", lambda: ablation_ugf_vs_regular_gf()),
        ("Ablation: UGF truncation", lambda: ablation_ugf_truncation()),
    ]

    out_path = Path(output_dir) if output_dir else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for title, runner in experiments:
        print(f"\n===== {title} " + "=" * max(0, 60 - len(title)))
        table = runner()
        print(table.to_text())
        if out_path is not None:
            csv_file = out_path / f"{table.name}.csv"
            table.save_csv(str(csv_file))
            print(f"(saved to {csv_file})")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
