"""Tests for the experiment harness and the per-figure experiments.

The per-figure experiments are executed with very small parameters here —
these tests assert the *shape* the paper reports (who wins, how trends move),
whereas ``examples/reproduce_paper_figures.py`` runs the fuller configurations.
"""

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import KNNQuery, QueryEngine
from repro.experiments import (
    ExperimentTable,
    ablation_ugf_truncation,
    ablation_ugf_vs_regular_gf,
    figure5_mc_runtime,
    figure6a_pruning_power,
    figure6b_uncertainty_per_iteration,
    figure7_uncertainty_vs_runtime,
    figure8_predicate_queries,
    figure9a_influence_objects,
    figure9b_database_size,
    run_query_batch,
)
from repro.queries import probabilistic_knn_threshold


class TestExperimentTable:
    def test_add_row_and_column(self):
        table = ExperimentTable("t", "demo", columns=("a", "b"))
        table.add_row(a=1, b=2.0)
        table.add_row(a=3, b=4.0)
        assert len(table) == 2
        assert table.column("a") == [1, 3]

    def test_unknown_column_raises(self):
        table = ExperimentTable("t", "demo", columns=("a",))
        with pytest.raises(KeyError):
            table.add_row(a=1, bogus=2)
        with pytest.raises(KeyError):
            table.column("bogus")

    def test_to_text_contains_header_and_values(self):
        table = ExperimentTable("t", "demo", columns=("a", "b"))
        table.add_row(a=1, b=2.5)
        text = table.to_text()
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "2.5" in text

    def test_save_csv(self, tmp_path):
        table = ExperimentTable("t", "demo", columns=("a", "b"))
        table.add_row(a=1, b=2.5)
        path = tmp_path / "out.csv"
        table.save_csv(str(path))
        content = path.read_text().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2.5"

    def test_iteration(self):
        table = ExperimentTable("t", "demo", columns=("a",))
        table.add_row(a=1)
        assert [row["a"] for row in table] == [1]

    def test_run_query_batch_matches_independent_calls(self):
        database = uniform_rectangle_database(num_objects=60, max_extent=0.08, seed=0)
        rng = np.random.default_rng(7)
        distinct = [random_reference_object(extent=0.08, rng=rng) for _ in range(3)]
        # repeated query objects are served from the batch's shared context
        stream = [distinct[i] for i in (0, 1, 0, 2, 1, 0)]
        table, batch = run_query_batch(
            QueryEngine(database),
            [KNNQuery(query, k=3, tau=0.5, max_iterations=4) for query in stream],
        )
        assert table.column("query") == list(range(len(stream)))
        assert table.column("matches") == [len(result.matches) for result in batch]
        for query, result in zip(stream, batch):
            independent = probabilistic_knn_threshold(
                database, query, k=3, tau=0.5, max_iterations=4
            )
            assert result.result_indices() == independent.result_indices()
            for bucket in ("undecided", "rejected"):
                assert [m.index for m in getattr(result, bucket)] == [
                    m.index for m in getattr(independent, bucket)
                ]


class TestFigureExperiments:
    def test_figure5_runtime_grows_with_samples(self):
        table = figure5_mc_runtime(
            num_objects=25, sample_sizes=(10, 40), num_queries=1, seed=0
        )
        runtimes = table.column("runtime_per_query_seconds")
        assert len(runtimes) == 2
        assert runtimes[1] > runtimes[0]

    def test_figure6a_optimal_prunes_more(self):
        table = figure6a_pruning_power(
            max_extents=(0.005, 0.01), num_objects=400, num_queries=3, seed=0
        )
        for row in table:
            assert row["optimal_candidates"] <= row["minmax_candidates"]
        # a strict win at the larger extent
        assert table.rows[-1]["optimal_candidates"] < table.rows[-1]["minmax_candidates"]
        # candidate counts grow with the object extent
        assert table.rows[-1]["optimal_candidates"] > table.rows[0]["optimal_candidates"]

    def test_figure6b_uncertainty_decreases_and_optimal_wins(self):
        table = figure6b_uncertainty_per_iteration(
            num_objects=400, num_queries=2, iterations=3, seed=0
        )
        optimal = table.column("optimal_uncertainty")
        minmax = table.column("minmax_uncertainty")
        assert optimal == sorted(optimal, reverse=True)
        assert minmax == sorted(minmax, reverse=True)
        # the optimal criterion never has more uncertainty than MinMax
        assert all(o <= m + 1e-9 for o, m in zip(optimal, minmax))

    def test_figure7_uncertainty_decreases_with_runtime(self):
        table = figure7_uncertainty_vs_runtime(
            dataset="synthetic",
            sample_sizes=(15,),
            num_objects=25,
            iterations=3,
            num_queries=1,
            seed=0,
        )
        uncertainties = table.column("avg_uncertainty")
        fractions = table.column("fraction_of_mc_runtime")
        assert uncertainties == sorted(uncertainties, reverse=True)
        assert fractions == sorted(fractions)

    def test_figure7_iip_dataset_runs(self):
        table = figure7_uncertainty_vs_runtime(
            dataset="iip",
            sample_sizes=(10,),
            num_objects=25,
            iterations=2,
            num_queries=1,
            seed=0,
        )
        assert len(table) == 3  # iterations 0..2

    def test_figure7_rejects_unknown_dataset(self):
        with pytest.raises(ValueError):
            figure7_uncertainty_vs_runtime(dataset="bogus")

    def test_figure8_idca_faster_than_mc(self):
        table = figure8_predicate_queries(
            k_values=(2,),
            taus=(0.5,),
            num_objects=30,
            samples_per_object=25,
            num_queries=1,
            seed=0,
        )
        row = table.rows[0]
        assert row["idca_seconds"] < row["mc_seconds"]

    def test_figure9a_runtime_accumulates(self):
        table = figure9a_influence_objects(
            target_ranks=(1, 10), num_objects=400, iterations=2, seed=0
        )
        for rank in (1, 10):
            rows = [r for r in table if r["target_rank"] == rank]
            times = [r["cumulative_seconds"] for r in rows]
            assert times == sorted(times)
        # more distant targets have at least as many influence objects
        influence = [
            next(r["num_influence"] for r in table if r["target_rank"] == rank)
            for rank in (1, 10)
        ]
        assert influence == sorted(influence)

    def test_figure9b_covers_all_sizes(self):
        table = figure9b_database_size(
            database_sizes=(200, 400), iterations=2, seed=0
        )
        assert set(table.column("database_size")) == {200, 400}
        assert all(row["cumulative_seconds"] >= 0 for row in table)
        # denser databases leave at least as many influence objects
        influence = [
            next(r["num_influence"] for r in table if r["database_size"] == size)
            for size in (200, 400)
        ]
        assert influence == sorted(influence)


class TestAblations:
    def test_ugf_vs_regular_gf_tightness(self):
        table = ablation_ugf_vs_regular_gf(num_variables=(4, 8), trials=5, seed=0)
        for row in table:
            assert row["ugf_width"] <= row["regular_width"] + 1e-9

    def test_truncation_agrees_and_is_faster_for_large_n(self):
        table = ablation_ugf_truncation(num_variables=(120,), k=4, trials=3, seed=0)
        row = table.rows[0]
        assert row["bounds_agree"] is True
        assert row["truncated_seconds"] < row["full_seconds"]
