"""End-to-end integration tests across the whole library.

These tests exercise the complete pipeline — dataset generation, candidate
filtering, IDCA refinement, query semantics and the baselines — on small but
non-trivial inputs, and cross-check the independent code paths against each
other (IDCA vs MC vs exact oracle, scan vs R-tree candidates, optimal vs
MinMax criterion).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    IDCA,
    MaxIterations,
    MonteCarloDominationCount,
    ThresholdDecision,
    UncertaintyBelow,
    discretise_database,
    expected_rank_ranking,
    generate_query_workload,
    iip_iceberg_database,
    probabilistic_inverse_ranking,
    probabilistic_knn_threshold,
    probabilistic_rknn_threshold,
    uniform_rectangle_database,
)
from repro.baselines import exact_domination_count_pmf
from repro.datasets import IIPSimulationConfig
from repro.uncertain import DiscreteObject


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "8.0.0"

    def test_setup_metadata_matches_package(self):
        root = Path(__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        assert completed.stdout.split() == ["repro", repro.__version__]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"


class TestEndToEndSyntheticWorkload:
    """The paper's standard workload on a scaled-down synthetic dataset."""

    @pytest.fixture(scope="class")
    def database(self):
        return uniform_rectangle_database(400, max_extent=0.02, seed=99)

    @pytest.fixture(scope="class")
    def workload(self, database):
        return generate_query_workload(database, num_queries=3, target_rank=10, seed=100)

    def test_workload_refinement_reduces_uncertainty(self, database, workload):
        idca = IDCA(database)
        for pair in workload:
            run = idca.domination_count(
                pair.target_index, pair.reference, stop=MaxIterations(4), max_iterations=4
            )
            assert run.iterations[-1].uncertainty <= run.iterations[0].uncertainty

    def test_optimal_criterion_dominates_minmax_throughout(self, database, workload):
        for pair in workload:
            optimal = IDCA(database, criterion="optimal").domination_count(
                pair.target_index, pair.reference, stop=MaxIterations(2), max_iterations=2
            )
            minmax = IDCA(database, criterion="minmax").domination_count(
                pair.target_index, pair.reference, stop=MaxIterations(2), max_iterations=2
            )
            assert optimal.num_influence <= minmax.num_influence
            assert optimal.bounds.uncertainty() <= minmax.bounds.uncertainty() + 1e-9

    def test_knn_and_inverse_ranking_are_consistent(self, database, workload):
        """P(kNN) from the query layer equals P(rank <= k) from inverse ranking."""
        pair = workload[0]
        k, tau = 5, 0.5
        knn = probabilistic_knn_threshold(
            database, pair.reference, k=k, tau=tau, max_iterations=4
        )
        for match in knn.matches[:3]:
            distribution = probabilistic_inverse_ranking(
                database, match.index, pair.reference, max_iterations=4
            )
            lower, upper = distribution.rank_at_most(k)
            assert upper >= tau - 1e-9


class TestCrossValidationWithBaselines:
    """IDCA, the MC partner and the exact oracle must agree on discrete data."""

    @pytest.fixture(scope="class")
    def setup(self):
        base = uniform_rectangle_database(25, max_extent=0.1, seed=7)
        rng = np.random.default_rng(7)
        discrete = discretise_database(base, 30, rng)
        reference = DiscreteObject(rng.uniform(0, 1, size=(10, 2)), label="ref")
        return discrete, reference

    def test_three_way_agreement(self, setup):
        discrete, reference = setup
        target = 3
        exact = exact_domination_count_pmf(
            discrete, discrete[target], reference, exclude_indices=[target]
        )
        mc = MonteCarloDominationCount(discrete, samples_per_object=30, seed=1)
        mc_pmf = mc.domination_count_pmf(target, reference).pmf
        np.testing.assert_allclose(mc_pmf, exact, atol=1e-9)

        idca = IDCA(discrete, max_target_depth=5, max_reference_depth=5)
        run = idca.domination_count(
            target, reference, stop=UncertaintyBelow(0.0), max_iterations=10
        )
        assert np.all(run.bounds.lower <= exact + 1e-9)
        assert np.all(run.bounds.upper >= exact - 1e-9)

    def test_threshold_query_decision_matches_oracle_probability(self, setup):
        discrete, reference = setup
        k, tau = 4, 0.5
        result = probabilistic_knn_threshold(
            discrete, reference, k=k, tau=tau, max_iterations=12
        )
        for match in result.matches:
            exact = exact_domination_count_pmf(
                discrete, discrete[match.index], reference, exclude_indices=[match.index]
            )
            assert exact[:k].sum() >= tau - 1e-9
        for match in result.rejected:
            exact = exact_domination_count_pmf(
                discrete, discrete[match.index], reference, exclude_indices=[match.index]
            )
            assert exact[:k].sum() <= tau + 1e-9


class TestIIPScenario:
    """The simulated real-world dataset end to end."""

    @pytest.fixture(scope="class")
    def database(self):
        return iip_iceberg_database(IIPSimulationConfig(num_objects=300, seed=13))

    def test_knn_query_on_icebergs(self, database):
        query = repro.random_reference_object(extent=0.001, seed=14, label="vessel")
        result = probabilistic_knn_threshold(database, query, k=5, tau=0.5, max_iterations=5)
        assert len(result.matches) >= 1
        assert result.candidate_count() + result.pruned == len(database)

    def test_rknn_query_on_icebergs(self, database):
        query = repro.random_reference_object(extent=0.001, seed=15, label="vessel")
        # restrict to a candidate subset for speed; semantics already verified
        result = probabilistic_rknn_threshold(
            database, query, k=3, tau=0.25, candidate_indices=range(40), max_iterations=3
        )
        assert result.candidate_count() == 40

    def test_expected_rank_ranking_orders_by_distance_roughly(self, database):
        query = repro.random_reference_object(extent=0.001, seed=16, label="vessel")
        candidates = list(range(30))
        ranking = expected_rank_ranking(
            database, query, candidate_indices=candidates, max_iterations=3
        )
        assert sorted(ranking.order()) == candidates
        ranks = [entry.expected_rank_midpoint for entry in ranking.ranking]
        assert ranks == sorted(ranks)


class TestThresholdDecisionEfficiency:
    def test_decided_queries_use_fewer_iterations(self):
        """The whole point of the pruning framework: easy predicates stop early."""
        database = uniform_rectangle_database(300, max_extent=0.01, seed=17)
        reference = repro.random_reference_object(extent=0.01, seed=18)
        easy_target = repro.target_by_mindist_rank(database, reference, rank=1)
        idca = IDCA(database, k_cap=10)
        easy = idca.domination_count(
            easy_target, reference, stop=ThresholdDecision(k=10, tau=0.5), max_iterations=10
        )
        full = IDCA(database).domination_count(
            easy_target, reference, stop=UncertaintyBelow(0.01), max_iterations=10
        )
        assert easy.num_iterations <= full.num_iterations
        assert easy.decision is True
