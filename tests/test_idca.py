"""Tests of the IDCA algorithm (Algorithm 1), including oracle comparisons."""

import numpy as np
import pytest

from repro.baselines import exact_domination_count_pmf
from repro.core import IDCA, MaxIterations, ThresholdDecision, UncertaintyBelow
from repro.datasets import (
    discrete_sample_database,
    random_reference_object,
    target_by_mindist_rank,
    uniform_rectangle_database,
)
from repro.geometry import Rectangle
from repro.uncertain import BoxUniformObject, DiscreteObject, UncertainDatabase


def _box(lo, hi, **kwargs):
    return BoxUniformObject(Rectangle.from_bounds(lo, hi), **kwargs)


class TestIDCAStructure:
    def setup_method(self):
        self.database = uniform_rectangle_database(80, max_extent=0.05, seed=2)
        self.reference = random_reference_object(extent=0.05, seed=3)
        self.target = target_by_mindist_rank(self.database, self.reference, rank=5)
        self.idca = IDCA(self.database)

    def test_result_partitions_database(self):
        result = self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(2), max_iterations=2
        )
        assert (
            result.complete_count + result.num_influence + result.pruned_count
            == len(self.database) - 1
        )

    def test_bounds_length_covers_all_counts(self):
        result = self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(1), max_iterations=1
        )
        assert len(result.bounds) == len(self.database)

    def test_iteration_zero_recorded(self):
        result = self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(0), max_iterations=0
        )
        assert len(result.iterations) == 1
        assert result.iterations[0].iteration == 0

    def test_uncertainty_monotonically_non_increasing(self):
        result = self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(5), max_iterations=5
        )
        uncertainties = [stat.uncertainty for stat in result.iterations]
        for earlier, later in zip(uncertainties, uncertainties[1:]):
            assert later <= earlier + 1e-9

    def test_total_probability_mass_consistency(self):
        result = self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(3), max_iterations=3
        )
        # the true PMF sums to one, so lower sums must stay below 1 and upper above
        assert result.bounds.lower.sum() <= 1.0 + 1e-9
        assert result.bounds.upper.sum() >= 1.0 - 1e-9

    def test_max_iterations_budget_respected(self):
        result = self.idca.domination_count(
            self.target, self.reference, max_iterations=3
        )
        assert result.num_iterations <= 3

    def test_negative_max_iterations_raises(self):
        with pytest.raises(ValueError):
            self.idca.domination_count(self.target, self.reference, max_iterations=-1)

    def test_index_out_of_range_raises(self):
        with pytest.raises(IndexError):
            self.idca.domination_count(len(self.database) + 1, self.reference)

    def test_invalid_depth_configuration_raises(self):
        with pytest.raises(ValueError):
            IDCA(self.database, max_target_depth=-1)
        with pytest.raises(ValueError):
            IDCA(self.database, max_candidate_depth=0)

    def test_external_target_object(self):
        external = _box([0.4, 0.4], [0.45, 0.45], label="external")
        result = self.idca.domination_count(
            external, self.reference, stop=MaxIterations(1), max_iterations=1
        )
        # no database object is excluded, so counts range over the full database
        assert len(result.bounds) == len(self.database) + 1

    def test_reference_profile_is_reused_per_reference_and_never_pickled(self):
        import pickle

        first = self.idca.start_run(self.target, self.reference, max_iterations=0)
        profile = self.idca._min_dists_to(self.reference)
        assert profile.shape == (len(self.database),)
        second = self.idca.start_run(self.target + 1, self.reference, max_iterations=0)
        assert self.idca._min_dists_to(self.reference) is profile
        assert first.result.pruned_count + first.result.complete_count + (
            first.result.num_influence
        ) == len(self.database) - 1
        assert second.result.bounds.max_count == len(self.database) - 1
        # a new reference replaces the profile; only one is ever held
        other = self.database[0]
        assert self.idca._min_dists_to(other) is not profile
        assert self.idca._reference_profile[0] is other
        clone = pickle.loads(pickle.dumps(self.idca))
        assert clone._reference_profile is None
        result = clone.domination_count(self.target, self.reference, max_iterations=1)
        again = self.idca.domination_count(self.target, self.reference, max_iterations=1)
        assert np.array_equal(result.bounds.lower, again.bounds.lower)
        assert np.array_equal(result.bounds.upper, again.bounds.upper)

    def test_decomposition_trees_are_cached(self):
        self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(2), max_iterations=2
        )
        first = len(self.idca._trees)
        self.idca.domination_count(
            self.target, self.reference, stop=MaxIterations(2), max_iterations=2
        )
        assert len(self.idca._trees) == first


class TestIDCAAgainstOracle:
    """IDCA bounds must always bracket the exact possible-world distribution."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 48])
    def test_bounds_bracket_exact_pmf(self, seed):
        database = discrete_sample_database(
            num_objects=9, samples_per_object=5, max_extent=0.35, seed=seed
        )
        rng = np.random.default_rng(seed)
        reference = DiscreteObject(rng.uniform(0, 1, size=(4, 2)), label="ref")
        target = 3
        exact = exact_domination_count_pmf(
            database, database[target], reference, exclude_indices=[target]
        )
        idca = IDCA(database, max_target_depth=4, max_reference_depth=4)
        for iterations in (0, 1, 3, 6):
            result = idca.domination_count(
                target,
                reference,
                stop=MaxIterations(iterations),
                max_iterations=iterations,
            )
            assert np.all(result.bounds.lower <= exact + 1e-9)
            assert np.all(result.bounds.upper >= exact - 1e-9)

    def test_convergence_to_exact_for_discrete_objects(self):
        database = discrete_sample_database(
            num_objects=6, samples_per_object=4, max_extent=0.3, seed=5
        )
        rng = np.random.default_rng(5)
        reference = DiscreteObject(rng.uniform(0, 1, size=(3, 2)), label="ref")
        target = 2
        exact = exact_domination_count_pmf(
            database, database[target], reference, exclude_indices=[target]
        )
        idca = IDCA(database, max_target_depth=8, max_reference_depth=8)
        result = idca.domination_count(
            target, reference, stop=UncertaintyBelow(1e-9), max_iterations=12
        )
        np.testing.assert_allclose(result.bounds.lower, exact, atol=1e-7)
        np.testing.assert_allclose(result.bounds.upper, exact, atol=1e-7)

    def test_certain_objects_need_no_refinement(self):
        """With certain (point) objects the filter step alone is exact."""
        points = [[0.1, 0.1], [0.2, 0.2], [0.5, 0.5], [0.9, 0.9]]
        database = UncertainDatabase(
            [DiscreteObject([p], label=f"p{i}") for i, p in enumerate(points)]
        )
        reference = DiscreteObject([[0.0, 0.0]], label="ref")
        idca = IDCA(database)
        result = idca.domination_count(2, reference, max_iterations=5)
        # objects 0 and 1 are closer to the reference than object 2; object 3 is not
        assert result.bounds.is_exact()
        assert result.bounds.pmf_bounds(2) == (1.0, 1.0)
        assert result.num_influence == 0
        assert result.complete_count == 2

    def test_k_cap_result_matches_full_run_below_cap(self):
        database = discrete_sample_database(
            num_objects=8, samples_per_object=4, max_extent=0.3, seed=9
        )
        rng = np.random.default_rng(9)
        reference = DiscreteObject(rng.uniform(0, 1, size=(3, 2)), label="ref")
        target = 1
        k = 3
        full = IDCA(database).domination_count(
            target, reference, stop=MaxIterations(4), max_iterations=4
        )
        capped = IDCA(database, k_cap=k).domination_count(
            target, reference, stop=MaxIterations(4), max_iterations=4
        )
        for count in range(k + 1):
            assert capped.bounds.pmf_bounds(count)[0] == pytest.approx(
                full.bounds.pmf_bounds(count)[0], abs=1e-9
            )
            assert capped.bounds.pmf_bounds(count)[1] == pytest.approx(
                full.bounds.pmf_bounds(count)[1], abs=1e-9
            )
        assert capped.bounds.less_than(k)[0] == pytest.approx(
            full.bounds.less_than(k)[0], abs=1e-9
        )


def _oracle_scenarios():
    """Small discrete databases: ``(name, database, target index, reference)``."""
    scenarios = []
    for seed in (2, 11, 31):
        rng = np.random.default_rng(seed)
        database = discrete_sample_database(
            num_objects=7, samples_per_object=3, max_extent=0.4, seed=seed
        )
        reference = DiscreteObject(rng.uniform(0, 1, size=(3, 2)), label="ref")
        scenarios.append((f"random-{seed}", database, int(rng.integers(7)), reference))

    rng = np.random.default_rng(5)
    cloud = rng.uniform(0.3, 0.7, size=(3, 2))
    coincident = UncertainDatabase(
        [
            DiscreteObject(cloud, label="target"),
            DiscreteObject(cloud.copy(), label="twin-of-target"),
            DiscreteObject(cloud + 0.05, label="a"),
            DiscreteObject(cloud + 0.05, label="twin-of-a"),
            DiscreteObject(rng.uniform(0, 1, size=(3, 2)), label="b"),
        ]
    )
    scenarios.append(
        ("coincident", coincident, 0, DiscreteObject(rng.uniform(0, 1, size=(2, 2))))
    )

    points = UncertainDatabase(
        [DiscreteObject([p]) for p in ([0.2, 0.2], [0.4, 0.1], [0.5, 0.5], [0.9, 0.3])]
        + [DiscreteObject([[0.3, 0.3], [0.6, 0.6]], [0.5, 0.5])]
    )
    scenarios.append(("zero-extent", points, 2, DiscreteObject([[0.45, 0.4]])))

    # every distance below is a small integer: ties are exact in floating point
    ties = UncertainDatabase(
        [
            DiscreteObject([[0.0, -2.0]], label="target"),
            DiscreteObject([[2.0, 0.0]], label="tied"),
            DiscreteObject([[-2.0, 0.0], [0.0, 1.0]], [0.5, 0.5], label="tied-or-closer"),
            DiscreteObject([[0.0, 2.0], [0.0, 3.0]], [0.25, 0.75], label="tied-or-farther"),
            DiscreteObject([[1.0, 0.0]], label="closer"),
            DiscreteObject([[0.0, -2.0]], label="on-the-target"),
        ]
    )
    scenarios.append(("distance-ties", ties, 0, DiscreteObject([[0.0, 0.0]])))
    return scenarios


class TestTruncatedIDCAAgainstOracle:
    """Soundness of the compact ``k_cap`` representation at every iteration."""

    @pytest.mark.parametrize("k_cap", [0, 1, 3, 50])
    @pytest.mark.parametrize(
        "database, target, reference",
        [pytest.param(*s[1:], id=s[0]) for s in _oracle_scenarios()],
    )
    def test_every_iteration_brackets_the_exact_distribution(
        self, database, target, reference, k_cap
    ):
        slack = 1e-9
        others = len(database) - 1
        exact = exact_domination_count_pmf(
            database, database[target], reference, exclude_indices=[target]
        )
        exact_capped = exact_domination_count_pmf(
            database, database[target], reference, exclude_indices=[target], k_cap=k_cap
        )
        idca = IDCA(database, k_cap=k_cap, max_target_depth=4, max_reference_depth=4)
        run = idca.start_run(target, reference, max_iterations=6)
        previous = None
        while True:
            bounds = run.result.bounds
            assert len(bounds) == len(exact_capped) == min(others, k_cap + 1) + 1
            assert bounds.max_count == others
            top = min(k_cap, others)
            assert np.all(bounds.lower[: top + 1] <= exact[: top + 1] + slack)
            assert np.all(bounds.upper[: top + 1] >= exact[: top + 1] - slack)
            if k_cap < others:  # the overflow cell: P(count > k_cap)
                assert bounds.lower[-1] <= exact_capped[-1] + slack
                assert bounds.upper[-1] >= exact_capped[-1] - slack
                np.testing.assert_allclose(exact_capped[-1], exact[k_cap + 1 :].sum())
            widths = []
            for k in range(0, top + 2):
                lower, upper = bounds.less_than(k)
                truth = float(exact[:k].sum())
                assert lower <= truth + slack and truth <= upper + slack
                widths.append(upper - lower)
            widths.append(bounds.uncertainty())
            if previous is not None:
                assert all(now <= before + slack for now, before in zip(widths, previous))
            previous = widths
            if not run.step():
                break

    def test_filter_decides_when_certain_dominators_exceed_the_cap(self):
        """``k_cap < complete_count``: the shifted window lies outside the array."""
        near = [DiscreteObject([[0.1 * i, 0.0]]) for i in range(1, 6)]
        blurred = DiscreteObject([[0.55, 0.0], [0.65, 0.0]], [0.5, 0.5])
        target = DiscreteObject([[0.6, 0.0]])
        database = UncertainDatabase(near + [blurred, target])
        reference = DiscreteObject([[0.0, 0.0]])
        stop = ThresholdDecision(k=2, tau=0.5)
        result = IDCA(database, k_cap=2).domination_count(
            len(database) - 1, reference, stop=stop, max_iterations=4
        )
        assert result.complete_count == 5 and result.num_influence == 1
        assert len(result.bounds) == 4
        assert np.array_equal(result.bounds.upper, [0.0, 0.0, 0.0, 1.0])
        assert result.decision is False and result.num_iterations == 0
        # forcing a refinement step on that state must clip, not overrun
        forced = IDCA(database, k_cap=2).domination_count(
            len(database) - 1, reference, stop=MaxIterations(2), max_iterations=2
        )
        assert forced.num_iterations == 2
        assert np.array_equal(forced.bounds.upper, [0.0, 0.0, 0.0, 1.0])
        assert not forced.bounds.lower.any()


class TestIDCACriteria:
    def test_minmax_criterion_never_prunes_more(self):
        database = uniform_rectangle_database(150, max_extent=0.08, seed=4)
        reference = random_reference_object(extent=0.08, seed=5)
        target = target_by_mindist_rank(database, reference, rank=8)
        optimal = IDCA(database, criterion="optimal").domination_count(
            target, reference, stop=MaxIterations(0), max_iterations=0
        )
        minmax = IDCA(database, criterion="minmax").domination_count(
            target, reference, stop=MaxIterations(0), max_iterations=0
        )
        assert optimal.num_influence <= minmax.num_influence

    def test_threshold_decision_early_termination(self):
        database = uniform_rectangle_database(200, max_extent=0.01, seed=6)
        reference = random_reference_object(extent=0.01, seed=7)
        target = target_by_mindist_rank(database, reference, rank=3)
        idca = IDCA(database, k_cap=10)
        stop = ThresholdDecision(k=10, tau=0.5)
        result = idca.domination_count(
            target, reference, stop=stop, max_iterations=10
        )
        assert result.decision is True
        # the predicate for a rank-3 object and k=10 is decidable without any
        # refinement iteration in this easy configuration
        assert result.num_iterations == 0

    def test_threshold_decision_false(self):
        database = uniform_rectangle_database(200, max_extent=0.01, seed=8)
        reference = random_reference_object(extent=0.01, seed=9)
        target = target_by_mindist_rank(database, reference, rank=150)
        idca = IDCA(database, k_cap=2)
        result = idca.domination_count(
            target, reference, stop=ThresholdDecision(k=2, tau=0.5), max_iterations=10
        )
        assert result.decision is False
