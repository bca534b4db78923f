"""Unit tests for complete / probabilistic domination (Section III)."""

import numpy as np
import pytest

from repro.baselines import exact_pdom, monte_carlo_pdom
from repro.core import (
    complete_domination_filter,
    complete_domination_scan,
    pdom_bounds,
    pdom_bounds_from_partitions,
    probabilistic_domination_bounds,
)
from repro.core.domination import reference_min_dists
from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import KNNQuery, QueryEngine
from repro.geometry import Rectangle
from repro.uncertain import (
    BoxUniformObject,
    DecompositionTree,
    DiscreteObject,
    UncertainDatabase,
    Update,
)


def _box(lo, hi, **kwargs):
    return BoxUniformObject(Rectangle.from_bounds(lo, hi), **kwargs)


class TestCompleteDominationScan:
    def test_scan_classification(self):
        reference = Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]).to_array()
        target = Rectangle.from_bounds([5.0, 0.0], [6.0, 1.0]).to_array()
        candidates = np.stack(
            [
                Rectangle.from_bounds([1.5, 0.0], [2.0, 1.0]).to_array(),  # dominates
                Rectangle.from_bounds([20.0, 0.0], [21.0, 1.0]).to_array(),  # dominated
                Rectangle.from_bounds([4.0, 0.0], [7.0, 1.0]).to_array(),  # uncertain
            ]
        )
        dominating, dominated = complete_domination_scan(candidates, target, reference)
        np.testing.assert_array_equal(dominating, [True, False, False])
        np.testing.assert_array_equal(dominated, [False, True, False])

    def test_scan_minmax_weaker_or_equal(self):
        rng = np.random.default_rng(0)
        candidates = rng.uniform(0, 1, size=(100, 2, 1))
        candidates = np.concatenate(
            [candidates, candidates + rng.uniform(0.01, 0.2, size=(100, 2, 1))], axis=2
        )
        target = candidates[0]
        reference = candidates[1]
        opt_dom, _ = complete_domination_scan(candidates, target, reference, criterion="optimal")
        mm_dom, _ = complete_domination_scan(candidates, target, reference, criterion="minmax")
        # the optimal criterion detects at least every MinMax detection
        assert np.all(opt_dom[mm_dom])


class TestCompleteDominationFilter:
    def setup_method(self):
        self.reference = _box([0.0, 0.0], [1.0, 1.0], label="R")
        objects = [
            _box([1.5, 0.0], [2.0, 1.0], label="close"),      # always dominates target
            _box([20.0, 0.0], [21.0, 1.0], label="far"),       # never dominates target
            _box([4.0, 0.0], [7.0, 1.0], label="overlapping"),  # uncertain
            _box([5.0, 0.0], [6.0, 1.0], label="target"),
        ]
        self.database = UncertainDatabase(objects)
        self.target_index = 3

    def test_counts(self):
        result = complete_domination_filter(
            self.database,
            self.database[self.target_index],
            self.reference,
            exclude_indices={self.target_index},
        )
        assert result.complete_count == 1
        assert list(result.influence_indices) == [2]
        assert list(result.pruned_indices) == [1]
        assert result.num_influence == 1

    def test_exclusion_of_target(self):
        result = complete_domination_filter(
            self.database,
            self.database[self.target_index],
            self.reference,
            exclude_indices={self.target_index},
        )
        assert self.target_index not in result.influence_indices
        assert self.target_index not in result.pruned_indices

    def test_without_exclusion_target_participates(self):
        result = complete_domination_filter(
            self.database, self.database[self.target_index], self.reference
        )
        # the target never dominates itself, but it is not excluded either
        assert self.target_index in np.concatenate(
            [result.influence_indices, result.pruned_indices]
        )

    def test_partition_of_database(self):
        result = complete_domination_filter(
            self.database,
            self.database[self.target_index],
            self.reference,
            exclude_indices={self.target_index},
        )
        total = (
            result.complete_count
            + result.num_influence
            + len(result.pruned_indices)
        )
        assert total == len(self.database) - 1


def full_scan_filter(database, target, reference, exclude=(), p=2.0, criterion="optimal"):
    """The plain filter: the exact test on every object, no pre-screen."""
    dominating, dominated = complete_domination_scan(
        database.mbrs(), target.mbr.to_array(), reference.mbr.to_array(),
        p=p, criterion=criterion,
    )
    mask = np.ones(len(database), dtype=bool)
    mask[[i for i in exclude if 0 <= i < len(database)]] = False
    return (
        int(np.count_nonzero(dominating & mask)),
        np.flatnonzero(~dominating & ~dominated & mask),
        np.flatnonzero(dominated & ~dominating & mask),
    )


def assert_filter_equals_full_scan(database, target, reference, exclude=(), **config):
    result = complete_domination_filter(
        database, target, reference, exclude_indices=set(exclude), **config
    )
    complete, influence, pruned = full_scan_filter(
        database, target, reference, exclude, **config
    )
    assert result.complete_count == complete
    np.testing.assert_array_equal(result.influence_indices, influence)
    assert result.influence_indices.dtype == influence.dtype
    np.testing.assert_array_equal(result.pruned_indices, pruned)
    assert result.pruned_count == len(pruned)
    return result


class TestFilterPreScreenEquivalence:
    """The distance pre-screen must never change the classification."""

    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("dimensions, seed", [(2, 0), (2, 1), (3, 2), (1, 3)])
    def test_random_databases(self, dimensions, seed, p, criterion):
        database = uniform_rectangle_database(
            300, dimensions=dimensions, max_extent=0.08, seed=seed
        )
        rng = np.random.default_rng(seed)
        outside = [
            random_reference_object(dimensions=dimensions, extent=0.08, seed=seed + s)
            for s in (10, 11)
        ]
        inside = [int(i) for i in rng.choice(len(database), size=3, replace=False)]
        config = dict(p=p, criterion=criterion)
        # target and reference both database members (the RkNN shape)
        assert_filter_equals_full_scan(
            database, database[inside[0]], database[inside[1]],
            exclude=inside[:2], **config,
        )
        # target inside, reference outside (the kNN shape), extra exclusions
        assert_filter_equals_full_scan(
            database, database[inside[2]], outside[0],
            exclude=[inside[2], 0, 299, 10_000, -4], **config,
        )
        # both outside, nothing excluded
        assert_filter_equals_full_scan(database, outside[1], outside[0], **config)
        # the target nearest to the reference: almost everything is pre-screened
        nearest = int(np.argmin(reference_min_dists(database, outside[0], p)))
        result = assert_filter_equals_full_scan(
            database, database[nearest], outside[0], exclude=[nearest], **config
        )
        assert result.pruned_count > 0.5 * len(database)

    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_target_far_from_the_reference_keeps_everything(self, criterion):
        database = uniform_rectangle_database(200, max_extent=0.05, seed=4)
        reference = _box([0.45, 0.45], [0.5, 0.5])
        target = _box([30.0, 30.0], [31.0, 31.0])
        result = assert_filter_equals_full_scan(
            database, target, reference, criterion=criterion
        )
        assert result.complete_count == len(database)
        assert result.pruned_count == 0

    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_ties_at_the_pre_screen_boundary(self, p, criterion):
        """``MinDist(A, R)`` equal to, one ulp around and just past ``MaxDist(B, R)``."""
        reference = _box([0.0], [1.0])
        target = _box([2.0], [3.0])  # MaxDist(B, R) = 3
        edges = [3.0, np.nextafter(3.0, 0.0), np.nextafter(3.0, 9.0),
                 3.0 + 1e-12, 3.0 + 1e-8, 3.5, 2.0, 1.0]
        objects = [_box([1.0 + edge], [1.0 + edge + 0.25]) for edge in edges]
        objects += [_box([-edge - 0.25], [-edge]) for edge in edges]  # other side
        objects.append(_box([2.0], [3.0]))  # coincides with the target
        objects.append(_box([4.0], [4.0]))  # zero extent, touching MaxDist
        database = UncertainDatabase(objects)
        assert_filter_equals_full_scan(database, target, reference, p=p, criterion=criterion)

    def test_touching_rectangles_in_two_dimensions(self):
        reference = _box([0.0, 0.0], [1.0, 1.0])
        target = _box([1.0, 0.0], [2.0, 1.0])  # touches the reference
        objects = [
            _box([2.0, 0.0], [3.0, 1.0]),    # touches the target
            _box([0.0, 1.0], [1.0, 2.0]),    # touches the reference
            _box([0.25, 0.25], [0.5, 0.5]),  # inside the reference
            _box([0.0, 3.0], [1.0, 4.0]),
            _box([3.0, 3.0], [3.0, 3.0]),
        ]
        database = UncertainDatabase(objects)
        for criterion in ("optimal", "minmax"):
            assert_filter_equals_full_scan(database, target, reference, criterion=criterion)

    def test_zero_reach_target_coinciding_with_point_reference(self):
        reference = _box([0.5, 0.5], [0.5, 0.5])
        target = _box([0.5, 0.5], [0.5, 0.5])
        database = uniform_rectangle_database(50, max_extent=0.05, seed=6)
        assert_filter_equals_full_scan(database, target, reference)

    def test_supplied_profile_equals_computed_profile(self):
        database = uniform_rectangle_database(150, max_extent=0.08, seed=8)
        reference = random_reference_object(extent=0.08, seed=3)
        profile = reference_min_dists(database, reference, p=2.0)
        assert profile.shape == (len(database),)
        for target_index in (0, 17, 149):
            plain = complete_domination_filter(
                database, database[target_index], reference, {target_index}
            )
            profiled = complete_domination_filter(
                database, database[target_index], reference, {target_index},
                min_dists=profile,
            )
            assert plain.complete_count == profiled.complete_count
            np.testing.assert_array_equal(plain.influence_indices, profiled.influence_indices)

    def test_profile_of_another_snapshot_size_is_rejected(self):
        database = uniform_rectangle_database(20, seed=1)
        with pytest.raises(ValueError):
            complete_domination_filter(
                database, database[0], database[1], min_dists=np.zeros(19)
            )

    def test_infinite_p_is_still_rejected(self):
        database = uniform_rectangle_database(20, seed=1)
        with pytest.raises(ValueError):
            complete_domination_filter(database, database[0], database[1], p=float("inf"))

    def test_mutated_snapshot_with_the_same_reference_object(self):
        """The engine-side profile must follow the snapshot, not the reference."""
        database = uniform_rectangle_database(200, max_extent=0.08, seed=9)
        reference = random_reference_object(extent=0.08, seed=2)
        request = KNNQuery(reference, k=3, tau=0.5, max_iterations=3)

        def snapshot(result):
            return [
                (m.index, m.probability_lower, m.probability_upper, m.decision)
                for bucket in (result.matches, result.undecided, result.rejected)
                for m in bucket
            ] + [result.pruned]

        engine = QueryEngine(database)
        before = snapshot(engine.evaluate_many([request])[0])
        idca = engine.context.idca_for(engine.p, engine.criterion, k_cap=3,
                                       kernel_backend=engine.kernel_backend)
        profile_before = idca._min_dists_to(reference)
        assert idca._min_dists_to(reference) is profile_before  # reused within a snapshot

        # move the nearest neighbours of the query far away
        nearest = [entry[0] for entry in before[:-1]][:2]
        mutated = engine.apply_mutations(
            [Update(i, _box([5.0 + i, 5.0], [5.1 + i, 5.1])) for i in nearest]
        )
        after = snapshot(engine.evaluate_many([request])[0])
        assert idca._min_dists_to(reference) is not profile_before
        fresh = QueryEngine(UncertainDatabase(list(mutated.objects)))
        assert after == snapshot(fresh.evaluate_many([request])[0])
        assert after != before


class TestPDomBoundsFromPartitions:
    def test_complete_domination_gives_one_one(self):
        candidate = _box([1.5, 0.0], [2.0, 1.0])
        target = Rectangle.from_bounds([5.0, 0.0], [6.0, 1.0]).to_array()
        reference = Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]).to_array()
        regions, masses = DecompositionTree(candidate).partitions_arrays(0)
        lower, upper = pdom_bounds_from_partitions(regions, masses, target, reference)
        assert lower == pytest.approx(1.0)
        assert upper == pytest.approx(1.0)

    def test_complete_dominated_gives_zero_zero(self):
        candidate = _box([20.0, 0.0], [21.0, 1.0])
        target = Rectangle.from_bounds([5.0, 0.0], [6.0, 1.0]).to_array()
        reference = Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]).to_array()
        regions, masses = DecompositionTree(candidate).partitions_arrays(2)
        lower, upper = pdom_bounds_from_partitions(regions, masses, target, reference)
        assert lower == pytest.approx(0.0)
        assert upper == pytest.approx(0.0)

    def test_uncertain_case_gives_wide_bounds_at_depth_zero(self):
        candidate = _box([4.0, 0.0], [7.0, 1.0])
        target = Rectangle.from_bounds([5.0, 0.0], [6.0, 1.0]).to_array()
        reference = Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]).to_array()
        regions, masses = DecompositionTree(candidate).partitions_arrays(0)
        lower, upper = pdom_bounds_from_partitions(regions, masses, target, reference)
        assert lower == pytest.approx(0.0)
        assert upper == pytest.approx(1.0)

    def test_bounds_tighten_with_depth(self):
        candidate = _box([4.0, 0.0], [7.0, 1.0])
        target = Rectangle.from_bounds([5.5, 0.2], [5.6, 0.3]).to_array()
        reference = Rectangle.from_bounds([0.0, 0.0], [0.1, 0.1]).to_array()
        tree = DecompositionTree(candidate)
        widths = []
        for depth in (0, 2, 4, 6):
            regions, masses = tree.partitions_arrays(depth)
            lower, upper = pdom_bounds_from_partitions(regions, masses, target, reference)
            widths.append(upper - lower)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0]


class TestPDomBoundsObjects:
    def test_bounds_bracket_exact_discrete_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = DiscreteObject(rng.uniform(0, 1, size=(6, 2)), rng.uniform(0.1, 1, size=6))
            b = DiscreteObject(rng.uniform(0, 1, size=(5, 2)), rng.uniform(0.1, 1, size=5))
            r = DiscreteObject(rng.uniform(0, 1, size=(4, 2)), rng.uniform(0.1, 1, size=4))
            exact = exact_pdom(a, b, r)
            lower, upper = pdom_bounds(
                a, b, r, candidate_depth=4, target_depth=4, reference_depth=4
            )
            assert lower <= exact + 1e-9
            assert upper >= exact - 1e-9

    def test_bounds_bracket_monte_carlo_estimate_continuous(self):
        rng = np.random.default_rng(4)
        a = _box([0.2, 0.2], [0.5, 0.6])
        b = _box([0.4, 0.1], [0.9, 0.5])
        r = _box([0.0, 0.0], [0.3, 0.3])
        estimate = monte_carlo_pdom(a, b, r, samples=20000, rng=rng)
        lower, upper = probabilistic_domination_bounds(a, b, r, depth=5)
        assert lower - 0.02 <= estimate <= upper + 0.02

    def test_deeper_decomposition_never_loosens_bounds(self):
        a = _box([0.2, 0.2], [0.5, 0.6])
        b = _box([0.4, 0.1], [0.9, 0.5])
        r = _box([0.0, 0.0], [0.3, 0.3])
        previous_width = np.inf
        for depth in (0, 2, 4):
            lower, upper = probabilistic_domination_bounds(a, b, r, depth=depth)
            width = upper - lower
            assert width <= previous_width + 1e-9
            previous_width = width

    def test_upper_bound_complement_symmetry(self):
        """PDomUB(A, B, R) = 1 - PDomLB(B, A, R) (Lemma 2) at equal depths."""
        a = _box([0.1, 0.1], [0.4, 0.5])
        b = _box([0.3, 0.2], [0.8, 0.6])
        r = _box([0.0, 0.7], [0.2, 0.9])
        lower_ab, upper_ab = probabilistic_domination_bounds(a, b, r, depth=3)
        lower_ba, upper_ba = probabilistic_domination_bounds(b, a, r, depth=3)
        assert upper_ab <= 1.0 - lower_ba + 1e-9

    def test_certain_points_give_exact_zero_or_one(self):
        a = _box([1.0, 0.0], [1.0, 0.0])
        b = _box([2.0, 0.0], [2.0, 0.0])
        r = _box([0.0, 0.0], [0.0, 0.0])
        assert probabilistic_domination_bounds(a, b, r, depth=0) == (1.0, 1.0)
        assert probabilistic_domination_bounds(b, a, r, depth=0) == (0.0, 0.0)
