"""Tests for probabilistic distance-range queries."""

import math
import tracemalloc

import numpy as np
import pytest

import repro.queries.range as range_module
from repro.datasets import (
    discrete_sample_database,
    gaussian_object_database,
    random_reference_object,
    uniform_rectangle_database,
)
from repro.engine import QueryEngine
from repro.geometry import Rectangle, max_dist_arrays, min_dist_arrays
from repro.queries import probabilistic_range_query, probability_within_range
from repro.queries.range import range_bounds_csr
from repro.uncertain import (
    BoxUniformObject,
    DecompositionTree,
    DiscreteObject,
    PointObject,
    UncertainDatabase,
    csr_partitions,
    pairwise_distances,
)


def _box(lo, hi, **kwargs):
    return BoxUniformObject(Rectangle.from_bounds(lo, hi), **kwargs)


class TestProbabilityWithinRange:
    def test_certainly_inside(self):
        obj = _box([0.0, 0.0], [0.1, 0.1])
        query = PointObject([0.05, 0.05])
        lower, upper = probability_within_range(obj, query, epsilon=1.0)
        assert lower == pytest.approx(1.0)
        assert upper == pytest.approx(1.0)

    def test_certainly_outside(self):
        obj = _box([5.0, 5.0], [5.1, 5.1])
        query = PointObject([0.0, 0.0])
        lower, upper = probability_within_range(obj, query, epsilon=1.0)
        assert lower == pytest.approx(0.0)
        assert upper == pytest.approx(0.0)

    def test_uniform_box_analytic_probability(self):
        """For a 1-extent box and a point query the in-range mass is the overlap."""
        obj = _box([0.0, 0.0], [1.0, 0.0])  # a 1-D segment embedded in 2-D
        query = PointObject([0.0, 0.0])
        lower, upper = probability_within_range(obj, query, epsilon=0.25, max_depth=10)
        assert lower <= 0.25 + 1e-6
        assert upper >= 0.25 - 1e-6
        assert upper - lower < 0.05

    def test_bounds_bracket_monte_carlo(self):
        rng = np.random.default_rng(0)
        obj = _box([0.2, 0.3], [0.6, 0.8])
        query = _box([0.5, 0.5], [0.9, 0.9])
        epsilon = 0.3
        samples_a = obj.sample(20000, rng)
        samples_q = query.sample(20000, rng)
        estimate = float(np.mean(np.linalg.norm(samples_a - samples_q, axis=1) <= epsilon))
        lower, upper = probability_within_range(obj, query, epsilon, max_depth=6)
        assert lower - 0.02 <= estimate <= upper + 0.02

    def test_bounds_tighten_with_depth(self):
        obj = _box([0.0, 0.0], [1.0, 1.0])
        query = PointObject([0.5, 0.5])
        widths = []
        for depth in (0, 2, 4, 6):
            lower, upper = probability_within_range(obj, query, 0.4, max_depth=depth)
            widths.append(upper - lower)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0]

    def test_exact_for_discrete_objects(self):
        obj = DiscreteObject([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
        query = PointObject([0.0, 0.0])
        lower, upper = probability_within_range(obj, query, epsilon=0.5, max_depth=4)
        assert lower == pytest.approx(0.3)
        assert upper == pytest.approx(0.3)

    def test_negative_epsilon_raises(self):
        obj = _box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            probability_within_range(obj, obj, epsilon=-0.1)


class TestProbabilisticRangeQuery:
    def test_certain_data_matches_classic_range_query(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(50, 2))
        database = UncertainDatabase([PointObject(p) for p in points])
        query = PointObject([0.5, 0.5])
        epsilon = 0.3
        result = probabilistic_range_query(database, query, epsilon=epsilon, tau=0.5)
        expected = set(np.flatnonzero(np.linalg.norm(points - 0.5, axis=1) <= epsilon))
        assert set(result.result_indices()) == expected
        assert not result.undecided

    def test_result_accounting(self):
        database = uniform_rectangle_database(80, max_extent=0.05, seed=2)
        query = PointObject([0.5, 0.5])
        result = probabilistic_range_query(database, query, epsilon=0.2, tau=0.5)
        assert result.candidate_count() + result.pruned == len(database)

    def test_monotone_in_epsilon(self):
        database = uniform_rectangle_database(80, max_extent=0.05, seed=3)
        query = PointObject([0.5, 0.5])
        small = probabilistic_range_query(database, query, epsilon=0.1, tau=0.5)
        large = probabilistic_range_query(database, query, epsilon=0.3, tau=0.5)
        assert set(small.result_indices()) <= set(
            large.result_indices() + [m.index for m in large.undecided]
        )

    def test_query_as_index_is_excluded(self):
        database = uniform_rectangle_database(30, max_extent=0.05, seed=4)
        result = probabilistic_range_query(database, 5, epsilon=0.5, tau=0.5)
        assert 5 not in [m.index for m in result.all_evaluated()]

    def test_uncertain_matches_have_bracketing_bounds(self):
        database = uniform_rectangle_database(80, max_extent=0.2, seed=5)
        query = _box([0.45, 0.45], [0.55, 0.55])
        result = probabilistic_range_query(database, query, epsilon=0.15, tau=0.5)
        for match in result.all_evaluated():
            assert 0.0 <= match.probability_lower <= match.probability_upper <= 1.0
        for match in result.matches:
            assert match.probability_lower >= 0.5 - 1e-9
        for match in result.rejected:
            assert match.probability_upper <= 0.5 + 1e-9

    def test_invalid_parameters_raise(self):
        database = uniform_rectangle_database(10, seed=6)
        query = PointObject([0.5, 0.5])
        with pytest.raises(ValueError):
            probabilistic_range_query(database, query, epsilon=-1.0, tau=0.5)
        with pytest.raises(ValueError):
            probabilistic_range_query(database, query, epsilon=0.1, tau=1.5)


# --------------------------------------------------------------------- #
# soundness against the exact discrete oracle
# --------------------------------------------------------------------- #
SLACK = 1e-12
NORMS = (1.0, 2.0, 3.0, math.inf)


def _discrete(rng, d, spread=0.3, size=None):
    size = int(rng.integers(1, 6)) if size is None else size
    points = rng.uniform(0.0, 1.0, d) + rng.uniform(-spread, spread, (size, d))
    return DiscreteObject(points, rng.uniform(0.1, 1.0, size))


def _exact(obj, query, epsilon, p):
    """``P(dist <= epsilon) = w_A . [pairwise_distances <= epsilon] . w_Q``."""
    within = pairwise_distances(obj.points, query.points, p) <= epsilon
    return float(obj.weights @ within @ query.weights)


def _assert_brackets(lower, exact, upper):
    assert -SLACK <= lower <= exact + SLACK
    assert exact - SLACK <= upper <= 1.0 + SLACK


def _assert_decisions_sound(result, database, query, epsilon, tau, p):
    evaluated = {m.index for m in result.all_evaluated()}
    for match in result.all_evaluated():
        exact = _exact(database[match.index], query, epsilon, p)
        _assert_brackets(match.probability_lower, exact, match.probability_upper)
        if match.decision is True:
            assert exact >= tau - SLACK
        elif match.decision is False:
            assert exact < tau + SLACK
    for index in set(range(len(database))) - evaluated:  # pruned by the filter
        assert _exact(database[index], query, epsilon, p) <= SLACK


class TestRangeSoundness:
    """``lower <= exact <= upper`` for every depth, norm and dimension."""

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("p", NORMS)
    def test_bounds_bracket_exact_and_tighten_with_depth(self, p, d):
        rng = np.random.default_rng(int(10 * d + (9 if math.isinf(p) else p)))
        for _ in range(3):
            query = _discrete(rng, d)
            objects = [_discrete(rng, d) for _ in range(6)]
            distances = np.concatenate(
                [pairwise_distances(o.points, query.points, p).ravel() for o in objects]
            )
            # an attained pairwise distance makes epsilon an exact tie
            for epsilon in (0.0, float(rng.choice(distances)), float(rng.uniform(0.0, 0.8))):
                query_tree = DecompositionTree(query)
                for obj in objects:
                    exact = _exact(obj, query, epsilon, p)
                    tree = DecompositionTree(obj)
                    widths = []
                    for depth in range(7):
                        lower, upper = probability_within_range(
                            obj, query, epsilon, p=p, max_depth=depth,
                            object_tree=tree, query_tree=query_tree,
                        )
                        _assert_brackets(lower, exact, upper)
                        widths.append(upper - lower)
                    assert all(b <= a + SLACK for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("p", NORMS)
    def test_engine_decisions_agree_with_exact(self, p, d):
        rng = np.random.default_rng(int(100 * d + (9 if math.isinf(p) else p)))
        database = UncertainDatabase([_discrete(rng, d, spread=0.15) for _ in range(12)])
        query = _discrete(rng, d, spread=0.15)
        engine = QueryEngine(database, p=p)
        for epsilon in (0.0, 0.2, 0.45):
            for depth in (0, 3, 6):
                for tau in (0.0, 0.3, 0.7, 1.0):
                    result = engine.range(query, epsilon=epsilon, tau=tau, max_depth=depth)
                    assert result.candidate_count() + result.pruned == len(database)
                    _assert_decisions_sound(result, database, query, epsilon, tau, p)

    @pytest.mark.parametrize("p", NORMS)
    def test_point_objects_are_exact_at_every_depth(self, p):
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 1.0, (8, 2))
        query = PointObject(points[0])
        # epsilon exactly equal to an attained distance must count as inside
        epsilon = float(pairwise_distances(points[3:4], points[0:1], p)[0, 0])
        for obj in (PointObject(point) for point in points):
            exact = _exact(obj, query, epsilon, p)
            for depth in (0, 6):
                assert probability_within_range(
                    obj, query, epsilon, p=p, max_depth=depth
                ) == (exact, exact)
        database = UncertainDatabase([PointObject(point) for point in points])
        result = QueryEngine(database, p=p).range(query, epsilon=epsilon, tau=0.5)
        _assert_decisions_sound(result, database, query, epsilon, 0.5, p)
        assert not result.undecided

    def test_zero_epsilon_and_coincident_objects(self):
        query = DiscreteObject([[0.2, 0.2], [0.5, 0.5], [0.9, 0.1]], [0.5, 0.3, 0.2])
        twin = DiscreteObject(query.points, [0.2, 0.3, 0.5])
        database = UncertainDatabase([twin, DiscreteObject(query.points, [0.2, 0.3, 0.5])])
        exact = _exact(twin, query, 0.0, 2.0)
        assert exact == pytest.approx(0.5 * 0.2 + 0.3 * 0.3 + 0.2 * 0.5)
        lower, upper = probability_within_range(twin, query, 0.0, max_depth=6)
        assert lower == pytest.approx(exact, abs=SLACK)
        assert upper == pytest.approx(exact, abs=SLACK)
        result = QueryEngine(database).range(query, epsilon=0.0, tau=0.25, max_depth=6)
        first, second = sorted(result.all_evaluated(), key=lambda m: m.index)
        assert (first.probability_lower, first.probability_upper) == (
            second.probability_lower,
            second.probability_upper,
        )
        _assert_decisions_sound(result, database, query, 0.0, 0.25, 2.0)


# --------------------------------------------------------------------- #
# referee: the batched program against the per-partition loop it replaced
# --------------------------------------------------------------------- #
def _partition_loop(object_tree, query_tree, epsilon, p, max_depth):
    """The per-query-partition loop ``probability_within_range`` ran in 1.10."""
    obj_regions, obj_masses = object_tree.partitions_arrays(max_depth)
    query_regions, query_masses = query_tree.partitions_arrays(max_depth)
    lower = 0.0
    upper = 0.0
    for q_idx in range(query_regions.shape[0]):
        q_mass = float(query_masses[q_idx])
        if q_mass <= 0.0:
            continue
        min_d = min_dist_arrays(obj_regions, query_regions[q_idx], p)
        max_d = max_dist_arrays(obj_regions, query_regions[q_idx], p)
        lower += q_mass * float(obj_masses[max_d <= epsilon].sum())
        upper += q_mass * float(obj_masses[min_d <= epsilon].sum())
    lower = min(max(lower, 0.0), 1.0)
    return lower, min(max(upper, lower), 1.0)


def _mixed_database():
    objects = list(uniform_rectangle_database(14, max_extent=0.25, seed=11))
    objects += list(gaussian_object_database(8, max_std=0.06, seed=12))
    objects += list(discrete_sample_database(8, samples_per_object=5, max_extent=0.3, seed=13))
    return UncertainDatabase(objects)


def _batch_bounds(trees, query_tree, epsilon, p, depth):
    return range_bounds_csr(
        csr_partitions(trees, [depth] * len(trees)),
        *query_tree.partitions_arrays(depth),
        epsilon,
        p,
    )


class TestRangeReferee:
    @pytest.mark.parametrize("p", (1.0, 2.0, math.inf))
    @pytest.mark.parametrize("depth", (0, 4, 6))
    def test_matches_partition_loop_within_tolerance(self, p, depth):
        database = _mixed_database()
        query = random_reference_object(extent=0.2, seed=21)
        engine = QueryEngine(database, p=p)
        query_tree = engine.context.tree_for(query)
        for epsilon in (0.15, 0.3):
            for tau in (0.2, 0.5, 0.8):
                result = engine.range(query, epsilon=epsilon, tau=tau, max_depth=depth)
                for match in result.all_evaluated():
                    tree = engine.context.tree_for(database[match.index])
                    lower, upper = _partition_loop(tree, query_tree, epsilon, p, depth)
                    assert abs(match.probability_lower - lower) <= SLACK
                    assert abs(match.probability_upper - upper) <= SLACK
                    if min(abs(lower - tau), abs(upper - tau)) > SLACK:
                        old = True if lower >= tau else False if upper < tau else None
                        assert match.decision is old

    def test_batch_composition_is_bit_identical(self, monkeypatch):
        database = _mixed_database()
        query_tree = DecompositionTree(random_reference_object(extent=0.3, seed=22))
        trees = [DecompositionTree(obj) for obj in database]
        # mixed depths give ragged segments; depth 7 makes 128-row candidates
        for depth, epsilon, p in ((5, 0.2, 2.0), (7, 0.35, 3.0), (6, 0.25, math.inf)):
            lower, upper = _batch_bounds(trees, query_tree, epsilon, p, depth)
            for i, tree in enumerate(trees):
                alone = _batch_bounds([tree], query_tree, epsilon, p, depth)
                assert (alone[0][0], alone[1][0]) == (lower[i], upper[i])
            order = np.random.default_rng(depth).permutation(len(trees))
            shuffled = _batch_bounds([trees[i] for i in order], query_tree, epsilon, p, depth)
            assert np.array_equal(shuffled[0], lower[order])
            assert np.array_equal(shuffled[1], upper[order])
            # force candidate slab boundaries, then query-partition blocks
            for cells in (4096, 300, 7):
                monkeypatch.setattr(range_module, "_SLAB_CELLS", cells)
                slabbed = _batch_bounds(trees, query_tree, epsilon, p, depth)
                assert np.array_equal(slabbed[0], lower)
                assert np.array_equal(slabbed[1], upper)
            monkeypatch.undo()

    def test_empty_batch_and_massless_query(self):
        query_tree = DecompositionTree(PointObject([0.5, 0.5]))
        lower, upper = _batch_bounds([], query_tree, 0.1, 2.0, 4)
        assert lower.shape == upper.shape == (0,)
        tree = DecompositionTree(_box([0.4, 0.4], [0.6, 0.6]))
        regions, masses = query_tree.partitions_arrays(4)
        lower, upper = range_bounds_csr(
            csr_partitions([tree], [4]), regions, np.zeros_like(masses), 0.1
        )
        assert (lower[0], upper[0]) == (0.0, 0.0)

    def test_depth_ten_runs_in_bounded_temporaries(self):
        """1024 x 1024 partition pairs without materialising them at once."""
        obj = _box([0.0, 0.0], [0.5, 0.4])
        query = _box([0.3, 0.2], [0.7, 0.9])
        object_tree, query_tree = DecompositionTree(obj), DecompositionTree(query)
        object_tree.partitions_arrays(10)
        query_tree.partitions_arrays(10)
        tracemalloc.start()
        try:
            lower, upper = probability_within_range(
                obj, query, 0.3, max_depth=10, object_tree=object_tree, query_tree=query_tree
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unslabbed (1024, 1024, 2) float temporary alone is 16 MiB
        assert peak < 12 * 2**20
        old = _partition_loop(object_tree, query_tree, 0.3, 2.0, 10)
        assert abs(lower - old[0]) <= SLACK and abs(upper - old[1]) <= SLACK
        assert 0.0 < lower < upper < 1.0
