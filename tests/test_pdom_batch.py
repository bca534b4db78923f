"""Tests for the batched pair-bounds kernel layer.

Covers the broadcasting edge cases of ``domination_bulk`` and of the CSR
kernel ``pdom_bounds_csr`` (zero-mass rows, degenerate rectangles, ``p = 1``
and ``p = inf``, empty and zero-partition candidates), the batched UGF /
domination-count aggregation, and property tests asserting the kernel
results equal the scalar reference loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IDCA,
    MaxIterations,
    combine_weighted_bounds,
    combine_weighted_bounds_arrays,
    domination_count_bounds,
    domination_count_bounds_batch,
    pdom_bounds_from_partitions,
    ugf_pmf_bounds_batch,
)
from repro.core.generating_functions import (
    UncertainGeneratingFunction,
    poisson_binomial_pmf,
)
from repro.core.kernels import pdom_bounds_csr
from repro.datasets import (
    discrete_sample_database,
    random_reference_object,
    uniform_rectangle_database,
)
from repro.geometry import domination_bulk
from repro.uncertain import DecompositionTree, clear_csr_cache, csr_partitions_batch


def _random_rects(rng, shape):
    """Random rectangles of the given leading shape, as (..., d, 2) arrays."""
    lows = rng.uniform(0.0, 1.0, size=shape + (2,))
    extents = rng.uniform(0.0, 0.3, size=shape + (2,))
    rects = np.empty(shape + (2, 2))
    rects[..., 0] = lows
    rects[..., 1] = lows + extents
    return rects


def _scalar_reference(parts, target_regions, reference_regions, p=2.0, criterion="optimal"):
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    lower = np.empty((num_pairs, len(parts)))
    upper = np.empty((num_pairs, len(parts)))
    pair = 0
    for b_idx in range(target_regions.shape[0]):
        for r_idx in range(reference_regions.shape[0]):
            for c_idx, (regions, masses) in enumerate(parts):
                lower[pair, c_idx], upper[pair, c_idx] = pdom_bounds_from_partitions(
                    regions,
                    masses,
                    target_regions[b_idx],
                    reference_regions[r_idx],
                    p=p,
                    criterion=criterion,
                )
            pair += 1
    return lower, upper


class TestDominationBulkBroadcasting:
    def test_broadcast_reference_grid(self):
        """r_rect may be a full grid, not just a single rectangle."""
        rng = np.random.default_rng(0)
        a = _random_rects(rng, (1, 1, 3, 4))
        b = _random_rects(rng, (2, 1, 1, 1))
        r = _random_rects(rng, (1, 5, 1, 1))
        result = domination_bulk(a, b, r)
        assert result.shape == (2, 5, 3, 4)
        # every entry must match the scalar-reference call
        for bi in range(2):
            for ri in range(5):
                expected = domination_bulk(a[0, 0], b[bi, 0, 0, 0], r[0, ri, 0, 0])
                assert np.array_equal(result[bi, ri], expected)

    def test_degenerate_point_rectangles(self):
        """Zero-extent rectangles (points) are legal on every operand."""
        point_a = np.array([[0.1, 0.1], [0.2, 0.2]])
        point_b = np.array([[0.9, 0.9], [0.8, 0.8]])
        point_r = np.array([[0.1, 0.1], [0.2, 0.2]])
        assert bool(domination_bulk(point_a, point_b, point_r))
        assert not bool(domination_bulk(point_b, point_a, point_r))

    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_p1_matches_scalar(self, criterion):
        rng = np.random.default_rng(1)
        a = _random_rects(rng, (6,))
        b = _random_rects(rng, ())
        r = _random_rects(rng, ())
        bulk = domination_bulk(a, b, r, p=1.0, criterion=criterion)
        for i in range(6):
            assert bulk[i] == bool(domination_bulk(a[i], b, r, p=1.0, criterion=criterion))

    def test_p_inf_raises(self):
        rng = np.random.default_rng(2)
        a = _random_rects(rng, (2,))
        with pytest.raises(ValueError):
            domination_bulk(a, a[0], a[1], p=math.inf)


def _csr(parts):
    """Concatenate per-candidate ``(regions, masses)`` pairs into CSR arrays."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    for i, (_, masses) in enumerate(parts):
        offsets[i + 1] = offsets[i] + masses.shape[0]
    regions = np.concatenate([regions for regions, _ in parts])
    masses = np.concatenate([masses for _, masses in parts])
    return regions, masses, offsets


def _fold_reference(parts, target_regions, reference_regions, p=2.0, criterion="optimal"):
    """The scalar loop's verdicts reduced by a plain Python left fold.

    Each candidate's masses are added one at a time in row order — the
    summation order the CSR kernel promises — so the kernel must match this
    bit for bit on any masses, dyadic or not.
    """
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    lower = np.empty((num_pairs, len(parts)))
    upper = np.empty((num_pairs, len(parts)))
    pair = 0
    for target in target_regions:
        for reference in reference_regions:
            for c_idx, (regions, masses) in enumerate(parts):
                dominating = domination_bulk(regions, target, reference, p, criterion)
                dominated = domination_bulk(target, regions, reference, p, criterion)
                low = dominated_mass = total = 0.0
                for row, mass in enumerate(masses):
                    total += mass
                    if dominating[row]:
                        low += mass
                    if dominated[row]:
                        dominated_mass += mass
                low = min(max(low, 0.0), 1.0)
                lower[pair, c_idx] = low
                upper[pair, c_idx] = min(max(total - dominated_mass, low), 1.0)
            pair += 1
    return lower, upper


class TestPartitionsArrays:
    def test_repeat_calls_return_the_cached_arrays(self):
        """The arrays at a depth are built once and shared by every caller."""
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[0])
        first = tree.partitions_arrays(2)
        second = tree.partitions_arrays(2)
        assert first[0] is second[0] and first[1] is second[1]
        assert tree.partitions_arrays(1)[0] is not first[0]

    def test_arrays_mirror_the_partition_list(self):
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[1])
        regions, masses = tree.partitions_arrays(3)
        parts = tree.partitions(3)
        assert regions.shape == (len(parts), database[1].dimensions, 2)
        assert masses.shape == (len(parts),)
        for row, part in enumerate(parts):
            assert np.array_equal(regions[row, :, 0], part.region.lows)
            assert np.array_equal(regions[row, :, 1], part.region.highs)
            assert masses[row] == part.probability
        assert math.isclose(masses.sum(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_depth_is_clamped_to_max_depth(self):
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[2], max_depth=2)
        assert tree.partitions_arrays(5)[0] is tree.partitions_arrays(2)[0]

    def test_negative_depth_raises(self):
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        with pytest.raises(ValueError):
            DecompositionTree(database[0]).partitions_arrays(-1)


class TestPdomBoundsBatch:
    def test_zero_mass_rows_cannot_change_bounds(self):
        """Degenerate zero-mass point rows appended to every candidate's
        segment leave every column bit-identical."""
        database = uniform_rectangle_database(6, max_extent=0.08, seed=4)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.08, seed=5))
        target_regions, _ = target.partitions_arrays(1)
        reference_regions, _ = target.partitions_arrays(0)
        parts = [tree.partitions_arrays(3) for tree in trees]
        for extra in (0, 9):
            padded = [
                (
                    np.concatenate([regions, np.zeros((extra,) + regions.shape[1:])]),
                    np.concatenate([masses, np.zeros(extra)]),
                )
                for regions, masses in parts
            ]
            lower, upper = pdom_bounds_csr(
                *_csr(padded), target_regions, reference_regions
            )
            if extra == 0:
                base = (lower, upper)
        assert np.array_equal(base[0], lower)
        assert np.array_equal(base[1], upper)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_property_batch_equals_scalar_loop(self, p, criterion):
        """The batched kernel reproduces the scalar triple loop."""
        database = uniform_rectangle_database(12, max_extent=0.06, seed=6)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.06, seed=7))
        reference = DecompositionTree(random_reference_object(extent=0.06, seed=8))
        target_regions, _ = target.partitions_arrays(2)
        reference_regions, _ = reference.partitions_arrays(1)
        # mixed adaptive depths exercise the ragged segments
        depths = [1 + (i % 4) for i in range(len(trees))]
        parts = [tree.partitions_arrays(d) for tree, d in zip(trees, depths)]
        batch = csr_partitions_batch(trees, depths)
        batch_lower, batch_upper = pdom_bounds_csr(
            batch.regions,
            batch.masses,
            batch.offsets,
            target_regions,
            reference_regions,
            p=p,
            criterion=criterion,
        )
        scalar_lower, scalar_upper = _scalar_reference(
            parts, target_regions, reference_regions, p=p, criterion=criterion
        )
        # summation re-association may differ by ULPs, nothing more
        np.testing.assert_allclose(batch_lower, scalar_lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch_upper, scalar_upper, rtol=0, atol=1e-12)
        assert np.all(batch_lower <= batch_upper)
        assert np.all(batch_lower >= 0.0) and np.all(batch_upper <= 1.0)

    def test_discrete_objects_supported(self):
        """Non-dyadic partition masses (discrete objects) stay consistent."""
        database = discrete_sample_database(
            num_objects=5, samples_per_object=7, max_extent=0.3, seed=9
        )
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(database[0])
        target_regions, _ = target.partitions_arrays(1)
        parts = [tree.partitions_arrays(2) for tree in trees]
        batch = csr_partitions_batch(trees, [2] * len(trees))
        batch_lower, batch_upper = pdom_bounds_csr(
            batch.regions,
            batch.masses,
            batch.offsets,
            target_regions,
            target_regions[:1],
        )
        scalar_lower, scalar_upper = _scalar_reference(
            parts, target_regions, target_regions[:1]
        )
        np.testing.assert_allclose(batch_lower, scalar_lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch_upper, scalar_upper, rtol=0, atol=1e-12)

    def test_p_inf_raises(self):
        database = uniform_rectangle_database(2, max_extent=0.1, seed=10)
        tree = DecompositionTree(database[0])
        regions, masses = tree.partitions_arrays(1)
        with pytest.raises(ValueError):
            pdom_bounds_csr(
                *_csr([(regions, masses)]),
                regions[:1],
                regions[:1],
                p=math.inf,
            )

    def test_empty_candidate_batch(self):
        lower, upper = pdom_bounds_csr(
            np.empty((0, 2, 2)),
            np.empty(0),
            np.zeros(1, dtype=np.int64),
            np.zeros((2, 2, 2)),
            np.zeros((3, 2, 2)),
        )
        assert lower.shape == (6, 0) and upper.shape == (6, 0)

    def test_bad_offsets_raise(self):
        regions = np.zeros((6, 2, 2))
        masses = np.zeros(6)
        grid = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):  # a negative partition count
            pdom_bounds_csr(regions, masses, np.array([0, 4, 3, 6]), grid, grid)
        with pytest.raises(ValueError):  # more partitions than rows
            pdom_bounds_csr(regions, masses, np.array([0, 4, 7]), grid, grid)

    def test_zero_partition_candidate_gets_scalar_bounds(self):
        """A massless candidate yields (0, 0) exactly like the scalar path."""
        rng = np.random.default_rng(20)
        regions = _random_rects(rng, (3,))
        masses = np.array([0.25, 0.25, 0.5])
        grid = _random_rects(rng, (2,))
        parts = [(regions, masses), (regions[:0], masses[:0])]
        lower, upper = pdom_bounds_csr(*_csr(parts), grid, grid[:1])
        assert np.all(lower[:, 1] == 0.0) and np.all(upper[:, 1] == 0.0)
        scalar = _scalar_reference(parts, grid, grid[:1])
        np.testing.assert_allclose(lower, scalar[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, scalar[1], rtol=0, atol=1e-12)

    def test_negligible_existence_probability_influence_object(self):
        """Regression: an influence object whose decomposition has no mass
        (existence probability below the partition mass epsilon) must not
        crash the kernel path — the scalar path completed such queries."""
        from repro.geometry import Interval, Rectangle
        from repro.uncertain import BoxUniformObject, UncertainDatabase

        def box(lo, hi, existence=1.0, label=""):
            return BoxUniformObject(
                Rectangle((Interval(lo[0], hi[0]), Interval(lo[1], hi[1]))),
                label=label,
                existence_probability=existence,
            )

        database = UncertainDatabase(
            [
                box((0.1, 0.1), (0.3, 0.3), label="near"),
                box((0.35, 0.35), (0.55, 0.55), existence=1e-16, label="ghost"),
                box((0.4, 0.4), (0.6, 0.6), label="mid"),
            ]
        )
        target = box((0.45, 0.45), (0.65, 0.65), label="target")
        reference = box((0.0, 0.0), (0.2, 0.2), label="reference")
        result = IDCA(database).domination_count(
            target, reference, stop=MaxIterations(3), max_iterations=3
        )
        assert result.num_iterations >= 1
        assert np.all(result.bounds.lower <= result.bounds.upper)


class TestCSRKernelParity:
    """The CSR kernel against the scalar reference: bit-for-bit on dyadic
    (uniform-database) masses, and bit-for-bit against the scalar verdicts
    reduced by a plain left fold on any masses."""

    def _uniform_fixture(self, seed=21, num=10):
        database = uniform_rectangle_database(num, max_extent=0.06, seed=seed)
        trees = [DecompositionTree(obj) for obj in database]
        depths = [1 + (i % 4) for i in range(len(trees))]
        target = DecompositionTree(random_reference_object(extent=0.06, seed=seed + 1))
        reference = DecompositionTree(random_reference_object(extent=0.06, seed=seed + 2))
        target_regions, _ = target.partitions_arrays(2)
        reference_regions, _ = reference.partitions_arrays(1)
        return trees, depths, target_regions, reference_regions

    def _discrete_fixture(self, seed=23):
        database = discrete_sample_database(
            num_objects=6, samples_per_object=7, max_extent=0.3, seed=seed
        )
        trees = [DecompositionTree(obj) for obj in database]
        depths = [1 + (i % 4) for i in range(len(trees))]
        target = DecompositionTree(database[0])
        target_regions, _ = target.partitions_arrays(1)
        return trees, depths, target_regions, target_regions[:1]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_csr_matches_left_fold_bit_for_bit(self, p, criterion):
        """The kernel's strict sequential fold is exact, always — including
        on non-dyadic (discrete) masses, where ``np.sum``'s pairwise blocking
        would re-associate."""
        for fixture in (self._uniform_fixture, self._discrete_fixture):
            trees, depths, target_regions, reference_regions = fixture()
            batch = csr_partitions_batch(trees, depths)
            lower, upper = pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions, p=p, criterion=criterion,
            )
            parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
            lower_ref, upper_ref = _fold_reference(
                parts, target_regions, reference_regions, p=p, criterion=criterion
            )
            assert np.array_equal(lower, lower_ref)
            assert np.array_equal(upper, upper_ref)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_csr_matches_scalar_bit_for_bit_on_uniform(self, p, criterion):
        """On dyadic masses every summation order is exact, so the CSR
        kernel and the scalar loop agree bit-for-bit."""
        trees, depths, target_regions, reference_regions = self._uniform_fixture()
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets,
            target_regions, reference_regions, p=p, criterion=criterion,
        )
        parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
        lower_ref, upper_ref = _scalar_reference(
            parts, target_regions, reference_regions, p=p, criterion=criterion
        )
        assert np.array_equal(lower, lower_ref)
        assert np.array_equal(upper, upper_ref)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_csr_matches_scalar_on_discrete(self, p, criterion):
        """On non-dyadic masses the fold order differs from np.sum's pairwise
        blocking, so CSR vs scalar is exact only to re-association."""
        trees, depths, target_regions, reference_regions = self._discrete_fixture()
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets,
            target_regions, reference_regions, p=p, criterion=criterion,
        )
        parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
        lower_ref, upper_ref = _scalar_reference(
            parts, target_regions, reference_regions, p=p, criterion=criterion
        )
        np.testing.assert_allclose(lower, lower_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, upper_ref, rtol=0, atol=1e-12)

    def _grid_fixture(self, depths, seed=13):
        """Candidates at ``depths`` against a 4 x 4 target/reference pair grid."""
        database = uniform_rectangle_database(len(depths), max_extent=0.05, seed=seed)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.05, seed=seed + 1))
        reference = DecompositionTree(random_reference_object(extent=0.05, seed=seed + 2))
        return trees, target.partitions_arrays(2)[0], reference.partitions_arrays(2)[0]

    @pytest.mark.parametrize("depth", [5, 6])
    def test_csr_matches_scalar_at_deep_candidate_depths(self, depth):
        """32 and 64 partitions per candidate: the CSR kernel stays within
        summation re-association of the scalar loop."""
        depths = [depth] * 8
        trees, target_regions, reference_regions = self._grid_fixture(depths)
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets, target_regions, reference_regions
        )
        parts = [t.partitions_arrays(depth) for t in trees]
        lower_ref, upper_ref = _scalar_reference(parts, target_regions, reference_regions)
        np.testing.assert_allclose(lower, lower_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, upper_ref, rtol=0, atol=1e-12)

    def test_csr_cache_cold_and_warm_match_scalar(self):
        """Depths cycling 1..5 (2..32 partitions): the kernel returns the
        same bounds from two builds of one CSR batch, within
        re-association of the scalar loop."""
        depths = [1 + (i % 5) for i in range(15)]
        trees, target_regions, reference_regions = self._grid_fixture(depths)
        parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
        lower_ref, upper_ref = _scalar_reference(parts, target_regions, reference_regions)

        def csr():
            batch = csr_partitions_batch(trees, depths)
            return pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions,
            )

        clear_csr_cache()
        cold = csr()
        warm = csr()
        assert np.array_equal(cold[0], warm[0])
        assert np.array_equal(cold[1], warm[1])
        np.testing.assert_allclose(cold[0], lower_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cold[1], upper_ref, rtol=0, atol=1e-12)

    def test_zero_partition_candidate_gets_scalar_bounds(self):
        """An empty CSR segment yields the (0, 0) bounds of the scalar path."""
        rng = np.random.default_rng(24)
        regions = _random_rects(rng, (3,))
        masses = np.array([0.25, 0.25, 0.5])
        offsets = np.array([0, 3, 3], dtype=np.int64)  # candidate 1 is empty
        grid = _random_rects(rng, (2,))
        lower, upper = pdom_bounds_csr(regions, masses, offsets, grid, grid[:1])
        assert np.all(lower[:, 1] == 0.0) and np.all(upper[:, 1] == 0.0)
        scalar = _scalar_reference(
            [(regions, masses), (regions[:0], masses[:0])], grid, grid[:1]
        )
        assert np.array_equal(lower, scalar[0])
        assert np.array_equal(upper, scalar[1])

    def test_empty_candidate_batch(self):
        batch = csr_partitions_batch([], [])
        grid_b = np.zeros((2, 2, 2))
        grid_r = np.zeros((3, 2, 2))
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets, grid_b, grid_r
        )
        assert lower.shape == (6, 0) and upper.shape == (6, 0)

    def test_invalid_p_raises(self):
        rng = np.random.default_rng(25)
        regions = _random_rects(rng, (2,))
        masses = np.array([0.5, 0.5])
        offsets = np.array([0, 2], dtype=np.int64)
        grid = _random_rects(rng, (1,))
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid, grid, p=math.inf)
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid, grid, p=0.5)
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid, grid, criterion="bogus")

    def test_malformed_csr_raises(self):
        rng = np.random.default_rng(26)
        regions = _random_rects(rng, (3,))
        masses = np.array([0.25, 0.25, 0.5])
        grid = _random_rects(rng, (1,))
        with pytest.raises(ValueError):  # offsets must end at total_partitions
            pdom_bounds_csr(regions, masses, np.array([0, 2]), grid, grid)
        with pytest.raises(ValueError):  # non-monotone offsets
            pdom_bounds_csr(regions, masses, np.array([0, 2, 1, 3]), grid, grid)
        with pytest.raises(ValueError):  # masses/regions row mismatch
            pdom_bounds_csr(regions, masses[:2], np.array([0, 2]), grid, grid)


class TestKernelProperties:
    """Structural promises of the CSR kernel: refinement only tightens,
    columns belong to their own candidate, and pair rows are target-major."""

    def _fixture(self, seed=40, num=8):
        database = uniform_rectangle_database(num, max_extent=0.08, seed=seed)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.08, seed=seed + 1))
        reference = DecompositionTree(random_reference_object(extent=0.08, seed=seed + 2))
        return trees, target.partitions_arrays(1)[0], reference.partitions_arrays(1)[0]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_refining_candidates_never_loosens_bounds(self, p, criterion):
        """A sub-partition of a dominating (dominated) partition still
        dominates (is dominated), so deeper candidates can only raise the
        lower bound and lower the upper bound."""
        trees, target_regions, reference_regions = self._fixture()
        previous = None
        for depth in range(4):
            batch = csr_partitions_batch(trees, [depth] * len(trees))
            lower, upper = pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions, p=p, criterion=criterion,
            )
            if previous is not None:
                assert np.all(lower >= previous[0] - 1e-12)
                assert np.all(upper <= previous[1] + 1e-12)
            previous = (lower, upper)

    def test_candidate_permutation_permutes_columns(self):
        trees, target_regions, reference_regions = self._fixture(seed=43)
        depths = [1 + (i % 3) for i in range(len(trees))]
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets, target_regions, reference_regions
        )
        order = np.random.default_rng(44).permutation(len(trees))
        shuffled = csr_partitions_batch([trees[i] for i in order], [depths[i] for i in order])
        lower_s, upper_s = pdom_bounds_csr(
            shuffled.regions, shuffled.masses, shuffled.offsets,
            target_regions, reference_regions,
        )
        assert np.array_equal(lower_s, lower[:, order])
        assert np.array_equal(upper_s, upper[:, order])

    def test_column_does_not_depend_on_batch_composition(self):
        """Each candidate's column is bit-identical alone and in the batch."""
        trees, target_regions, reference_regions = self._fixture(seed=46)
        depths = [1 + (i % 4) for i in range(len(trees))]
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets, target_regions, reference_regions
        )
        for i, (tree, depth) in enumerate(zip(trees, depths)):
            regions, masses = tree.partitions_arrays(depth)
            alone = pdom_bounds_csr(
                *_csr([(regions, masses)]), target_regions, reference_regions
            )
            assert np.array_equal(alone[0][:, 0], lower[:, i])
            assert np.array_equal(alone[1][:, 0], upper[:, i])

    def test_pair_rows_are_target_major(self):
        trees, target_regions, reference_regions = self._fixture(seed=49)
        batch = csr_partitions_batch(trees, [2] * len(trees))
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets, target_regions, reference_regions
        )
        num_reference = reference_regions.shape[0]
        for b in range(target_regions.shape[0]):
            for r in range(num_reference):
                one = pdom_bounds_csr(
                    batch.regions, batch.masses, batch.offsets,
                    target_regions[b:b + 1], reference_regions[r:r + 1],
                )
                row = b * num_reference + r
                assert np.array_equal(one[0][0], lower[row])
                assert np.array_equal(one[1][0], upper[row])

    def test_offsets_accept_any_integer_sequence(self):
        rng = np.random.default_rng(52)
        regions = _random_rects(rng, (5,))
        masses = np.array([0.5, 0.5, 0.25, 0.25, 0.5])
        grid = _random_rects(rng, (2,))
        expected = pdom_bounds_csr(
            regions, masses, np.array([0, 2, 5], dtype=np.int64), grid, grid
        )
        for offsets in ([0, 2, 5], np.array([0, 2, 5], dtype=np.int32)):
            got = pdom_bounds_csr(regions, masses, offsets, grid, grid)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_rejected_and_empty_calls_leave_the_counters_alone(self):
        from repro.core.kernels import kernel_stats

        rng = np.random.default_rng(53)
        grid = _random_rects(rng, (1,))
        before = kernel_stats()
        pdom_bounds_csr(np.empty((0, 2, 2)), np.empty(0), np.zeros(1, dtype=np.int64), grid, grid)
        with pytest.raises(ValueError):
            pdom_bounds_csr(grid, np.ones(1), np.array([0, 1]), grid, grid, p=math.nan)
        assert kernel_stats() == before
        pdom_bounds_csr(grid, np.ones(1), np.array([0, 1]), grid, grid)
        after = kernel_stats()
        assert after["kernel_calls"] == before["kernel_calls"] + 1
        assert after["kernel_seconds"] >= before["kernel_seconds"]


class TestGridValidation:
    """Satellite fix: transposed / malformed partition grids must raise
    instead of broadcasting into silently wrong bounds."""

    def _candidates(self):
        rng = np.random.default_rng(27)
        regions = _random_rects(rng, (6,))
        masses = np.full(6, 1.0 / 3.0)
        offsets = np.array([0, 3, 6], dtype=np.int64)
        return regions, masses, offsets

    def test_csr_kernel_rejects_wrong_ndim(self):
        regions, masses, offsets = self._candidates()
        grid = _random_rects(np.random.default_rng(29), (4,))
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid[0], grid)  # (d, 2): ndim 2
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid, grid[None])  # ndim 4

    def test_csr_kernel_rejects_transposed_grid(self):
        rng = np.random.default_rng(30)
        regions = _random_rects(rng, (3,))
        masses = np.array([0.25, 0.25, 0.5])
        offsets = np.array([0, 3], dtype=np.int64)
        grid = _random_rects(rng, (4,))
        transposed = np.transpose(grid, (1, 0, 2))
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, transposed, grid)
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid, transposed)

    def test_dimension_mismatch_against_candidates_raises(self):
        regions, masses, offsets = self._candidates()  # d = 2
        grid_3d = _random_rects(np.random.default_rng(31), (4,)).repeat(1, axis=0)
        grid_3d = np.concatenate([grid_3d, grid_3d[:, :1]], axis=1)  # (4, 3, 2)
        with pytest.raises(ValueError):
            pdom_bounds_csr(regions, masses, offsets, grid_3d, grid_3d)


def _upper_atol(num_influence: int) -> float:
    """Slack between the batch's and the scalar class's upper bounds.

    The batch reads Lemma 4's upper bound off two Poisson-binomial CDFs, the
    scalar class sums the same 2-D coefficients in another order; each of the
    ``n`` fold steps and the two cumulative sums may round once per cell.
    """
    return 4 * (num_influence + 1) * np.finfo(float).eps


class TestBatchedAggregation:
    def test_ugf_batch_matches_scalar_class(self):
        rng = np.random.default_rng(11)
        lower = rng.uniform(0.0, 0.6, size=(7, 9))
        upper = lower + rng.uniform(0.0, 0.4, size=(7, 9))
        for k_cap in (None, 0, 2, 20):
            batch_lower, batch_upper = ugf_pmf_bounds_batch(lower, upper, k_cap=k_cap)
            for i in range(lower.shape[0]):
                ref_lower, ref_upper = UncertainGeneratingFunction(
                    lower[i], upper[i], k_cap=k_cap
                ).pmf_bounds()
                assert np.array_equal(batch_lower[i], ref_lower)
                np.testing.assert_allclose(
                    batch_upper[i], ref_upper, rtol=0, atol=_upper_atol(9)
                )

    @settings(max_examples=200, deadline=None)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12),
        k_cap=st.one_of(st.none(), st.integers(0, 14)),
    )
    def test_exact_probabilities_bracket_the_poisson_binomial_pmf(self, probs, k_cap):
        """With ``lower == upper`` the bounds must contain the exact PMF."""
        probs = np.array(probs, dtype=float).reshape(1, -1)
        pmf_lower, pmf_upper = ugf_pmf_bounds_batch(probs, probs, k_cap=k_cap)
        exact = poisson_binomial_pmf(probs[0], k_cap=k_cap)[: pmf_lower.shape[1]]
        assert np.all(pmf_lower[0] <= exact)
        assert np.all(exact <= pmf_upper[0])
        assert np.all(pmf_upper[0] <= 1.0)

    def test_domination_count_bounds_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        lower = rng.uniform(0.0, 0.5, size=(5, 6))
        upper = lower + rng.uniform(0.0, 0.5, size=(5, 6))
        for complete, total, k_cap in ((0, None, None), (2, 12, None), (1, 10, 3)):
            batch_lower, batch_upper = domination_count_bounds_batch(
                lower, upper, complete_count=complete, total_objects=total, k_cap=k_cap
            )
            for i in range(lower.shape[0]):
                ref = domination_count_bounds(
                    lower[i], upper[i], complete_count=complete,
                    total_objects=total, k_cap=k_cap,
                )
                assert np.array_equal(batch_lower[i], ref.lower)
                np.testing.assert_allclose(
                    batch_upper[i], ref.upper, rtol=0, atol=_upper_atol(6)
                )

    @pytest.mark.parametrize(
        "num_influence, complete, total, k_cap",
        [
            (6, 9, 40, 3),    # k_cap < complete_count
            (6, 4, 40, 3),    # window starts on the overflow cell
            (6, 2, 40, 3),    # window clipped by the overflow cell
            (6, 1, 40, 12),   # complete_count + influence <= k_cap
            (6, 1, 7, 7),     # k_cap >= total_objects: no overflow cell
            (6, 1, 7, 30),
            (0, 3, 40, 5),    # zero influence objects
            (6, 0, 40, 0),    # k_cap = 0
            (6, 2, 40, 0),
        ],
    )
    def test_truncated_batch_matches_scalar_row_for_row(
        self, num_influence, complete, total, k_cap
    ):
        rng = np.random.default_rng(21)
        lower = rng.uniform(0.0, 0.5, size=(5, num_influence))
        upper = lower + rng.uniform(0.0, 0.5, size=(5, num_influence))
        batch_lower, batch_upper = domination_count_bounds_batch(
            lower, upper, complete_count=complete, total_objects=total, k_cap=k_cap
        )
        assert batch_lower.shape == batch_upper.shape == (5, min(total, k_cap + 1) + 1)
        for i in range(lower.shape[0]):
            ref = domination_count_bounds(
                lower[i], upper[i], complete_count=complete,
                total_objects=total, k_cap=k_cap,
            )
            assert np.array_equal(batch_lower[i], ref.lower)
            np.testing.assert_allclose(
                batch_upper[i], ref.upper, rtol=0, atol=_upper_atol(num_influence)
            )
        combined = combine_weighted_bounds_arrays(
            np.full(5, 0.2), batch_lower, batch_upper, k_cap=k_cap, max_count=total
        )
        assert len(combined) == batch_lower.shape[1]
        assert combined.max_count == total

    def test_truncated_cells_do_not_grow_with_the_database(self):
        """Machine-independent gate on the aggregation work at Fig. 9b scale."""
        rng = np.random.default_rng(22)
        lower = rng.uniform(0.0, 0.5, size=(64, 10))
        upper = lower + rng.uniform(0.0, 0.5, size=(64, 10))
        for complete in (0, 3, 5, 6, 40_000):
            pmf_lower, pmf_upper = domination_count_bounds_batch(
                lower, upper, complete_count=complete, total_objects=100_000, k_cap=5
            )
            assert pmf_lower.shape == pmf_upper.shape == (64, 7)

    def test_combine_arrays_matches_tuple_api(self):
        rng = np.random.default_rng(13)
        lower = rng.uniform(0.0, 0.4, size=(4, 8))
        upper = np.minimum(lower + rng.uniform(0.0, 0.4, size=(4, 8)), 1.0)
        weights = np.array([0.25, 0.25, 0.3, 0.1])
        parts = [
            (float(w), domination_count_bounds(lower[i], upper[i]))
            for i, w in enumerate(weights)
        ]
        via_tuples = combine_weighted_bounds(parts)
        via_arrays = combine_weighted_bounds_arrays(
            weights,
            np.stack([b.lower for _, b in parts]),
            np.stack([b.upper for _, b in parts]),
        )
        assert np.array_equal(via_tuples.lower, via_arrays.lower)
        assert np.array_equal(via_tuples.upper, via_arrays.upper)

    def test_combine_arrays_validations(self):
        pmf = np.full((2, 3), 0.2)
        with pytest.raises(ValueError):
            combine_weighted_bounds_arrays(np.empty(0), np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(ValueError):
            combine_weighted_bounds_arrays(np.array([-0.5, 0.5]), pmf, pmf)
        with pytest.raises(ValueError):
            combine_weighted_bounds_arrays(np.array([0.8, 0.8]), pmf, pmf)


class TestIterationStatsTiming:
    def test_cache_seconds_recorded_and_bounded(self):
        database = uniform_rectangle_database(40, max_extent=0.05, seed=14)
        reference = random_reference_object(extent=0.05, seed=15)
        shared_cache: dict = {}
        idca = IDCA(database, pair_bounds_cache=shared_cache)
        result = idca.domination_count(0, reference, stop=MaxIterations(3), max_iterations=3)
        for stat in result.iterations:
            assert stat.cache_seconds >= 0.0
            assert stat.cache_seconds <= stat.elapsed_seconds
        # a second identical run hits the shared cache on every iteration
        assert len(shared_cache) > 0
        again = idca.domination_count(0, reference, stop=MaxIterations(3), max_iterations=3)
        assert np.array_equal(again.bounds.lower, result.bounds.lower)
        assert np.array_equal(again.bounds.upper, result.bounds.upper)

    def test_uncached_runs_report_zero_cache_time(self):
        database = uniform_rectangle_database(20, max_extent=0.05, seed=16)
        reference = random_reference_object(extent=0.05, seed=17)
        result = IDCA(database).domination_count(
            0, reference, stop=MaxIterations(2), max_iterations=2
        )
        assert all(stat.cache_seconds == 0.0 for stat in result.iterations)
