"""Tests for the batched pair-bounds kernel layer.

Covers the broadcasting edge cases of ``domination_bulk`` /
``pdom_bounds_batch`` (zero-mass padding, degenerate rectangles, ``p = 1``
and ``p = inf``), the padded stacked representation served by
``DecompositionTree.partitions_arrays``, the batched UGF / domination-count
aggregation, and a property test asserting the batch results equal the
scalar reference loop.
"""

import math

import numpy as np
import pytest

from repro.core import (
    IDCA,
    MaxIterations,
    combine_weighted_bounds,
    combine_weighted_bounds_arrays,
    domination_count_bounds,
    domination_count_bounds_batch,
    pdom_bounds_batch,
    pdom_bounds_from_partitions,
    ugf_pmf_bounds_batch,
)
from repro.core.generating_functions import UncertainGeneratingFunction
from repro.core.kernels import (
    _pdom_csr_numba,
    _pdom_csr_numpy,
    available_backends,
    pdom_bounds_csr,
)
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


class TestPaddedPartitionsArrays:
    def test_padding_rows_have_zero_mass(self):
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[0])
        regions, masses = tree.partitions_arrays(2)
        padded_regions, padded_masses = tree.partitions_arrays(2, pad_to=11)
        k = masses.shape[0]
        assert padded_regions.shape == (11, regions.shape[1], 2)
        assert np.array_equal(padded_regions[:k], regions)
        assert np.array_equal(padded_masses[:k], masses)
        assert np.all(padded_masses[k:] == 0.0)
        assert np.all(padded_regions[k:] == 0.0)

    def test_padded_variant_built_fresh_from_cached_base(self):
        """Pad widths vary per batch, so only the base arrays are cached."""
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[0])
        base_first = tree.partitions_arrays(1)
        base_second = tree.partitions_arrays(1)
        assert base_first[0] is base_second[0] and base_first[1] is base_second[1]
        first = tree.partitions_arrays(1, pad_to=7)
        second = tree.partitions_arrays(1, pad_to=7)
        assert first[0] is not second[0]
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])

    def test_pad_to_too_small_raises(self):
        database = uniform_rectangle_database(3, max_extent=0.1, seed=3)
        tree = DecompositionTree(database[0])
        with pytest.raises(ValueError):
            tree.partitions_arrays(3, pad_to=1)


class TestPdomBoundsBatch:
    def test_zero_mass_padding_cannot_change_bounds(self):
        """Padded and unpadded batches agree column-for-column exactly."""
        database = uniform_rectangle_database(6, max_extent=0.08, seed=4)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.08, seed=5))
        target_regions, _ = target.partitions_arrays(1)
        reference_regions, _ = target.partitions_arrays(0)
        parts = [tree.partitions_arrays(3) for tree in trees]
        counts = np.array([m.shape[0] for _, m in parts])
        tight = int(counts.max())
        for pad_to in (tight, tight + 9):
            stacked_regions = np.stack(
                [t.partitions_arrays(3, pad_to=pad_to)[0] for t in trees]
            )
            stacked_masses = np.stack(
                [t.partitions_arrays(3, pad_to=pad_to)[1] for t in trees]
            )
            lower, upper = pdom_bounds_batch(
                stacked_regions,
                stacked_masses,
                target_regions,
                reference_regions,
                partition_counts=counts,
            )
            if pad_to == tight:
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
        # mixed adaptive depths exercise the ragged padding
        depths = [1 + (i % 4) for i in range(len(trees))]
        parts = [tree.partitions_arrays(d) for tree, d in zip(trees, depths)]
        counts = np.array([m.shape[0] for _, m in parts])
        pad_to = int(counts.max())
        stacked_regions = np.stack(
            [t.partitions_arrays(d, pad_to=pad_to)[0] for t, d in zip(trees, depths)]
        )
        stacked_masses = np.stack(
            [t.partitions_arrays(d, pad_to=pad_to)[1] for t, d in zip(trees, depths)]
        )
        batch_lower, batch_upper = pdom_bounds_batch(
            stacked_regions,
            stacked_masses,
            target_regions,
            reference_regions,
            p=p,
            criterion=criterion,
            partition_counts=counts,
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
        counts = np.array([m.shape[0] for _, m in parts])
        pad_to = int(counts.max())
        stacked_regions = np.stack(
            [t.partitions_arrays(2, pad_to=pad_to)[0] for t in trees]
        )
        stacked_masses = np.stack(
            [t.partitions_arrays(2, pad_to=pad_to)[1] for t in trees]
        )
        batch_lower, batch_upper = pdom_bounds_batch(
            stacked_regions,
            stacked_masses,
            target_regions,
            target_regions[:1],
            partition_counts=counts,
        )
        scalar_lower, scalar_upper = _scalar_reference(
            parts, target_regions, target_regions[:1]
        )
        np.testing.assert_allclose(batch_lower, scalar_lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch_upper, scalar_upper, rtol=0, atol=1e-12)

    def test_p_inf_raises(self):
        database = uniform_rectangle_database(2, max_extent=0.1, seed=10)
        tree = DecompositionTree(database[0])
        regions, masses = tree.partitions_arrays(1, pad_to=2)
        with pytest.raises(ValueError):
            pdom_bounds_batch(
                regions[None],
                masses[None],
                regions[:1],
                regions[:1],
                p=math.inf,
            )

    def test_empty_candidate_batch(self):
        lower, upper = pdom_bounds_batch(
            np.empty((0, 1, 2, 2)),
            np.empty((0, 1)),
            np.zeros((2, 2, 2)),
            np.zeros((3, 2, 2)),
        )
        assert lower.shape == (6, 0) and upper.shape == (6, 0)

    def test_bad_partition_counts_raise(self):
        regions = np.zeros((2, 3, 2, 2))
        masses = np.zeros((2, 3))
        grid = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid, grid, partition_counts=np.array([-1, 3]))
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid, grid, partition_counts=np.array([4, 3]))

    def test_zero_partition_candidate_gets_scalar_bounds(self):
        """A massless candidate yields (0, 0) exactly like the scalar path."""
        rng = np.random.default_rng(20)
        regions = _random_rects(rng, (2, 3))
        masses = np.array([[0.25, 0.25, 0.5], [0.0, 0.0, 0.0]])
        grid = _random_rects(rng, (2,))
        lower, upper = pdom_bounds_batch(
            regions, masses, grid, grid[:1], partition_counts=np.array([3, 0])
        )
        assert np.all(lower[:, 1] == 0.0) and np.all(upper[:, 1] == 0.0)
        scalar = _scalar_reference(
            [(regions[0], masses[0]), (regions[1][:0], masses[1][:0])], grid, grid[:1]
        )
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


def _padded_reference(trees, depths, target_regions, reference_regions, p, criterion):
    """Bounds via the legacy padded-dense kernel for the same candidate set."""
    parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
    counts = np.array([m.shape[0] for _, m in parts])
    pad_to = int(counts.max())
    stacked_regions = np.stack(
        [t.partitions_arrays(d, pad_to=pad_to)[0] for t, d in zip(trees, depths)]
    )
    stacked_masses = np.stack(
        [t.partitions_arrays(d, pad_to=pad_to)[1] for t, d in zip(trees, depths)]
    )
    return pdom_bounds_batch(
        stacked_regions,
        stacked_masses,
        target_regions,
        reference_regions,
        p=p,
        criterion=criterion,
        partition_counts=counts,
    )


class TestCSRKernelParity:
    """The four pair-bounds paths must agree: numpy-CSR ≡ numba-CSR bitwise
    always, and all of them ≡ the legacy padded kernel and the scalar
    reference bit-for-bit on dyadic (uniform-database) masses.

    ``_pdom_csr_numba`` is exercised directly: without numba installed its
    kernel body runs as plain Python, so this suite checks the *arithmetic*
    of the fused kernel on both CI legs (with and without numba), not just
    the dispatcher's fallback.
    """

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
    def test_csr_backends_bit_identical(self, p, criterion):
        """numpy-CSR and the fused numba kernel agree bit-for-bit, always —
        including on non-dyadic (discrete) masses, where the shared strict
        sequential fold is what makes the agreement exact."""
        for fixture in (self._uniform_fixture, self._discrete_fixture):
            trees, depths, target_regions, reference_regions = fixture()
            batch = csr_partitions_batch(trees, depths)
            lower_np, upper_np = _pdom_csr_numpy(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions, p, criterion,
            )
            lower_nb, upper_nb = _pdom_csr_numba(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions, p, criterion,
            )
            assert np.array_equal(lower_np, lower_nb)
            assert np.array_equal(upper_np, upper_nb)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_all_four_paths_agree_on_uniform(self, p, criterion):
        """CSR (both backends) and the scalar loop all accumulate masses via
        the same strict left-to-right fold, so they agree bit-for-bit.  The
        legacy padded kernel goes through ``np.sum``'s pairwise blocking,
        which re-associates once a candidate holds eight or more partitions —
        it matches the fold only to within a few ulp."""
        trees, depths, target_regions, reference_regions = self._uniform_fixture()
        batch = csr_partitions_batch(trees, depths)
        lower_np, upper_np = _pdom_csr_numpy(
            batch.regions, batch.masses, batch.offsets,
            target_regions, reference_regions, p, criterion,
        )
        lower_nb, upper_nb = _pdom_csr_numba(
            batch.regions, batch.masses, batch.offsets,
            target_regions, reference_regions, p, criterion,
        )
        lower_pad, upper_pad = _padded_reference(
            trees, depths, target_regions, reference_regions, p, criterion
        )
        parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
        lower_ref, upper_ref = _scalar_reference(
            parts, target_regions, reference_regions, p=p, criterion=criterion
        )
        for lower, upper in ((lower_nb, upper_nb), (lower_ref, upper_ref)):
            assert np.array_equal(lower_np, lower)
            assert np.array_equal(upper_np, upper)
        np.testing.assert_allclose(lower_pad, lower_np, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(upper_pad, upper_np, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("criterion", ["optimal", "minmax"])
    def test_csr_matches_scalar_on_discrete(self, p, criterion):
        """On non-dyadic masses the fold order differs from np.sum's pairwise
        blocking, so CSR vs padded/scalar is exact only to re-association."""
        trees, depths, target_regions, reference_regions = self._discrete_fixture()
        batch = csr_partitions_batch(trees, depths)
        lower, upper = pdom_bounds_csr(
            batch.regions, batch.masses, batch.offsets,
            target_regions, reference_regions, p=p, criterion=criterion,
            backend="numpy",
        )
        parts = [t.partitions_arrays(d) for t, d in zip(trees, depths)]
        lower_ref, upper_ref = _scalar_reference(
            parts, target_regions, reference_regions, p=p, criterion=criterion
        )
        np.testing.assert_allclose(lower, lower_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, upper_ref, rtol=0, atol=1e-12)
        lower_pad, upper_pad = _padded_reference(
            trees, depths, target_regions, reference_regions, p, criterion
        )
        np.testing.assert_allclose(lower, lower_pad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, upper_pad, rtol=0, atol=1e-12)

    def _grid_fixture(self, depths, seed=13):
        """Candidates at ``depths`` against a 4 x 4 target/reference pair grid."""
        database = uniform_rectangle_database(len(depths), max_extent=0.05, seed=seed)
        trees = [DecompositionTree(obj) for obj in database]
        target = DecompositionTree(random_reference_object(extent=0.05, seed=seed + 1))
        reference = DecompositionTree(random_reference_object(extent=0.05, seed=seed + 2))
        return trees, target.partitions_arrays(2)[0], reference.partitions_arrays(2)[0]

    @pytest.mark.parametrize("depth", [5, 6])
    def test_padded_matches_scalar_at_deep_candidate_depths(self, depth):
        """32 and 64 partitions per candidate: the padded kernel stays within
        summation re-association of the scalar loop."""
        depths = [depth] * 8
        trees, target_regions, reference_regions = self._grid_fixture(depths)
        lower, upper = _padded_reference(
            trees, depths, target_regions, reference_regions, 2.0, "optimal"
        )
        parts = [t.partitions_arrays(depth) for t in trees]
        lower_ref, upper_ref = _scalar_reference(parts, target_regions, reference_regions)
        np.testing.assert_allclose(lower, lower_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(upper, upper_ref, rtol=0, atol=1e-12)

    def test_csr_cache_cold_and_warm_match_padded(self):
        """Depths cycling 1..5 (2..32 partitions): every backend returns the
        same bounds from a rebuilt and from a cached CSR batch, within
        re-association of the padded kernel."""
        depths = [1 + (i % 5) for i in range(15)]
        trees, target_regions, reference_regions = self._grid_fixture(depths)
        lower_pad, upper_pad = _padded_reference(
            trees, depths, target_regions, reference_regions, 2.0, "optimal"
        )

        def csr(backend):
            batch = csr_partitions_batch(trees, depths)
            return pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets,
                target_regions, reference_regions, backend=backend,
            )

        for backend in available_backends():
            clear_csr_cache()
            cold = csr(backend)
            warm = csr(backend)
            assert np.array_equal(cold[0], warm[0])
            assert np.array_equal(cold[1], warm[1])
            np.testing.assert_allclose(cold[0], lower_pad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cold[1], upper_pad, rtol=0, atol=1e-12)

    def test_zero_partition_candidate_gets_scalar_bounds(self):
        """An empty CSR segment yields the (0, 0) bounds of the scalar path."""
        rng = np.random.default_rng(24)
        regions = _random_rects(rng, (3,))
        masses = np.array([0.25, 0.25, 0.5])
        offsets = np.array([0, 3, 3], dtype=np.int64)  # candidate 1 is empty
        grid = _random_rects(rng, (2,))
        for impl in (_pdom_csr_numpy, _pdom_csr_numba):
            lower, upper = impl(regions, masses, offsets, grid, grid[:1], 2.0, "optimal")
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


class TestGridValidation:
    """Satellite fix: transposed / malformed partition grids must raise
    instead of broadcasting into silently wrong bounds."""

    def _candidates(self):
        rng = np.random.default_rng(27)
        regions = _random_rects(rng, (2, 3))
        masses = np.full((2, 3), 1.0 / 3.0)
        return regions, masses

    def test_padded_kernel_rejects_transposed_grid(self):
        regions, masses = self._candidates()
        grid = _random_rects(rng := np.random.default_rng(28), (4,))
        transposed = np.transpose(grid, (1, 0, 2))  # (d, n, 2)
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, transposed, grid)
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid, transposed)

    def test_padded_kernel_rejects_wrong_ndim(self):
        regions, masses = self._candidates()
        grid = _random_rects(np.random.default_rng(29), (4,))
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid[0], grid)  # (d, 2): ndim 2
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid, grid[None])  # ndim 4

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
        regions, masses = self._candidates()  # d = 2
        grid_3d = _random_rects(np.random.default_rng(31), (4,)).repeat(1, axis=0)
        grid_3d = np.concatenate([grid_3d, grid_3d[:, :1]], axis=1)  # (4, 3, 2)
        with pytest.raises(ValueError):
            pdom_bounds_batch(regions, masses, grid_3d, grid_3d)


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
                assert np.array_equal(batch_upper[i], ref_upper)

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
                assert np.array_equal(batch_upper[i], ref.upper)

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
            assert np.array_equal(batch_upper[i], ref.upper)
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
