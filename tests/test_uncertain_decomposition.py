"""Unit tests for the kd-tree decomposition of uncertainty regions."""

import pickle

import numpy as np
import pytest

from repro.datasets import uniform_rectangle_database
from repro.geometry import Interval, Rectangle
from repro.uncertain import (
    BoxUniformObject,
    DecompositionTree,
    DiscreteObject,
    PointObject,
    TruncatedGaussianObject,
    decompose_object,
)


class TestBoxDecomposition:
    def setup_method(self):
        self.obj = BoxUniformObject(Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]))
        self.tree = DecompositionTree(self.obj)

    def test_depth_zero_is_whole_object(self):
        parts = self.tree.partitions(0)
        assert len(parts) == 1
        assert parts[0].region == self.obj.mbr
        assert parts[0].probability == pytest.approx(1.0)

    def test_depth_one_halves(self):
        parts = self.tree.partitions(1)
        assert len(parts) == 2
        assert all(p.probability == pytest.approx(0.5) for p in parts)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_partition_count_and_mass(self, depth):
        parts = self.tree.partitions(depth)
        assert len(parts) == 2 ** depth
        assert sum(p.probability for p in parts) == pytest.approx(1.0)

    def test_median_split_gives_equal_masses(self):
        parts = self.tree.partitions(4)
        for part in parts:
            assert part.probability == pytest.approx(1.0 / 16.0)

    def test_partitions_cover_region(self):
        parts = self.tree.partitions(3)
        total_volume = sum(p.region.volume for p in parts)
        assert total_volume == pytest.approx(self.obj.mbr.volume)

    def test_partitions_are_disjoint_in_volume(self):
        parts = self.tree.partitions(3)
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                overlap = a.region.intersection(b.region)
                if overlap is not None:
                    assert overlap.volume == pytest.approx(0.0)

    def test_round_robin_cycles_axes(self):
        parts = self.tree.partitions(2)
        # after two round-robin splits of the unit square every partition is a
        # quarter square
        for part in parts:
            np.testing.assert_allclose(part.region.extents, [0.5, 0.5])

    def test_widest_axis_policy(self):
        elongated = BoxUniformObject(Rectangle.from_bounds([0.0, 0.0], [4.0, 1.0]))
        tree = DecompositionTree(elongated, axis_policy="widest")
        parts = tree.partitions(2)
        # the widest policy keeps splitting the long axis first
        assert all(p.region.extents[0] == pytest.approx(1.0) for p in parts)

    def test_max_depth_caps_partitions(self):
        tree = DecompositionTree(self.obj, max_depth=2)
        assert len(tree.partitions(5)) == 4

    def test_negative_depth_raises(self):
        with pytest.raises(ValueError):
            self.tree.partitions(-1)

    def test_partitions_arrays_match_partitions(self):
        regions, masses = self.tree.partitions_arrays(3)
        parts = self.tree.partitions(3)
        assert regions.shape == (len(parts), 2, 2)
        np.testing.assert_allclose(masses, [p.probability for p in parts])

    def test_num_partitions(self):
        assert self.tree.num_partitions(3) == 8

    def test_materialisation_is_incremental(self):
        # asking for a deeper level after a shallow one must not lose nodes
        assert len(self.tree.partitions(1)) == 2
        assert len(self.tree.partitions(4)) == 16
        assert len(self.tree.partitions(2)) == 4


class TestGaussianDecomposition:
    def test_masses_are_halved_per_level(self):
        obj = TruncatedGaussianObject([0.0, 0.0], [1.0, 1.0])
        tree = DecompositionTree(obj)
        for depth in (1, 2, 3):
            parts = tree.partitions(depth)
            assert len(parts) == 2 ** depth
            for part in parts:
                assert part.probability == pytest.approx(0.5 ** depth, abs=1e-6)

    def test_total_mass_preserved(self):
        obj = TruncatedGaussianObject([0.3, 0.7], [0.1, 0.05])
        parts = decompose_object(obj, 4)
        assert sum(p.probability for p in parts) == pytest.approx(1.0, abs=1e-9)


class TestDiscreteDecomposition:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.obj = DiscreteObject(rng.uniform(0, 1, size=(9, 2)), label="disc")
        self.tree = DecompositionTree(self.obj)

    def test_total_mass_preserved(self):
        for depth in (1, 2, 3, 4, 6):
            parts = self.tree.partitions(depth)
            assert sum(p.probability for p in parts) == pytest.approx(1.0)

    def test_deep_decomposition_reaches_singletons(self):
        parts = self.tree.partitions(10)
        assert len(parts) == 9
        for part in parts:
            assert part.region.is_degenerate

    def test_singleton_partitions_have_alternative_weights(self):
        parts = self.tree.partitions(10)
        masses = sorted(p.probability for p in parts)
        np.testing.assert_allclose(masses, sorted(self.obj.weights), atol=1e-12)

    def test_unsplittable_point_object(self):
        obj = PointObject([0.5, 0.5])
        tree = DecompositionTree(obj)
        parts = tree.partitions(5)
        assert len(parts) == 1
        assert parts[0].probability == pytest.approx(1.0)

    def test_duplicate_alternatives_stop_splitting(self):
        obj = DiscreteObject([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]], [0.25, 0.25, 0.5])
        tree = DecompositionTree(obj)
        parts = tree.partitions(8)
        assert sum(p.probability for p in parts) == pytest.approx(1.0)
        # the duplicated location cannot be split further
        assert len(parts) == 2


class TestExistentialUncertainty:
    def test_root_mass_is_existence_probability(self):
        obj = BoxUniformObject(
            Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0]), existence_probability=0.7
        )
        tree = DecompositionTree(obj)
        assert tree.root.probability == pytest.approx(0.7)
        parts = tree.partitions(2)
        assert sum(p.probability for p in parts) == pytest.approx(0.7)


class TestSlottedPickling:
    """Spawned lanes and warm start pickle slotted geometry and trees."""

    def test_rectangle_tree_and_database_round_trip(self):
        rect = Rectangle.from_bounds([0.0, 0.25], [1.0, 0.5])
        assert not hasattr(rect, "__dict__") and not hasattr(rect.intervals[0], "__dict__")
        copy = pickle.loads(pickle.dumps(rect))
        assert copy == rect and hash(copy) == hash(rect)
        assert copy.intervals == (Interval(0.0, 1.0), Interval(0.25, 0.5))

        database = uniform_rectangle_database(num_objects=30, max_extent=0.08, seed=5)
        tree = DecompositionTree(database[3])
        regions, masses = tree.partitions_arrays(3)
        assert not hasattr(tree.root, "__dict__")
        tree_copy = pickle.loads(pickle.dumps(tree))
        assert tree_copy.token == tree.token
        assert tree_copy.root.region == tree.root.region
        assert tree_copy.partitions(3) == tree.partitions(3)
        copy_regions, copy_masses = tree_copy.partitions_arrays(3)
        assert np.array_equal(copy_regions, regions) and np.array_equal(copy_masses, masses)
        # the copy keeps growing lazily past the depth it was pickled at
        assert tree_copy.partitions(4) == tree.partitions(4)

        database_copy = pickle.loads(pickle.dumps(database))
        assert len(database_copy) == len(database)
        assert np.array_equal(database_copy.mbrs(), database.mbrs())
        assert [obj.mbr for obj in database_copy] == [obj.mbr for obj in database]
