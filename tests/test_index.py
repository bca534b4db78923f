"""Tests for the index substrate: R-tree and vectorised scans."""

import numpy as np
import pytest

from repro.datasets import uniform_rectangle_database
from repro.geometry import Rectangle, max_dist_arrays, min_dist_arrays
from repro.index import RTree, knn_candidates, min_dist_order, range_candidates


@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(300, max_extent=0.03, seed=42)


@pytest.fixture(scope="module")
def mbrs(database):
    return database.mbrs()


@pytest.fixture(scope="module")
def rtree(mbrs):
    return RTree(mbrs, leaf_capacity=16, fanout=8)


class TestRTreeStructure:
    def test_len(self, rtree, mbrs):
        assert len(rtree) == mbrs.shape[0]

    def test_height_positive(self, rtree):
        assert rtree.height() >= 2

    def test_all_entries_present_exactly_once(self, rtree, mbrs):
        seen = []
        for node in rtree.iter_nodes():
            if node.is_leaf:
                seen.extend(node.entries.tolist())
        assert sorted(seen) == list(range(mbrs.shape[0]))

    def test_node_mbrs_contain_children(self, rtree, mbrs):
        for node in rtree.iter_nodes():
            if node.is_leaf:
                entry_mbrs = mbrs[node.entries]
                assert np.all(node.mbr[:, 0] <= entry_mbrs[..., 0].min(axis=0) + 1e-12)
                assert np.all(node.mbr[:, 1] >= entry_mbrs[..., 1].max(axis=0) - 1e-12)
            else:
                for child in node.children:
                    assert np.all(node.mbr[:, 0] <= child.mbr[:, 0] + 1e-12)
                    assert np.all(node.mbr[:, 1] >= child.mbr[:, 1] - 1e-12)

    def test_leaf_capacity_respected(self, rtree):
        for node in rtree.iter_nodes():
            if node.is_leaf:
                assert len(node.entries) <= 16
            else:
                assert len(node.children) <= 8

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RTree(np.empty((0, 2, 2)))
        with pytest.raises(ValueError):
            RTree(np.zeros((3, 2, 2)), leaf_capacity=1)
        with pytest.raises(ValueError):
            RTree(np.zeros((2, 2)))

    def test_single_leaf_tree(self):
        mbrs = np.zeros((5, 2, 2))
        mbrs[..., 1] = 1.0
        tree = RTree(mbrs, leaf_capacity=8)
        assert tree.height() == 1
        assert tree.root.is_leaf


class TestRTreeDelete:
    def test_emptied_node_is_pruned_wherever_it_sits_among_its_siblings(self):
        """Deleting every entry of a non-first leaf must prune that leaf."""
        database = uniform_rectangle_database(40, max_extent=0.01, seed=2)
        tree = RTree(database.mbrs(), leaf_capacity=2, fanout=3)
        rows = list(database.mbrs())
        rng = np.random.default_rng(2)
        while len(rows) > 1:
            victim = int(rng.integers(len(rows)))
            tree.delete(victim)
            del rows[victim]
            entries = sorted(
                int(i) for node in tree.iter_nodes() if node.is_leaf for i in node.entries
            )
            assert entries == list(range(len(rows)))
            window = Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0])
            assert sorted(tree.range_query(window)) == entries


class TestRTreeRangeQuery:
    def test_matches_linear_scan(self, rtree, mbrs):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lo = rng.uniform(0, 0.8, size=2)
            region = Rectangle.from_bounds(lo, lo + rng.uniform(0.05, 0.3, size=2))
            expected = range_candidates(mbrs, region)
            actual = rtree.range_query(region)
            np.testing.assert_array_equal(actual, expected)

    def test_empty_result(self, rtree):
        region = Rectangle.from_bounds([5.0, 5.0], [6.0, 6.0])
        assert rtree.range_query(region).shape == (0,)

    def test_full_coverage(self, rtree, mbrs):
        region = Rectangle.from_bounds([-1.0, -1.0], [2.0, 2.0])
        assert rtree.range_query(region).shape[0] == mbrs.shape[0]


class TestKNNCandidates:
    def _reference_candidates(self, mbrs, query, k):
        """Straightforward reference implementation of the MinDist/MaxDist filter."""
        q = query.to_array()
        mins = min_dist_arrays(mbrs, q)
        maxs = max_dist_arrays(mbrs, q)
        threshold = np.sort(maxs)[k - 1]
        return set(np.flatnonzero(mins <= threshold))

    def test_scan_matches_reference(self, mbrs):
        rng = np.random.default_rng(1)
        for _ in range(10):
            query = Rectangle.from_center_extent(rng.uniform(0, 1, 2), 0.02)
            for k in (1, 3, 10):
                expected = self._reference_candidates(mbrs, query, k)
                actual = set(knn_candidates(mbrs, query, k))
                assert actual == expected

    def test_rtree_candidates_are_superset_of_true_knn(self, rtree, mbrs):
        """The candidate set must contain every object that could be a kNN."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            query = Rectangle.from_center_extent(rng.uniform(0, 1, 2), 0.02)
            k = 5
            candidates = set(rtree.knn_candidates(query, k))
            # any object whose MaxDist is among the k smallest MaxDists could be
            # a true kNN in some possible world and must not be missed
            maxs = max_dist_arrays(mbrs, query.to_array())
            top_by_max = set(np.argsort(maxs)[:k])
            assert top_by_max <= candidates

    def test_rtree_candidates_match_scan_filter(self, rtree, mbrs):
        rng = np.random.default_rng(3)
        for _ in range(10):
            query = Rectangle.from_center_extent(rng.uniform(0, 1, 2), 0.02)
            scan = set(knn_candidates(mbrs, query, 4))
            tree = set(rtree.knn_candidates(query, 4))
            assert tree == scan

    def test_exclude_mask(self, mbrs):
        query = Rectangle.from_center_extent([0.5, 0.5], 0.02)
        exclude = np.zeros(mbrs.shape[0], dtype=bool)
        all_candidates = knn_candidates(mbrs, query, 3)
        exclude[all_candidates[0]] = True
        filtered = knn_candidates(mbrs, query, 3, exclude=exclude)
        assert all_candidates[0] not in filtered

    def test_rtree_exclude_set(self, rtree):
        query = Rectangle.from_center_extent([0.5, 0.5], 0.02)
        full = rtree.knn_candidates(query, 3)
        excluded = rtree.knn_candidates(query, 3, exclude={int(full[0])})
        assert int(full[0]) not in excluded

    def test_selection_matches_full_sort_with_ties_and_exclusions(self):
        """The k-th smallest MaxDist by selection equals the sorted pick."""

        def sorted_reference(boxes, query, k, exclude):
            q = query.to_array()
            valid = np.ones(boxes.shape[0], dtype=bool)
            valid[list(exclude)] = False
            valid_max = np.sort(max_dist_arrays(boxes, q)[valid])
            if valid_max.shape[0] <= k:
                return np.flatnonzero(valid)
            mins = min_dist_arrays(boxes, q)
            return np.flatnonzero(valid & (mins <= valid_max[k - 1]))

        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            # integer-grid boxes: many exactly tied Min/MaxDists
            lows = rng.integers(0, 4, size=(n, 2)).astype(float)
            boxes = np.stack([lows, lows + rng.integers(0, 2, size=(n, 2))], axis=-1)
            corner = rng.integers(0, 4, 2).astype(float)
            query = Rectangle.from_bounds(corner, corner + rng.integers(0, 2, 2))
            exclude = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
            for k in (1, 2, 5, n - len(exclude), n + 3):
                if k <= 0:
                    continue
                expected = sorted_reference(boxes, query, k, exclude)
                actual = knn_candidates(boxes, query, k, exclude=exclude)
                np.testing.assert_array_equal(actual, expected)

    def test_k_larger_than_database_returns_all(self, mbrs):
        query = Rectangle.from_center_extent([0.5, 0.5], 0.02)
        assert knn_candidates(mbrs, query, mbrs.shape[0] + 5).shape[0] == mbrs.shape[0]

    def test_invalid_k_raises(self, mbrs, rtree):
        query = Rectangle.from_center_extent([0.5, 0.5], 0.02)
        with pytest.raises(ValueError):
            knn_candidates(mbrs, query, 0)
        with pytest.raises(ValueError):
            rtree.knn_candidates(query, 0)


class TestScanHelpers:
    def test_min_dist_order_sorted(self, mbrs):
        query = Rectangle.from_center_extent([0.5, 0.5], 0.01)
        order = min_dist_order(mbrs, query)
        dists = min_dist_arrays(mbrs, query.to_array())
        assert np.all(np.diff(dists[order]) >= -1e-12)

    def test_range_candidates_contains_query_region_objects(self, mbrs):
        region = Rectangle.from_bounds([0.4, 0.4], [0.6, 0.6])
        hits = range_candidates(mbrs, region)
        centers = 0.5 * (mbrs[..., 0] + mbrs[..., 1])
        inside = np.flatnonzero(
            np.all((centers >= [0.4, 0.4]) & (centers <= [0.6, 0.6]), axis=1)
        )
        assert set(inside) <= set(hits)
