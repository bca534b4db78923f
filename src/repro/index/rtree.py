"""A Sort-Tile-Recursive (STR) bulk-loaded R-tree over object MBRs.

The paper lists the integration of the pruning framework with index-supported
kNN / RkNN algorithms as future work; this R-tree provides that substrate.
The query layer can use it instead of the linear scan to generate kNN and
range candidates, and it is exercised by dedicated unit and property tests.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..geometry import Rectangle, max_dist_arrays, min_dist_arrays
from .exclude import ExcludeSpec, exclude_set

__all__ = ["RTreeNode", "RTree"]


@dataclass(eq=False)
class RTreeNode:
    """An internal or leaf node of the R-tree (compared by identity)."""

    mbr: np.ndarray  # shape (d, 2)
    children: list["RTreeNode"] = field(default_factory=list)
    entries: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def is_leaf(self) -> bool:
        """True when the node stores object indices instead of child nodes."""
        return len(self.children) == 0


def _combine_mbrs(mbrs: np.ndarray) -> np.ndarray:
    """Union MBR of an ``(m, d, 2)`` array."""
    return np.stack([mbrs[..., 0].min(axis=0), mbrs[..., 1].max(axis=0)], axis=-1)


class RTree:
    """Static R-tree built with Sort-Tile-Recursive bulk loading.

    Parameters
    ----------
    mbrs:
        Object MBRs of shape ``(n, d, 2)``.
    leaf_capacity, fanout:
        Maximum entries per leaf and children per internal node.
    """

    def __init__(self, mbrs: np.ndarray, leaf_capacity: int = 32, fanout: int = 16):
        mbrs = np.asarray(mbrs, dtype=float)
        if mbrs.ndim != 3 or mbrs.shape[2] != 2 or mbrs.shape[0] == 0:
            raise ValueError("mbrs must be a non-empty array of shape (n, d, 2)")
        if leaf_capacity < 2 or fanout < 2:
            raise ValueError("leaf_capacity and fanout must both be at least 2")
        # The caller keeps ownership of ``mbrs`` (it is typically a database's
        # shared MBR cache): hold a read-only view so incremental ``update``
        # copies before its first in-place write instead of corrupting it.
        mbrs = mbrs.view()
        mbrs.flags.writeable = False
        self.mbrs = mbrs
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.dimensions = mbrs.shape[1]
        self.root = self._bulk_load()

    # ------------------------------------------------------------------ #
    # construction (STR)
    # ------------------------------------------------------------------ #
    def _str_partition(self, indices: np.ndarray, capacity: int) -> list[np.ndarray]:
        """Recursively tile ``indices`` into groups of at most ``capacity``."""
        centers = 0.5 * (self.mbrs[indices, :, 0] + self.mbrs[indices, :, 1])
        return self._tile(indices, centers, axis=0, capacity=capacity)

    def _tile(
        self, indices: np.ndarray, centers: np.ndarray, axis: int, capacity: int
    ) -> list[np.ndarray]:
        if indices.shape[0] <= capacity:
            return [indices]
        order = np.argsort(centers[:, axis], kind="stable")
        indices = indices[order]
        centers = centers[order]
        n = indices.shape[0]
        num_groups = math.ceil(n / capacity)
        if axis == self.dimensions - 1:
            return [
                indices[i * capacity : (i + 1) * capacity] for i in range(num_groups)
            ]
        # number of vertical slabs per STR
        slabs = math.ceil(num_groups ** (1.0 / (self.dimensions - axis)))
        slab_size = math.ceil(n / slabs)
        groups: list[np.ndarray] = []
        for start in range(0, n, slab_size):
            stop = min(start + slab_size, n)
            groups.extend(
                self._tile(indices[start:stop], centers[start:stop], axis + 1, capacity)
            )
        return groups

    def _bulk_load(self) -> RTreeNode:
        all_indices = np.arange(self.mbrs.shape[0])
        groups = self._str_partition(all_indices, self.leaf_capacity)
        nodes = [
            RTreeNode(mbr=_combine_mbrs(self.mbrs[group]), entries=group)
            for group in groups
        ]
        while len(nodes) > 1:
            node_mbrs = np.stack([node.mbr for node in nodes])
            node_centers = 0.5 * (node_mbrs[..., 0] + node_mbrs[..., 1])
            order = self._tile(
                np.arange(len(nodes)), node_centers, axis=0, capacity=self.fanout
            )
            nodes = [
                RTreeNode(
                    mbr=_combine_mbrs(np.stack([nodes[i].mbr for i in group])),
                    children=[nodes[i] for i in group],
                )
                for group in order
            ]
        return nodes[0]

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def insert(self, mbr: np.ndarray) -> int:
        """Insert a new object MBR at the next position; returns its index.

        Classic least-enlargement descent with node splits propagating to the
        root.  The incremental tree's *shape* may differ from a freshly
        bulk-loaded one, but every query is shape-independent: node MBRs stay
        conservative unions of their descendants, and both ``range_query``
        and ``knn_candidates`` return sets defined purely by object MBRs
        (intersection, and MinDist against the exact k-th smallest MaxDist).
        """
        mbr = self._check_mbr(mbr)
        index = int(self.mbrs.shape[0])
        self.mbrs = np.concatenate([self.mbrs, mbr[None, ...]], axis=0)
        split = self._insert_entry(self.root, mbr, index)
        if split is not None:
            self.root = RTreeNode(
                mbr=_combine_mbrs(np.stack([self.root.mbr, split.mbr])),
                children=[self.root, split],
            )
        return index

    def delete(self, index: int) -> None:
        """Remove the object at ``index``; later indices shift down by one.

        The entry's leaf loses it, ancestors re-tighten their MBRs to the
        exact union of what remains, emptied nodes are pruned, and a root
        left with a single child collapses.  Matches
        ``UncertainDatabase.delete`` position semantics: all entries above
        ``index`` are renumbered down by one.
        """
        if not 0 <= index < self.mbrs.shape[0]:
            raise IndexError(f"index {index} out of range")
        if self.mbrs.shape[0] == 1:
            raise ValueError("cannot delete the last entry of an R-tree")
        if not self._delete_entry(self.root, index):  # pragma: no cover
            raise RuntimeError(f"entry {index} missing from the R-tree")
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        for node in self.iter_nodes():
            if node.is_leaf and node.entries.size:
                node.entries = node.entries - (node.entries > index)
        self.mbrs = np.delete(self.mbrs, index, axis=0)

    def update(self, index: int, mbr: np.ndarray) -> None:
        """Replace the MBR at ``index``: remove, re-tighten, re-insert."""
        if not 0 <= index < self.mbrs.shape[0]:
            raise IndexError(f"index {index} out of range")
        mbr = self._check_mbr(mbr)
        if not self._delete_entry(self.root, index):  # pragma: no cover
            raise RuntimeError(f"entry {index} missing from the R-tree")
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        mbrs = self.mbrs if self.mbrs.flags.writeable else self.mbrs.copy()
        mbrs[index] = mbr
        self.mbrs = mbrs
        split = self._insert_entry(self.root, mbr, index)
        if split is not None:
            self.root = RTreeNode(
                mbr=_combine_mbrs(np.stack([self.root.mbr, split.mbr])),
                children=[self.root, split],
            )

    def _check_mbr(self, mbr: np.ndarray) -> np.ndarray:
        mbr = np.array(mbr, dtype=float)
        if mbr.shape != (self.dimensions, 2):
            raise ValueError(f"mbr must have shape ({self.dimensions}, 2)")
        return mbr

    def _insert_entry(self, node: RTreeNode, mbr: np.ndarray, index: int):
        """Least-enlargement descent; returns the new sibling on a split."""
        if node.is_leaf:
            if node.entries.size == 0:
                node.mbr = mbr.copy()
            else:
                node.mbr = _combine_mbrs(np.stack([node.mbr, mbr]))
            node.entries = np.append(node.entries, index)
            if node.entries.size > self.leaf_capacity:
                return self._split_leaf(node)
            return None
        child = min(node.children, key=lambda c: self._enlargement(c.mbr, mbr))
        split = self._insert_entry(child, mbr, index)
        node.mbr = _combine_mbrs(np.stack([node.mbr, mbr]))
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.fanout:
                return self._split_internal(node)
        return None

    @staticmethod
    def _enlargement(node_mbr: np.ndarray, mbr: np.ndarray) -> tuple[float, float]:
        """(volume growth, margin growth) of taking ``mbr`` into ``node_mbr``."""
        lows = np.minimum(node_mbr[:, 0], mbr[:, 0])
        highs = np.maximum(node_mbr[:, 1], mbr[:, 1])
        union_extent = highs - lows
        extent = node_mbr[:, 1] - node_mbr[:, 0]
        volume_growth = float(np.prod(union_extent) - np.prod(extent))
        margin_growth = float(union_extent.sum() - extent.sum())
        return (volume_growth, margin_growth)

    def _split_leaf(self, node: RTreeNode) -> RTreeNode:
        """Split an overflowing leaf along its widest axis; returns the sibling."""
        entries = node.entries
        centers = 0.5 * (self.mbrs[entries, :, 0] + self.mbrs[entries, :, 1])
        axis = int(np.argmax(node.mbr[:, 1] - node.mbr[:, 0]))
        order = np.argsort(centers[:, axis], kind="stable")
        half = entries.size // 2
        keep, move = entries[order[:half]], entries[order[half:]]
        node.entries = keep
        node.mbr = _combine_mbrs(self.mbrs[keep])
        return RTreeNode(mbr=_combine_mbrs(self.mbrs[move]), entries=move)

    def _split_internal(self, node: RTreeNode) -> RTreeNode:
        """Split an overflowing internal node along its widest axis."""
        child_mbrs = np.stack([child.mbr for child in node.children])
        centers = 0.5 * (child_mbrs[..., 0] + child_mbrs[..., 1])
        axis = int(np.argmax(node.mbr[:, 1] - node.mbr[:, 0]))
        order = np.argsort(centers[:, axis], kind="stable")
        half = len(node.children) // 2
        keep = [node.children[i] for i in order[:half]]
        move = [node.children[i] for i in order[half:]]
        node.children = keep
        node.mbr = _combine_mbrs(np.stack([child.mbr for child in keep]))
        return RTreeNode(
            mbr=_combine_mbrs(np.stack([child.mbr for child in move])), children=move
        )

    def _delete_entry(self, node: RTreeNode, index: int) -> bool:
        """Remove ``index`` below ``node``, re-tightening MBRs on the way out."""
        target = self.mbrs[index]
        if node.is_leaf:
            positions = np.nonzero(node.entries == index)[0]
            if positions.size == 0:
                return False
            node.entries = np.delete(node.entries, positions[0])
            if node.entries.size:
                node.mbr = _combine_mbrs(self.mbrs[node.entries])
            return True
        for child in node.children:
            contains = bool(
                np.all(child.mbr[:, 0] <= target[:, 0])
                and np.all(child.mbr[:, 1] >= target[:, 1])
            )
            if not contains:
                continue
            if self._delete_entry(child, index):
                if (child.is_leaf and child.entries.size == 0) or (
                    not child.is_leaf and not child.children
                ):
                    node.children.remove(child)
                if node.children:
                    node.mbr = _combine_mbrs(
                        np.stack([c.mbr for c in node.children])
                    )
                return True
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.mbrs.shape[0])

    def height(self) -> int:
        """Height of the tree (1 for a single leaf)."""
        height, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def iter_nodes(self) -> Iterable[RTreeNode]:
        """Depth-first iteration over all nodes (used by tests)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def range_query(self, region: Rectangle) -> np.ndarray:
        """Indices of all objects whose MBR intersects ``region``."""
        lows, highs = region.lows, region.highs
        hits: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if np.any(node.mbr[:, 0] > highs) or np.any(node.mbr[:, 1] < lows):
                continue
            if node.is_leaf:
                entry_mbrs = self.mbrs[node.entries]
                mask = np.all(
                    (entry_mbrs[..., 0] <= highs) & (entry_mbrs[..., 1] >= lows), axis=-1
                )
                hits.append(node.entries[mask])
            else:
                stack.extend(node.children)
        if not hits:
            return np.empty(0, dtype=int)
        return np.sort(np.concatenate(hits))

    def knn_candidates(
        self,
        query: Rectangle,
        k: int,
        p: float = 2.0,
        exclude: ExcludeSpec = None,
    ) -> np.ndarray:
        """Conservative kNN candidates via best-first MinDist traversal.

        Returns every object whose MinDist to the query does not exceed the
        ``k``-th smallest MaxDist seen — objects outside this set are always
        farther than at least ``k`` objects and can be pruned.  ``exclude``
        accepts the same specifications as the linear scan (boolean mask or
        iterable of positions, see :func:`repro.index.normalize_exclude`).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        exclude = exclude_set(exclude, self.mbrs.shape[0])
        query_arr = query.to_array()
        counter = itertools.count()

        def node_min_dist(node: RTreeNode) -> float:
            return float(min_dist_arrays(node.mbr[None, ...], query_arr, p)[0])

        heap: list[tuple[float, int, RTreeNode]] = [
            (node_min_dist(self.root), next(counter), self.root)
        ]
        max_dist_heap: list[float] = []  # max-heap (negated) of the k smallest MaxDists
        threshold = math.inf
        candidates: list[tuple[float, int]] = []  # (min_dist, object index)

        while heap:
            dist, _, node = heapq.heappop(heap)
            if dist > threshold:
                break
            if node.is_leaf:
                entries = np.array(
                    [i for i in node.entries if int(i) not in exclude], dtype=int
                )
                if entries.shape[0] == 0:
                    continue
                entry_mbrs = self.mbrs[entries]
                entry_min = min_dist_arrays(entry_mbrs, query_arr, p)
                entry_max = max_dist_arrays(entry_mbrs, query_arr, p)
                for idx, mn, mx in zip(entries, entry_min, entry_max):
                    candidates.append((float(mn), int(idx)))
                    heapq.heappush(max_dist_heap, -float(mx))
                    if len(max_dist_heap) > k:
                        heapq.heappop(max_dist_heap)
                    if len(max_dist_heap) == k:
                        threshold = -max_dist_heap[0]
            else:
                for child in node.children:
                    child_dist = node_min_dist(child)
                    if child_dist <= threshold:
                        heapq.heappush(heap, (child_dist, next(counter), child))

        result = [idx for mn, idx in candidates if mn <= threshold]
        return np.array(sorted(result), dtype=int)
