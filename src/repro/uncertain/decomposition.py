"""kd-tree style decomposition of uncertainty regions.

Section V of the paper refines the probabilistic domination bounds by
progressively splitting uncertainty regions with a *median-split-based
bisection* organised in a kd-tree: every node represents a sub-region of the
object's uncertainty region together with the exact probability that the
object falls into that sub-region.  With median splits, a node at level ``l``
carries mass ``2^-l`` for continuous objects; for discrete objects the exact
(possibly uneven) masses are used.

The tree is built lazily and cached per object, so repeated IDCA iterations,
queries and benchmark runs reuse previously computed partitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional

import numpy as np

from ..geometry import Rectangle
from .base import UncertainObject

__all__ = [
    "Partition",
    "DecompositionNode",
    "DecompositionTree",
    "CSRPartitionBatch",
    "csr_partitions_batch",
    "clear_csr_cache",
    "decompose_object",
]

AxisPolicy = Literal["round_robin", "widest"]

_MASS_EPS = 1e-15

# process-unique tree tokens; unlike id(), tokens are never reused after a
# tree is garbage collected, so caches may key partition sets by
# (tree token, depth) and still evict trees safely
_TREE_TOKENS = itertools.count()


@dataclass(frozen=True)
class Partition:
    """A sub-region of an uncertainty region with its exact probability mass."""

    region: Rectangle
    probability: float


@dataclass(slots=True)
class DecompositionNode:
    """A node of the decomposition kd-tree."""

    region: Rectangle
    probability: float
    depth: int
    children: Optional[tuple["DecompositionNode", "DecompositionNode"]] = None
    splittable: bool = True

    def as_partition(self) -> Partition:
        """View of the node as a :class:`Partition`."""
        return Partition(self.region, self.probability)


@dataclass
class DecompositionTree:
    """Lazily-grown decomposition kd-tree of one uncertain object.

    Parameters
    ----------
    obj:
        The uncertain object to decompose.
    axis_policy:
        ``"round_robin"`` cycles through dimensions by depth (the classical
        kd-tree policy described in the paper); ``"widest"`` always splits the
        dimension with the largest extent, which tends to produce squarer
        partitions and tighter domination bounds for elongated regions.
    max_depth:
        Hard cap ``h`` on the tree height (Section V discusses the
        quality/efficiency trade-off of ``h``).  ``None`` means unbounded.
    """

    obj: UncertainObject
    axis_policy: AxisPolicy = "round_robin"
    max_depth: Optional[int] = None
    _root: DecompositionNode = field(init=False)
    _materialised_depth: int = field(init=False, default=0)
    _arrays_cache: dict[int, tuple[np.ndarray, np.ndarray]] = field(init=False)
    token: int = field(init=False)

    def __post_init__(self) -> None:
        self._root = DecompositionNode(
            region=self.obj.mbr,
            probability=self.obj.existence_probability,
            depth=0,
        )
        self._arrays_cache = {}
        self.token = next(_TREE_TOKENS)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _split_axes(self, node: DecompositionNode) -> list[int]:
        """Candidate split axes for a node, most preferred first."""
        d = node.region.dimensions
        if self.axis_policy == "widest":
            order = list(np.argsort(-node.region.extents))
        else:
            start = node.depth % d
            order = [(start + i) % d for i in range(d)]
        return [int(axis) for axis in order]

    def _expand(self, node: DecompositionNode) -> None:
        """Create the children of ``node`` if possible."""
        if node.children is not None or not node.splittable:
            return
        if self.max_depth is not None and node.depth >= self.max_depth:
            node.splittable = False
            return
        if node.probability <= _MASS_EPS:
            node.splittable = False
            return
        for axis in self._split_axes(node):
            result = self.obj.decompose(node.region, axis)
            if result is None:
                continue
            left_region, right_region, left_mass, right_mass = result
            if left_mass <= _MASS_EPS and right_mass <= _MASS_EPS:
                continue
            node.children = (
                DecompositionNode(left_region, left_mass, node.depth + 1),
                DecompositionNode(right_region, right_mass, node.depth + 1),
            )
            return
        node.splittable = False

    def materialise(self, depth: int) -> None:
        """Ensure all nodes up to ``depth`` exist."""
        if depth <= self._materialised_depth:
            return
        frontier = list(self._iter_frontier(self._materialised_depth))
        for level in range(self._materialised_depth, depth):
            next_frontier: list[DecompositionNode] = []
            for node in frontier:
                if node.depth != level:
                    next_frontier.append(node)
                    continue
                self._expand(node)
                if node.children is not None:
                    next_frontier.extend(node.children)
                else:
                    next_frontier.append(node)
            frontier = next_frontier
        self._materialised_depth = depth

    def _iter_frontier(self, depth: int) -> Iterator[DecompositionNode]:
        """Nodes that make up the partitioning at ``depth``.

        These are the nodes at exactly ``depth`` plus unsplittable leaves above
        it; together they form a disjoint cover of the uncertainty region.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.depth == depth or node.children is None:
                yield node
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> DecompositionNode:
        """Root node covering the whole uncertainty region."""
        return self._root

    def partitions(self, depth: int) -> list[Partition]:
        """Disjoint partitions of the uncertainty region at ``depth``.

        Partitions with zero probability mass are dropped — they correspond to
        empty sets of possible worlds and cannot influence any bound.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if self.max_depth is not None:
            depth = min(depth, self.max_depth)
        self.materialise(depth)
        return [
            node.as_partition()
            for node in self._iter_frontier(depth)
            if node.probability > _MASS_EPS
        ]

    def partitions_arrays(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Partitions at ``depth`` as ``(regions, masses)`` numpy arrays.

        ``regions`` has shape ``(k, d, 2)``, ``masses`` shape ``(k,)``; this is
        the representation consumed by the vectorised bound computations and
        concatenated by :func:`csr_partitions_batch`.  The arrays are cached
        per depth (the frontier at a depth never changes once built) and must
        be treated as read-only — IDCA iterations, the shared refinement
        context and repeated queries all reuse them.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if self.max_depth is not None:
            depth = min(depth, self.max_depth)
        cached = self._arrays_cache.get(depth)
        if cached is not None:
            return cached
        parts = self.partitions(depth)
        d = self.obj.dimensions
        regions = np.empty((len(parts), d, 2), dtype=float)
        masses = np.empty(len(parts), dtype=float)
        for i, part in enumerate(parts):
            regions[i, :, 0] = part.region.lows
            regions[i, :, 1] = part.region.highs
            masses[i] = part.probability
        self._arrays_cache[depth] = (regions, masses)
        return regions, masses

    def num_partitions(self, depth: int) -> int:
        """Number of non-empty partitions at ``depth``."""
        return len(self.partitions(depth))


# ---------------------------------------------------------------------- #
# ragged CSR candidate batches
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CSRPartitionBatch:
    """Ragged CSR view of several trees' partition sets, batched together.

    ``regions`` is the row-wise concatenation of every candidate's cached
    ``(k_i, d, 2)`` partition rectangles, ``masses`` the matching probability
    masses, and ``offsets`` the ``(num_candidates + 1,)`` monotone row
    offsets: candidate ``i`` owns rows ``offsets[i]:offsets[i + 1]`` and
    nothing else, so candidates at mixed adaptive depths batch together at
    exactly their own partition counts.

    The arrays are marked read-only.
    """

    regions: np.ndarray
    masses: np.ndarray
    offsets: np.ndarray

    @property
    def num_candidates(self) -> int:
        """Number of candidates batched together."""
        return self.offsets.shape[0] - 1

    @property
    def total_partitions(self) -> int:
        """Total partition rows across all candidates."""
        return self.masses.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Per-candidate partition counts, ``(num_candidates,)``."""
        return self.offsets[1:] - self.offsets[:-1]


def clear_csr_cache() -> None:
    """Does nothing: CSR batches are not cached (kept for existing callers).

    :func:`csr_partitions_batch` concatenates the trees' per-depth cached
    partition arrays afresh on every call, which takes tens of microseconds.
    """


def csr_partitions_batch(
    trees: list["DecompositionTree"], depths: list[int]
) -> CSRPartitionBatch:
    """Batch several trees' partition sets into one ragged CSR layout.

    ``depths[i]`` is the requested decomposition depth for ``trees[i]``
    (clamped by each tree's ``max_depth``, exactly like
    :meth:`DecompositionTree.partitions_arrays`).  The batch concatenates the
    per-depth cached base arrays of every tree.

    Returns a :class:`CSRPartitionBatch` whose arrays are read-only; an empty
    ``trees`` list yields a zero-candidate batch with ``offsets == [0]``.
    """
    if len(trees) != len(depths):
        raise ValueError("trees and depths must have the same length")
    parts = [tree.partitions_arrays(int(depth)) for tree, depth in zip(trees, depths)]
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    for i, (_, masses) in enumerate(parts):
        offsets[i + 1] = offsets[i] + masses.shape[0]
    if parts:
        d = parts[0][0].shape[1]
        regions = np.concatenate([regions for regions, _ in parts], axis=0)
        masses = np.concatenate([masses for _, masses in parts], axis=0)
        regions = regions.reshape(int(offsets[-1]), d, 2)
    else:
        regions = np.empty((0, 0, 2), dtype=float)
        masses = np.empty(0, dtype=float)
    regions.setflags(write=False)
    masses.setflags(write=False)
    offsets.setflags(write=False)
    return CSRPartitionBatch(regions=regions, masses=masses, offsets=offsets)


def decompose_object(
    obj: UncertainObject,
    depth: int,
    axis_policy: AxisPolicy = "round_robin",
    max_depth: Optional[int] = None,
) -> list[Partition]:
    """Convenience helper: partitions of ``obj`` at ``depth`` (fresh tree)."""
    tree = DecompositionTree(obj, axis_policy=axis_policy, max_depth=max_depth)
    return tree.partitions(depth)
