"""Vectorised linear-scan primitives over object MBRs.

For moderately sized databases (the paper evaluates up to 100,000 objects) a
numpy scan over the ``(n, d, 2)`` MBR array is often faster than an index
traversal in pure Python; these helpers are therefore the default candidate
generators of the query layer, with the R-tree as the index-based alternative.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    Rectangle,
    max_dist_arrays,
    min_dist_arrays,
)
from .exclude import ExcludeSpec, exclude_mask

__all__ = [
    "min_dist_order",
    "knn_candidates",
    "range_candidates",
]


def min_dist_order(mbrs: np.ndarray, query: Rectangle, p: float = 2.0) -> np.ndarray:
    """Indices of all objects ordered by increasing MinDist to ``query``."""
    dists = min_dist_arrays(mbrs, query.to_array(), p)
    return np.argsort(dists, kind="stable")


def knn_candidates(
    mbrs: np.ndarray,
    query: Rectangle,
    k: int,
    p: float = 2.0,
    exclude: ExcludeSpec = None,
    *,
    min_dists: np.ndarray | None = None,
) -> np.ndarray:
    """Conservative kNN candidate set based on MinDist / MaxDist.

    An object whose MinDist to the query exceeds the ``k``-th smallest MaxDist
    of the other objects is always farther than at least ``k`` objects, hence
    has zero probability of being a k-nearest neighbour and can be dropped
    before any probabilistic computation.

    Parameters
    ----------
    mbrs:
        Object MBRs, shape ``(n, d, 2)``.
    query:
        Query rectangle.
    k:
        Number of nearest neighbours of the query predicate.
    exclude:
        Optional exclusion specification — a boolean mask of length ``n`` or
        any iterable of positions (see :func:`repro.index.normalize_exclude`);
        excluded objects are neither returned nor used for the pruning
        distance (e.g. the query itself).
    min_dists:
        Optional precomputed ``min_dist_arrays(mbrs, query.to_array(), p)``,
        for callers that need the same profile elsewhere.

    Returns
    -------
    numpy.ndarray
        Sorted array of candidate indices.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    query_arr = query.to_array()
    if min_dists is None:
        min_dists = min_dist_arrays(mbrs, query_arr, p)
    elif min_dists.shape != (mbrs.shape[0],):
        raise ValueError("min_dists must hold one distance per MBR")
    max_dists = max_dist_arrays(mbrs, query_arr, p)
    valid = ~exclude_mask(exclude, mbrs.shape[0])
    valid_max = max_dists[valid]
    if valid_max.shape[0] <= k:
        return np.flatnonzero(valid)
    # the k-th smallest MaxDist: a selection, not a full sort
    threshold = np.partition(valid_max, k - 1)[k - 1]
    return np.flatnonzero(valid & (min_dists <= threshold))


def range_candidates(mbrs: np.ndarray, region: Rectangle) -> np.ndarray:
    """Indices of objects whose MBR intersects ``region``."""
    lows, highs = region.lows, region.highs
    overlap = np.all((mbrs[..., 0] <= highs) & (mbrs[..., 1] >= lows), axis=-1)
    return np.flatnonzero(overlap)
