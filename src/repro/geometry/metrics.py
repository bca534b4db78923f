"""Distance functions and MinDist / MaxDist approximations.

The paper assumes Euclidean distance but explicitly notes that every result
holds for arbitrary ``Lp`` norms.  All geometry kernels in this package are
therefore parameterised by ``p`` (``p = 2`` by default, ``p = math.inf`` for
the Chebyshev norm).

Two families of functions are provided:

* scalar functions working on :class:`~repro.geometry.rectangle.Rectangle`
  instances, used by the reference implementations and by index traversal;
* vectorised kernels working on arrays of shape ``(n, d, 2)`` produced by
  :func:`~repro.geometry.rectangle.rectangles_to_array`, used by the bulk
  filter steps over whole databases.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .rectangle import Rectangle

__all__ = [
    "lp_distance",
    "min_dist_point",
    "max_dist_point",
    "min_dist",
    "max_dist",
    "min_dist_arrays",
    "max_dist_arrays",
    "min_dist_point_arrays",
    "max_dist_point_arrays",
]


def _validate_p(p: float) -> float:
    """``p`` as a float, or ``ValueError`` unless ``p >= 1`` (``inf`` passes).

    Written as ``not p >= 1`` so that NaN — for which every comparison is
    false — is rejected instead of slipping through a ``p < 1`` test.
    """
    if not p >= 1:
        raise ValueError(f"Lp norms require p >= 1, got {p}")
    return float(p)


def lp_distance(a: Sequence[float], b: Sequence[float], p: float = 2.0) -> float:
    """``Lp`` distance between two points."""
    p = _validate_p(p)
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if math.isinf(p):
        return float(diff.max())
    return float(np.sum(diff ** p) ** (1.0 / p))


# ---------------------------------------------------------------------- #
# scalar rectangle distances
# ---------------------------------------------------------------------- #
def min_dist_point(rect: Rectangle, point: Sequence[float], p: float = 2.0) -> float:
    """Minimal ``Lp`` distance between a rectangle and a point."""
    p = _validate_p(p)
    per_dim = np.array(
        [iv.min_dist_to_point(float(x)) for iv, x in zip(rect.intervals, point)]
    )
    if math.isinf(p):
        return float(per_dim.max())
    return float(np.sum(per_dim ** p) ** (1.0 / p))


def max_dist_point(rect: Rectangle, point: Sequence[float], p: float = 2.0) -> float:
    """Maximal ``Lp`` distance between a rectangle and a point."""
    p = _validate_p(p)
    per_dim = np.array(
        [iv.max_dist_to_point(float(x)) for iv, x in zip(rect.intervals, point)]
    )
    if math.isinf(p):
        return float(per_dim.max())
    return float(np.sum(per_dim ** p) ** (1.0 / p))


def min_dist(a: Rectangle, b: Rectangle, p: float = 2.0) -> float:
    """Minimal ``Lp`` distance between two rectangles (0 when they overlap)."""
    p = _validate_p(p)
    per_dim = np.array(
        [ia.min_dist_to_interval(ib) for ia, ib in zip(a.intervals, b.intervals)]
    )
    if math.isinf(p):
        return float(per_dim.max())
    return float(np.sum(per_dim ** p) ** (1.0 / p))


def max_dist(a: Rectangle, b: Rectangle, p: float = 2.0) -> float:
    """Maximal ``Lp`` distance between two rectangles."""
    p = _validate_p(p)
    per_dim = np.array(
        [ia.max_dist_to_interval(ib) for ia, ib in zip(a.intervals, b.intervals)]
    )
    if math.isinf(p):
        return float(per_dim.max())
    return float(np.sum(per_dim ** p) ** (1.0 / p))


# ---------------------------------------------------------------------- #
# vectorised kernels on (n, d, 2) arrays
# ---------------------------------------------------------------------- #
def _aggregate(per_dim: np.ndarray, p: float) -> np.ndarray:
    """Aggregate per-dimension distances into an Lp norm along the last axis."""
    if math.isinf(p):
        return per_dim.max(axis=-1)
    return np.sum(per_dim ** p, axis=-1) ** (1.0 / p)


def min_dist_point_arrays(rects: np.ndarray, point: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Minimal distances between ``n`` rectangles and a point, vectorised.

    ``rects`` has shape ``(n, d, 2)``; the result has shape ``(n,)``.
    """
    p = _validate_p(p)
    point = np.asarray(point, dtype=float)
    below = np.maximum(rects[..., 0] - point, 0.0)
    above = np.maximum(point - rects[..., 1], 0.0)
    return _aggregate(below + above, p)


def max_dist_point_arrays(rects: np.ndarray, point: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Maximal distances between ``n`` rectangles and a point, vectorised."""
    p = _validate_p(p)
    point = np.asarray(point, dtype=float)
    per_dim = np.maximum(np.abs(point - rects[..., 0]), np.abs(point - rects[..., 1]))
    return _aggregate(per_dim, p)


def min_dist_arrays(rects: np.ndarray, other: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Minimal distances between rectangles, fully broadcast.

    ``rects`` and ``other`` may be any shapes broadcastable to a common
    ``(..., d, 2)`` — the classical case is ``(n, d, 2)`` against ``(d, 2)``,
    but batched kernels pass higher-rank grids (e.g. ``(n, 1, d, 2)`` against
    ``(1, m, d, 2)`` for all-pairs distances in one call).
    """
    p = _validate_p(p)
    other = np.asarray(other, dtype=float)
    gap_lo = other[..., 0] - rects[..., 1]  # other entirely above rects
    gap_hi = rects[..., 0] - other[..., 1]  # other entirely below rects
    per_dim = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
    return _aggregate(per_dim, p)


def max_dist_arrays(rects: np.ndarray, other: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Maximal distances between rectangles, broadcast like :func:`min_dist_arrays`."""
    p = _validate_p(p)
    other = np.asarray(other, dtype=float)
    per_dim = np.maximum(
        np.abs(other[..., 1] - rects[..., 0]), np.abs(rects[..., 1] - other[..., 0])
    )
    return _aggregate(per_dim, p)
