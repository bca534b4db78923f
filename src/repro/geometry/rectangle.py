"""Axis-aligned hyper-rectangles (minimum bounding rectangles, MBRs).

Every uncertain object in the paper's model is minimally bounded by a
``d``-dimensional rectangle.  The rectangle class below is the common currency
between the uncertainty model, the spatial-domination criteria, the index
structures and the decomposition machinery.

Rectangles are immutable; all operations return new instances.  A thin
vectorised representation (``Rectangle.to_array`` / ``Rectangle.from_array``)
is provided so that bulk computations over entire databases can run on numpy
arrays of shape ``(n, d, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .interval import Interval


@dataclass(frozen=True, slots=True)
class Rectangle:
    """A closed axis-aligned rectangle in ``R^d``.

    Parameters
    ----------
    intervals:
        One :class:`Interval` per dimension.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if len(self.intervals) == 0:
            raise ValueError("a rectangle needs at least one dimension")
        object.__setattr__(self, "intervals", tuple(self.intervals))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_bounds(lows: Sequence[float], highs: Sequence[float]) -> "Rectangle":
        """Build a rectangle from per-dimension lower and upper bounds."""
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have the same length")
        return Rectangle(tuple(Interval(float(l), float(h)) for l, h in zip(lows, highs)))

    @staticmethod
    def from_point(point: Sequence[float]) -> "Rectangle":
        """Build a degenerate rectangle representing a certain point."""
        return Rectangle.from_bounds(point, point)

    @staticmethod
    def from_center_extent(center: Sequence[float], extent: Sequence[float] | float) -> "Rectangle":
        """Build a rectangle from a center point and per-dimension full extents."""
        center = np.asarray(center, dtype=float)
        extent_arr = np.broadcast_to(np.asarray(extent, dtype=float), center.shape)
        half = 0.5 * extent_arr
        return Rectangle.from_bounds(center - half, center + half)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Rectangle":
        """Build a rectangle from an array of shape ``(d, 2)`` holding lo/hi."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected an array of shape (d, 2)")
        return Rectangle.from_bounds(arr[:, 0], arr[:, 1])

    @staticmethod
    def bounding(points: np.ndarray) -> "Rectangle":
        """Minimum bounding rectangle of a point set of shape ``(n, d)``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("expected a non-empty array of shape (n, d)")
        return Rectangle.from_bounds(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def dimensions(self) -> int:
        """Number of dimensions ``d``."""
        return len(self.intervals)

    @property
    def lows(self) -> np.ndarray:
        """Per-dimension lower bounds as a numpy array."""
        return np.array([iv.lo for iv in self.intervals], dtype=float)

    @property
    def highs(self) -> np.ndarray:
        """Per-dimension upper bounds as a numpy array."""
        return np.array([iv.hi for iv in self.intervals], dtype=float)

    @property
    def center(self) -> np.ndarray:
        """Center point of the rectangle."""
        return 0.5 * (self.lows + self.highs)

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.highs - self.lows

    @property
    def volume(self) -> float:
        """Lebesgue volume (product of side lengths)."""
        return float(np.prod(self.extents))

    @property
    def is_degenerate(self) -> bool:
        """True when the rectangle collapses to a single point."""
        return bool(np.all(self.extents == 0.0))

    def to_array(self) -> np.ndarray:
        """Return a ``(d, 2)`` array of lo/hi bounds."""
        return np.stack([self.lows, self.highs], axis=1)

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, point: Sequence[float]) -> bool:
        """Return True when ``point`` lies inside the closed rectangle."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lows) and np.all(p <= self.highs))

    def contains_rectangle(self, other: "Rectangle") -> bool:
        """Return True when ``other`` is completely inside this rectangle."""
        return all(a.contains_interval(b) for a, b in zip(self.intervals, other.intervals))

    def intersects(self, other: "Rectangle") -> bool:
        """Return True when the two rectangles share at least one point."""
        return all(a.intersects(b) for a, b in zip(self.intervals, other.intervals))

    # ------------------------------------------------------------------ #
    # set-style operations
    # ------------------------------------------------------------------ #
    def intersection(self, other: "Rectangle") -> "Rectangle | None":
        """Return the overlap rectangle or ``None`` when disjoint."""
        parts = []
        for a, b in zip(self.intervals, other.intervals):
            inter = a.intersection(b)
            if inter is None:
                return None
            parts.append(inter)
        return Rectangle(tuple(parts))

    def union(self, other: "Rectangle") -> "Rectangle":
        """Smallest rectangle covering both operands."""
        return Rectangle(tuple(a.union(b) for a, b in zip(self.intervals, other.intervals)))

    def split(self, axis: int, at: float | None = None) -> tuple["Rectangle", "Rectangle"]:
        """Split the rectangle along ``axis`` at coordinate ``at``.

        The default split point is the midpoint of the chosen axis.  This is
        the geometric primitive used by the kd-tree decomposition of
        uncertainty regions (Section V of the paper).
        """
        if not 0 <= axis < self.dimensions:
            raise ValueError(f"axis {axis} out of range for {self.dimensions} dimensions")
        left_iv, right_iv = self.intervals[axis].split(at)
        left = list(self.intervals)
        right = list(self.intervals)
        left[axis] = left_iv
        right[axis] = right_iv
        return Rectangle(tuple(left)), Rectangle(tuple(right))

    def widest_axis(self) -> int:
        """Index of the dimension with the largest extent."""
        return int(np.argmax(self.extents))

    def clamp_point(self, point: Sequence[float]) -> np.ndarray:
        """Project a point onto the rectangle."""
        p = np.asarray(point, dtype=float)
        return np.minimum(np.maximum(p, self.lows), self.highs)

    # ------------------------------------------------------------------ #
    # iteration helpers
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, axis: int) -> Interval:
        return self.intervals[axis]

    def corners(self) -> np.ndarray:
        """All ``2^d`` corner points, shape ``(2^d, d)``.

        Only intended for small ``d`` (the paper evaluates on 2-D data); the
        corner enumeration is used by tests and by the reference
        implementation of the domination criterion.
        """
        d = self.dimensions
        lows, highs = self.lows, self.highs
        corners = np.empty((2 ** d, d), dtype=float)
        for code in range(2 ** d):
            for axis in range(d):
                corners[code, axis] = highs[axis] if (code >> axis) & 1 else lows[axis]
        return corners


def rectangles_to_array(rectangles: Iterable[Rectangle]) -> np.ndarray:
    """Stack rectangles into a numpy array of shape ``(n, d, 2)``.

    The array layout ``[..., 0]`` = lows and ``[..., 1]`` = highs is the
    convention used by all vectorised geometry kernels in this package.
    """
    rects = list(rectangles)
    if not rects:
        raise ValueError("cannot stack an empty collection of rectangles")
    d = rects[0].dimensions
    out = np.empty((len(rects), d, 2), dtype=float)
    for i, r in enumerate(rects):
        if r.dimensions != d:
            raise ValueError("all rectangles must have the same dimensionality")
        out[i, :, 0] = r.lows
        out[i, :, 1] = r.highs
    return out
