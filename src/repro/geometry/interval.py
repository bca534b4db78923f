"""One-dimensional closed intervals.

Intervals are the building block of the rectangular uncertainty regions used
throughout the paper: every uncertain object is (minimally) bounded by an
axis-aligned rectangle, and the optimal spatial-domination criterion
(Corollary 1) is evaluated per dimension on the projection intervals of the
object rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``[lo, hi]`` on the real line.

    Degenerate intervals (``lo == hi``) are allowed and represent certain
    (point) attribute values.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(
                f"invalid interval: hi ({self.hi}) must be >= lo ({self.lo})"
            )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> float:
        """Extent of the interval (``hi - lo``)."""
        return self.hi - self.lo

    @property
    def center(self) -> float:
        """Midpoint of the interval."""
        return 0.5 * (self.lo + self.hi)

    @property
    def is_degenerate(self) -> bool:
        """True when the interval is a single point."""
        return self.hi == self.lo

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def contains(self, x: float) -> bool:
        """Return True when ``x`` lies inside the closed interval."""
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Return True when ``other`` is completely inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """Return True when the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------ #
    # set-style operations
    # ------------------------------------------------------------------ #
    def intersection(self, other: "Interval") -> "Interval | None":
        """Return the overlapping interval or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def union(self, other: "Interval") -> "Interval":
        """Return the smallest interval covering both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def split(self, at: float | None = None) -> tuple["Interval", "Interval"]:
        """Split into two sub-intervals at ``at`` (defaults to the midpoint).

        The split point must lie inside the interval; the two halves share the
        split point as boundary, which is fine for continuous distributions
        (the boundary has zero mass).
        """
        point = self.center if at is None else at
        if not self.contains(point):
            raise ValueError(f"split point {point} outside interval {self}")
        return Interval(self.lo, point), Interval(point, self.hi)

    # ------------------------------------------------------------------ #
    # distances (used by MinDist / MaxDist in Corollary 1)
    # ------------------------------------------------------------------ #
    def min_dist_to_point(self, x: float) -> float:
        """Minimal distance between a point and the interval (0 if inside)."""
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return 0.0

    def max_dist_to_point(self, x: float) -> float:
        """Maximal distance between a point and the interval."""
        return max(abs(x - self.lo), abs(x - self.hi))

    def min_dist_to_interval(self, other: "Interval") -> float:
        """Minimal distance between two intervals (0 if they overlap)."""
        if self.intersects(other):
            return 0.0
        if self.hi < other.lo:
            return other.lo - self.hi
        return self.lo - other.hi

    def max_dist_to_interval(self, other: "Interval") -> float:
        """Maximal distance between any two points of the intervals."""
        return max(abs(other.hi - self.lo), abs(self.hi - other.lo))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def clamp(self, x: float) -> float:
        """Project ``x`` onto the interval."""
        return min(max(x, self.lo), self.hi)

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    @staticmethod
    def hull(values: Sequence[float]) -> "Interval":
        """Smallest interval containing all ``values``."""
        if len(values) == 0:
            raise ValueError("cannot build the hull of an empty sequence")
        return Interval(min(values), max(values))
