"""Spatial domination criteria on rectangular uncertainty regions.

Given three axis-aligned rectangles ``A``, ``B`` and ``R``, *spatial (complete)
domination* asks whether **every** point of ``A`` is closer to **every** point
of ``R`` than **every** point of ``B`` is — i.e. whether
``dist(a, r) < dist(b, r)`` for all ``a in A``, ``b in B``, ``r in R``.

Two decision criteria are implemented:

* :func:`dominates_minmax` — the classical criterion
  ``MaxDist(A, R) < MinDist(B, R)``.  Correct but not tight: it ignores that
  the two distances depend on the *same* location of ``R``.
* :func:`dominates_optimal` — the optimal criterion of Emrich et al.
  (SIGMOD 2010), restated as Corollary 1 in the paper::

      sum_i  max_{r_i in {R_i^min, R_i^max}}
             ( MaxDist(A_i, r_i)^p - MinDist(B_i, r_i)^p )  <  0

  which is a *necessary and sufficient* condition for complete domination
  under any ``Lp`` norm with finite ``p``.

Both criteria also come in vectorised forms operating on ``(n, d, 2)`` arrays
so the complete-domination filter step of IDCA can scan an entire database
with a handful of numpy operations.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .metrics import _validate_p
from .rectangle import Rectangle

__all__ = [
    "dominates_minmax",
    "dominates_optimal",
    "dominates",
    "domination_bulk",
    "DominationCriterion",
]

DominationCriterion = Literal["optimal", "minmax"]


# ---------------------------------------------------------------------- #
# scalar criteria
# ---------------------------------------------------------------------- #
def dominates_minmax(a: Rectangle, b: Rectangle, r: Rectangle, p: float = 2.0) -> bool:
    """Min/Max decision criterion: ``MaxDist(A, R) < MinDist(B, R)``.

    Sufficient but not necessary for complete domination; kept as the
    state-of-the-art baseline the paper compares against (Figure 6).
    """
    from .metrics import max_dist, min_dist

    return max_dist(a, r, p) < min_dist(b, r, p)


def dominates_optimal(a: Rectangle, b: Rectangle, r: Rectangle, p: float = 2.0) -> bool:
    """Optimal decision criterion (Corollary 1 / ``DDCOptimal`` in Algorithm 1).

    Returns True iff ``A`` completely dominates ``B`` with respect to ``R``,
    i.e. ``PDom(A, B, R) = 1`` regardless of the PDFs inside the rectangles.

    The criterion requires a finite ``p``; for the Chebyshev norm fall back to
    :func:`dominates_minmax`.
    """
    if math.isinf(p):
        raise ValueError("the optimal criterion requires a finite p; use dominates_minmax")
    _validate_p(p)

    total = 0.0
    for ai, bi, ri in zip(a.intervals, b.intervals, r.intervals):
        worst = -math.inf
        for r_corner in (ri.lo, ri.hi):
            max_a = ai.max_dist_to_point(r_corner)
            min_b = bi.min_dist_to_point(r_corner)
            value = max_a ** p - min_b ** p
            if value > worst:
                worst = value
        total += worst
    return total < 0.0


def dominates(
    a: Rectangle,
    b: Rectangle,
    r: Rectangle,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> bool:
    """Dispatch to the requested complete-domination criterion."""
    if criterion == "optimal":
        return dominates_optimal(a, b, r, p)
    if criterion == "minmax":
        return dominates_minmax(a, b, r, p)
    raise ValueError(f"unknown domination criterion: {criterion!r}")


# ---------------------------------------------------------------------- #
# vectorised criteria
# ---------------------------------------------------------------------- #
def _max_dist_interval_point(lo: np.ndarray, hi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-dimension maximal distance between intervals [lo, hi] and points r."""
    return np.maximum(np.abs(r - lo), np.abs(r - hi))


def _min_dist_interval_point(lo: np.ndarray, hi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-dimension minimal distance between intervals [lo, hi] and points r."""
    return np.maximum(np.maximum(lo - r, r - hi), 0.0)


def domination_bulk(
    a_rects: np.ndarray,
    b_rects: np.ndarray,
    r_rect: np.ndarray,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> np.ndarray:
    """Vectorised complete-domination test.

    Parameters
    ----------
    a_rects, b_rects, r_rect:
        Arrays broadcastable to a common shape ``(..., d, 2)`` holding the
        rectangles of the (potential) dominators, dominatees and reference
        regions.  Typically ``r_rect`` is a single rectangle of shape
        ``(d, 2)`` and one of ``a_rects`` / ``b_rects`` a database of shape
        ``(n, d, 2)``; the batched pair-bounds kernel instead passes the
        ``(1, 1, T, d, 2)`` concatenated candidate partitions against
        ``(n_b, 1, 1, d, 2)`` target and ``(1, n_r, 1, d, 2)`` reference
        grids, evaluating every (pair, candidate partition) combination in
        one call.
    p:
        Finite ``Lp`` norm parameter (``p >= 1``).
    criterion:
        ``"optimal"`` (Corollary 1) or ``"minmax"``.

    Returns
    -------
    numpy.ndarray
        Boolean array of the broadcast shape ``(...)`` — entry ``i`` is True
        iff ``A_i`` completely dominates ``B_i`` w.r.t. ``R_i``.
    """
    _validate_p(p)
    if math.isinf(p):
        raise ValueError("domination_bulk requires a finite p")

    a_rects = np.asarray(a_rects, dtype=float)
    b_rects = np.asarray(b_rects, dtype=float)
    r_rect = np.asarray(r_rect, dtype=float)

    a_lo, a_hi = a_rects[..., 0], a_rects[..., 1]
    b_lo, b_hi = b_rects[..., 0], b_rects[..., 1]
    r_lo, r_hi = r_rect[..., 0], r_rect[..., 1]

    if criterion == "optimal":
        # evaluate the per-dimension term at both corners of R and keep the worst
        term_lo = (
            _max_dist_interval_point(a_lo, a_hi, r_lo) ** p
            - _min_dist_interval_point(b_lo, b_hi, r_lo) ** p
        )
        term_hi = (
            _max_dist_interval_point(a_lo, a_hi, r_hi) ** p
            - _min_dist_interval_point(b_lo, b_hi, r_hi) ** p
        )
        total = np.maximum(term_lo, term_hi).sum(axis=-1)
        return total < 0.0

    if criterion == "minmax":
        # MaxDist(A, R) < MinDist(B, R) on rectangles
        max_a = np.maximum(np.abs(r_hi - a_lo), np.abs(a_hi - r_lo))
        gap_lo = r_lo - b_hi
        gap_hi = b_lo - r_hi
        min_b = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
        max_a_dist = np.sum(max_a ** p, axis=-1)
        min_b_dist = np.sum(min_b ** p, axis=-1)
        return max_a_dist < min_b_dist

    raise ValueError(f"unknown domination criterion: {criterion!r}")
