"""Probabilistic domination count (Section IV of the paper).

The *domination count* ``DomCount(B, R)`` of an object ``B`` w.r.t. a
reference object ``R`` is the random variable counting how many database
objects are closer to ``R`` than ``B``.  This module turns per-object
domination-probability bounds into bounds on the PMF and CDF of
``DomCount(B, R)`` using the uncertain generating function, and aggregates the
per-partition-pair results of the disjunctive-world refinement
(Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .generating_functions import UncertainGeneratingFunction, ugf_pmf_bounds_batch

__all__ = [
    "DominationCountBounds",
    "domination_count_bounds",
    "domination_count_bounds_batch",
    "combine_weighted_bounds",
    "combine_weighted_bounds_arrays",
]


@dataclass(frozen=True)
class DominationCountBounds:
    """Lower/upper bounds of the PMF of a domination count.

    Attributes
    ----------
    lower, upper:
        Arrays of identical length; ``lower[k] <= P(DomCount = k) <= upper[k]``
        for every stored count ``k``.  Without truncation they hold one cell
        per count ``0..max_count``.  When a truncation bound ``k_cap`` was
        used (Section VI) they hold ``min(max_count, k_cap + 1) + 1`` cells:
        counts ``0..k_cap`` plus — when ``k_cap < max_count`` — one final
        *overflow* cell bracketing ``P(DomCount > k_cap)`` (always ``[0, 1]``
        or ``[0, 0]``, never tightened).  ``len()`` is the number of stored
        cells.
    k_cap:
        The truncation bound used during construction, if any.
    max_count:
        Largest count that is logically possible (the number of objects the
        count ranges over); defaults to ``len(lower) - 1``.  Only a truncated
        result can have ``max_count > len() - 1``.
    """

    lower: np.ndarray
    upper: np.ndarray
    k_cap: Optional[int] = None
    max_count: Optional[int] = None

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(lower > upper + 1e-9):
            raise ValueError("lower bounds must not exceed upper bounds")
        stored = lower.shape[0] - 1
        max_count = stored if self.max_count is None else int(self.max_count)
        if stored not in (max_count, _stored_cells(max_count, self.k_cap) - 1):
            raise ValueError("max_count disagrees with the number of stored cells")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "max_count", max_count)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.lower.shape[0])

    def _valid_k(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if self.k_cap is not None and k > self.k_cap:
            raise ValueError(f"count {k} exceeds the truncation bound k_cap={self.k_cap}")

    def pmf_bounds(self, k: int) -> tuple[float, float]:
        """Bounds of ``P(DomCount = k)``."""
        self._valid_k(k)
        if k >= len(self):
            return 0.0, 0.0
        return float(self.lower[k]), float(self.upper[k])

    def cdf_bounds(self, k: int) -> tuple[float, float]:
        """Bounds of ``P(DomCount <= k)``.

        The bounds are derived from the PMF bounds while respecting that the
        true PMF sums to 1: the lower CDF bound is the larger of the summed
        lower bounds and ``1 -`` the upper mass above ``k`` (and dually for
        the upper bound).
        """
        self._valid_k(k)
        if k >= len(self) - 1:
            return 1.0, 1.0
        lower_sum = float(self.lower[: k + 1].sum())
        upper_sum = float(self.upper[: k + 1].sum())
        lower_tail = float(self.lower[k + 1 :].sum())
        upper_tail = float(self.upper[k + 1 :].sum())
        lower = max(lower_sum, 1.0 - upper_tail)
        upper = min(upper_sum, 1.0 - lower_tail)
        lower = min(max(lower, 0.0), 1.0)
        upper = min(max(upper, lower), 1.0)
        return lower, upper

    def less_than(self, k: int) -> tuple[float, float]:
        """Bounds of ``P(DomCount < k)`` — the kNN predicate of Corollary 4."""
        if k <= 0:
            return 0.0, 0.0
        return self.cdf_bounds(k - 1)

    def uncertainty(self) -> float:
        """Total bound width ``sum_k (upper[k] - lower[k])``.

        This is the "accumulated uncertainty" quality measure the paper plots
        in Figures 6(b) and 7.  For a truncated result it is the width over
        the stored cells only — counts ``0..k_cap`` plus the overflow cell,
        which stands in for what used to be up to ``max_count - k_cap``
        vacuous cells — so it is not comparable with an untruncated width.
        It feeds no query result document (threshold queries schedule and
        stop on :meth:`less_than`); a truncated run stopped by
        ``UncertaintyBelow`` sees the smaller number.
        """
        return float(np.sum(self.upper - self.lower))

    def expected_count_bounds(self) -> tuple[float, float]:
        """Bounds of ``E[DomCount]`` via the tail-sum formula.

        ``E[X] = sum_{k >= 1} P(X >= k)`` with ``P(X >= k)`` bracketed by the
        complementary CDF bounds.  Every :meth:`cdf_bounds` value is taken at
        once from prefix and suffix sums, with the same clamping, so the cost
        is ``O(len)``; the sums associate differently from per-count
        ``sum()`` calls and the result may differ in the last ulps.  Only
        available without truncation.
        """
        if self.k_cap is not None:
            raise ValueError("expected-count bounds require an untruncated result")
        if len(self) < 2:
            return 0.0, 0.0
        # cdf_bounds(k) for k = 0 .. len - 2: prefix sums over counts <= k,
        # suffix sums over counts > k
        prefix_lower = np.cumsum(self.lower)[:-1]
        prefix_upper = np.cumsum(self.upper)[:-1]
        suffix_lower = np.cumsum(self.lower[::-1])[-2::-1]
        suffix_upper = np.cumsum(self.upper[::-1])[-2::-1]
        cdf_lower = np.clip(np.maximum(prefix_lower, 1.0 - suffix_upper), 0.0, 1.0)
        cdf_upper = np.minimum(
            np.maximum(np.minimum(prefix_upper, 1.0 - suffix_lower), cdf_lower), 1.0
        )
        return float(np.sum(1.0 - cdf_upper)), float(np.sum(1.0 - cdf_lower))

    def is_exact(self, tolerance: float = 1e-9) -> bool:
        """True when the bounds have converged to a single PMF."""
        return bool(np.all(self.upper - self.lower <= tolerance))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def vacuous(length: int, k_cap: Optional[int] = None) -> "DominationCountBounds":
        """The trivial bounds ``[0, 1]`` for every count."""
        if length <= 0:
            raise ValueError("length must be positive")
        return DominationCountBounds(
            lower=np.zeros(length), upper=np.ones(length), k_cap=k_cap
        )

    @staticmethod
    def exact(pmf: Sequence[float]) -> "DominationCountBounds":
        """Bounds that coincide with a known exact PMF."""
        arr = np.asarray(pmf, dtype=float)
        return DominationCountBounds(lower=arr.copy(), upper=arr.copy())


def _stored_cells(total_objects: int, k_cap: Optional[int]) -> int:
    """Number of PMF cells kept for counts over ``total_objects`` objects.

    Counts ``0..k_cap`` plus one overflow cell when the cap cuts the range;
    the full ``total_objects + 1`` otherwise.
    """
    if k_cap is None:
        return total_objects + 1
    return min(total_objects, k_cap + 1) + 1


def _resolve_truncation(
    num_influence: int,
    complete_count: int,
    total_objects: Optional[int],
    k_cap: Optional[int],
) -> tuple[int, Optional[int]]:
    """Validated ``(total_objects, k_cap of the unshifted UGF)``."""
    if complete_count < 0:
        raise ValueError("complete_count must be non-negative")
    if total_objects is None:
        total_objects = complete_count + num_influence
    if total_objects < complete_count + num_influence:
        raise ValueError("total_objects too small for the given counts")
    if k_cap is None:
        return total_objects, None
    if k_cap < 0:
        raise ValueError("k_cap must be non-negative")
    if k_cap < complete_count:
        # every representable count below the cap is impossible anyway
        return total_objects, 0
    return total_objects, min(num_influence, k_cap - complete_count)


def _shift_right(
    pmf_lower: np.ndarray,
    pmf_upper: np.ndarray,
    complete_count: int,
    num_influence: int,
    total_objects: int,
    k_cap: Optional[int],
    upper_fill: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``ShiftRight`` of Algorithm 1 into ``_stored_cells`` cells (last axis).

    The UGF bounds land at ``[complete_count, complete_count + top)``; with
    truncation that window is clipped to the stored cells — it lies wholly
    outside them when more than ``k_cap + 1`` objects dominate completely.
    Upper cells outside the window that are possible but unbounded get
    ``upper_fill`` (1 for one partition pair; the summed pair weight once the
    pairs are combined, see :func:`_combine_windows`).
    """
    length = _stored_cells(total_objects, k_cap)
    shape = pmf_lower.shape[:-1] + (length,)
    lower = np.zeros(shape)
    upper = np.full(shape, upper_fill)
    # counts below the complete-domination count are impossible
    upper[..., :complete_count] = 0.0
    # counts above complete_count + num_influence are impossible as well
    upper[..., complete_count + num_influence + 1 :] = 0.0

    width = max(0, min(pmf_lower.shape[-1], length - complete_count))
    lower[..., complete_count : complete_count + width] = pmf_lower[..., :width]
    upper[..., complete_count : complete_count + width] = pmf_upper[..., :width]
    if k_cap is not None:
        # the overflow cell (if any) is intentionally vacuous
        lower[..., k_cap + 1 :] = 0.0
        upper[..., k_cap + 1 :] = (
            upper_fill if k_cap + 1 <= complete_count + num_influence else 0.0
        )
    return lower, upper


def _filter_step_bounds(
    num_influence: int,
    complete_count: int,
    total_objects: int,
    k_cap: Optional[int],
) -> DominationCountBounds:
    """Bounds after the filter step alone: every influence object in ``[0, 1]``.

    Closed form of ``domination_count_bounds(zeros(n), ones(n), ...)``: the
    UGF of ``n`` variables bounded by ``[0, 1]`` puts all its mass on "none
    certain, all ``n`` possible", so its lower bound is ``e_0`` when ``n ==
    0`` and 0 otherwise, and its upper bound is 1 on every count ``0..top``.
    """
    total_objects, ugf_cap = _resolve_truncation(
        num_influence, complete_count, total_objects, k_cap
    )
    top = num_influence if ugf_cap is None else min(num_influence, ugf_cap)
    pmf_lower = np.zeros(top + 1)
    if num_influence == 0:
        pmf_lower[0] = 1.0
    lower, upper = _shift_right(
        pmf_lower, np.ones(top + 1), complete_count, num_influence, total_objects, k_cap
    )
    return DominationCountBounds(
        lower=lower, upper=upper, k_cap=k_cap, max_count=total_objects
    )


def domination_count_bounds(
    lower_probs: Sequence[float],
    upper_probs: Sequence[float],
    complete_count: int = 0,
    total_objects: Optional[int] = None,
    k_cap: Optional[int] = None,
) -> DominationCountBounds:
    """Build domination-count bounds from per-object domination bounds.

    Parameters
    ----------
    lower_probs, upper_probs:
        Bounds ``PDomLB(A_i, B, R)`` / ``PDomUB(A_i, B, R)`` for the influence
        objects (Lemma 3 guarantees their mutual independence, which the UGF
        requires).
    complete_count:
        Number of objects that completely dominate the target; the resulting
        PMF bounds are shifted right by this amount (the ``ShiftRight`` step
        of Algorithm 1).
    total_objects:
        Largest logically possible count, ``max_count`` of the result
        (defaults to ``complete_count + len(lower_probs)``); pass the database
        size to get bounds over the full count range.
    k_cap:
        Optional truncation bound *on the final (shifted) count* for kNN-style
        predicates.  The result then stores ``min(total_objects, k_cap + 1)
        + 1`` cells: counts ``0..k_cap`` exactly as without a cap, plus one
        vacuous overflow cell for "count ``> k_cap``" — no cell is allocated
        per database object.
    """
    lower_arr = np.atleast_1d(np.asarray(lower_probs, dtype=float))
    upper_arr = np.atleast_1d(np.asarray(upper_probs, dtype=float))
    if lower_arr.shape != upper_arr.shape:
        raise ValueError("lower_probs and upper_probs must have the same length")
    num_influence = lower_arr.shape[0]
    total_objects, ugf_cap = _resolve_truncation(
        num_influence, complete_count, total_objects, k_cap
    )
    ugf = UncertainGeneratingFunction(lower_arr, upper_arr, k_cap=ugf_cap)
    lower, upper = _shift_right(
        *ugf.pmf_bounds(), complete_count, num_influence, total_objects, k_cap
    )
    return DominationCountBounds(
        lower=lower, upper=upper, k_cap=k_cap, max_count=total_objects
    )


def domination_count_bounds_batch(
    lower_probs: np.ndarray,
    upper_probs: np.ndarray,
    complete_count: int = 0,
    total_objects: Optional[int] = None,
    k_cap: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`domination_count_bounds` over many partition pairs.

    ``lower_probs`` / ``upper_probs`` are ``(num_pairs, num_influence)``
    matrices — one row of per-object domination bounds per partition pair, as
    produced by the batched pair-bounds kernel.  The UGF expansion, the
    ``ShiftRight`` by ``complete_count`` and the ``k_cap`` truncation are all
    applied across the whole batch in one vectorised pass; row ``i`` of the
    returned ``(num_pairs, cells)`` arrays — ``cells = total_objects + 1``, or
    ``min(total_objects, k_cap + 1) + 1`` under truncation — is bit-identical
    to ``domination_count_bounds(lower_probs[i], upper_probs[i], ...)``.

    Unlike the scalar constructor this returns raw PMF-bound arrays (no
    per-row :class:`DominationCountBounds` instances); pass them to
    :func:`combine_weighted_bounds_arrays` to aggregate the pairs.
    """
    lower_arr = np.atleast_2d(np.asarray(lower_probs, dtype=float))
    upper_arr = np.atleast_2d(np.asarray(upper_probs, dtype=float))
    if lower_arr.shape != upper_arr.shape or lower_arr.ndim != 2:
        raise ValueError("lower_probs and upper_probs must be matrices of equal shape")
    num_influence = lower_arr.shape[1]
    total_objects, ugf_cap = _resolve_truncation(
        num_influence, complete_count, total_objects, k_cap
    )
    pmf_lower, pmf_upper = ugf_pmf_bounds_batch(lower_arr, upper_arr, k_cap=ugf_cap)
    return _shift_right(
        pmf_lower, pmf_upper, complete_count, num_influence, total_objects, k_cap
    )


def combine_weighted_bounds(
    parts: Sequence[tuple[float, DominationCountBounds]],
    k_cap: Optional[int] = None,
) -> DominationCountBounds:
    """Aggregate per-partition-pair bounds (Section IV-E).

    Each element of ``parts`` is ``(weight, bounds)`` where ``weight`` is
    ``P(B') * P(R')`` for the partition pair the bounds were computed under.
    Because the partition pairs describe disjoint sets of possible worlds, the
    weighted sums of the lower and upper PMF bounds are valid bounds for the
    unconditioned domination count.
    """
    if not parts:
        raise ValueError("parts must not be empty")
    first = parts[0][1]
    for _, bounds in parts:
        if len(bounds) != len(first) or bounds.max_count != first.max_count:
            raise ValueError("all parts must have the same length and count range")
    return combine_weighted_bounds_arrays(
        np.array([weight for weight, _ in parts], dtype=float),
        np.stack([bounds.lower for _, bounds in parts]),
        np.stack([bounds.upper for _, bounds in parts]),
        k_cap=k_cap,
        max_count=first.max_count,
    )


def combine_weighted_bounds_arrays(
    weights: np.ndarray,
    pmf_lower: np.ndarray,
    pmf_upper: np.ndarray,
    k_cap: Optional[int] = None,
    max_count: Optional[int] = None,
) -> DominationCountBounds:
    """Matrix form of :func:`combine_weighted_bounds`.

    ``pmf_lower`` / ``pmf_upper`` are ``(num_pairs, cells)`` PMF-bound
    matrices (one row per partition pair, e.g. from
    :func:`domination_count_bounds_batch`) and ``weights`` the per-pair
    ``P(B') * P(R')`` weights.  Rows are accumulated sequentially in pair
    order — the exact association the tuple-based API used — so both entry
    points produce bit-identical results.  The work is ``O(num_pairs *
    cells)``, so truncated rows (``cells <= k_cap + 2``) cost ``O(k)`` per
    pair whatever the database size; ``max_count`` names the logical count
    range of such rows (see :class:`DominationCountBounds`).
    """
    lower, upper, total_weight = _fold_weighted(
        weights,
        np.atleast_2d(np.asarray(pmf_lower, dtype=float)),
        np.atleast_2d(np.asarray(pmf_upper, dtype=float)),
    )
    return _fill_missing_weight(lower, upper, total_weight, k_cap, max_count)


def _combine_windows(
    weights: np.ndarray,
    window_lower: np.ndarray,
    window_upper: np.ndarray,
    complete_count: int,
    num_influence: int,
    total_objects: int,
    k_cap: Optional[int],
) -> DominationCountBounds:
    """Combine raw per-pair UGF windows, then ``ShiftRight`` once.

    ``window_lower`` / ``window_upper`` are ``(num_pairs, top + 1)`` raw UGF
    PMF bounds, before any shift.  The result equals, bit for bit,
    ``combine_weighted_bounds_arrays(weights,
    *domination_count_bounds_batch(...))`` on the same pairs.  Every shifted
    row holds the same constant, 0 or 1, in each cell outside the window, so
    that cell's weighted fold is exactly 0 or the folded weight ``W``: the
    window rows are folded alone and the shift fills the rest with 0 or
    ``W``.  The work is ``O(num_pairs * top)`` whatever ``total_objects``.
    """
    lower, upper, total_weight = _fold_weighted(weights, window_lower, window_upper)
    lower, upper = _shift_right(
        lower,
        upper,
        complete_count,
        num_influence,
        total_objects,
        k_cap,
        upper_fill=total_weight,
    )
    return _fill_missing_weight(lower, upper, total_weight, k_cap, total_objects)


def _fold_weighted(
    weights: np.ndarray, pmf_lower: np.ndarray, pmf_upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Left folds ``sum_i weights[i] * row_i`` in pair order, plus the total weight.

    ``np.add.accumulate`` is a strict sequence of IEEE additions, so each
    fold equals the row-by-row loop ``acc += weight * row`` bit for bit; the
    weights are folded in the same order.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.shape[0] == 0:
        raise ValueError("parts must not be empty")
    if pmf_lower.shape != pmf_upper.shape or pmf_lower.shape[0] != weights.shape[0]:
        raise ValueError("weights and bound matrices disagree on the number of pairs")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total_weight = float(np.add.accumulate(weights)[-1])
    if total_weight > 1.0 + 1e-9:
        raise ValueError("partition-pair weights must not exceed 1")
    column = weights[:, None]
    lower = np.add.accumulate(column * pmf_lower, axis=0)[-1].copy()
    upper = np.add.accumulate(column * pmf_upper, axis=0)[-1].copy()
    return lower, upper, total_weight


def _fill_missing_weight(
    lower: np.ndarray,
    upper: np.ndarray,
    total_weight: float,
    k_cap: Optional[int],
    max_count: Optional[int],
) -> DominationCountBounds:
    """Final step of the Section IV-E combination.

    Any missing weight (dropped zero-mass partitions) contributes vacuous
    bounds: nothing to the lower bounds, full mass to the upper bounds.
    """
    missing = max(0.0, 1.0 - total_weight)
    if missing > 1e-12:
        upper += missing
    upper = np.minimum(upper, 1.0)
    return DominationCountBounds(
        lower=lower, upper=upper, k_cap=k_cap, max_count=max_count
    )
