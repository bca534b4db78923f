"""Probabilistic similarity domination (Section III of the paper).

Given uncertain objects ``A``, ``B`` and a reference object ``R``, this module
computes

* *complete domination* — whether ``PDom(A, B, R) = 1`` holds regardless of
  the object PDFs, decided by the optimal rectangle criterion (Corollary 1);
* *probabilistic domination bounds* — a conservative lower bound
  ``PDomLB(A, B, R)`` and a progressive upper bound ``PDomUB(A, B, R)`` of the
  probability that ``A`` dominates ``B`` w.r.t. ``R``, obtained from
  disjunctive decompositions of the uncertainty regions (Lemmas 1 and 2)
  without integrating any PDF.

The functions come in two flavours: an object-level API working on
:class:`~repro.uncertain.base.UncertainObject` instances (the public entry
point, used by the examples and the per-pair ``PDom`` queries) and low-level
vectorised kernels on partition arrays (used inside the IDCA loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry import (
    DominationCriterion,
    Rectangle,
    domination_bulk,
    max_dist_arrays,
    min_dist_arrays,
)
from ..uncertain import DecompositionTree, UncertainDatabase, UncertainObject

__all__ = [
    "CompleteDominationResult",
    "complete_domination_scan",
    "complete_domination_filter",
    "reference_min_dists",
    "pdom_bounds_from_partitions",
    "pdom_bounds",
    "probabilistic_domination_bounds",
]

# relative slack of the filter's distance pre-screen: objects whose MinDist to
# the reference exceeds the target's MaxDist by less than this go to the exact
# test, so rounding in the two distance computations can never flip a verdict
_PRESCREEN_SLACK = 1e-9


# ---------------------------------------------------------------------- #
# complete domination
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompleteDominationResult:
    """Outcome of the complete-domination filter step for one target object.

    Every database object that is not excluded falls into exactly one of
    three classes; the two small ones are stored, the third is derived.

    Attributes
    ----------
    complete_indices:
        Database indices of the objects that dominate the target in *every*
        possible world (``PDom = 1``), ascending.
    influence_indices:
        Database indices of the objects whose domination relation to the
        target is uncertain (``0 < PDom < 1``), ascending; only these objects
        need to be refined by IDCA.
    excluded_indices:
        The (valid) database positions that were left out of the
        classification, ascending.
    num_objects:
        Size of the database that was classified.
    """

    complete_indices: np.ndarray
    influence_indices: np.ndarray
    excluded_indices: np.ndarray
    num_objects: int

    @property
    def complete_count(self) -> int:
        """Number of objects that dominate the target in every possible world."""
        return int(self.complete_indices.shape[0])

    @property
    def num_influence(self) -> int:
        """Number of influence objects."""
        return int(self.influence_indices.shape[0])

    @property
    def pruned_count(self) -> int:
        """Number of objects that dominate the target in *no* possible world."""
        return (
            self.num_objects
            - int(self.excluded_indices.shape[0])
            - self.complete_count
            - self.num_influence
        )

    @property
    def pruned_indices(self) -> np.ndarray:
        """Indices of the objects with ``PDom = 0``, ascending.

        They never contribute to the domination count; at scale they are
        almost the whole database, so the array is only built on request.
        """
        pruned = np.ones(self.num_objects, dtype=bool)
        pruned[self.complete_indices] = False
        pruned[self.influence_indices] = False
        pruned[self.excluded_indices] = False
        return np.flatnonzero(pruned)


def complete_domination_scan(
    candidate_mbrs: np.ndarray,
    target_mbr: np.ndarray,
    reference_mbr: np.ndarray,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised complete-domination scan over candidate MBRs.

    Parameters
    ----------
    candidate_mbrs:
        Array of shape ``(n, d, 2)`` with the MBRs of the candidate objects.
    target_mbr, reference_mbr:
        MBRs (shape ``(d, 2)``) of the target object ``B`` and the reference
        object ``R``.

    Returns
    -------
    (dominating, dominated):
        Two boolean arrays of length ``n``: ``dominating[i]`` is True when
        candidate ``i`` completely dominates ``B`` w.r.t. ``R``;
        ``dominated[i]`` when ``B`` completely dominates candidate ``i``
        (candidate ``i`` can then never contribute to the domination count).
    """
    dominating = domination_bulk(candidate_mbrs, target_mbr, reference_mbr, p, criterion)
    dominated = domination_bulk(target_mbr, candidate_mbrs, reference_mbr, p, criterion)
    return dominating, dominated


def reference_min_dists(
    database: UncertainDatabase, reference: UncertainObject, p: float = 2.0
) -> np.ndarray:
    """``MinDist(A, R)`` of every database object ``A`` to ``reference``.

    The reference-distance profile :func:`complete_domination_filter`
    pre-screens with.  It depends on the reference and the database snapshot
    only, so callers filtering many targets against one reference compute it
    once and pass it along.
    """
    return min_dist_arrays(database.mbrs(), reference.mbr.to_array(), p)


def complete_domination_filter(
    database: UncertainDatabase,
    target: UncertainObject,
    reference: UncertainObject,
    exclude_indices: Optional[set[int]] = None,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
    min_dists: Optional[np.ndarray] = None,
) -> CompleteDominationResult:
    """Filter step of Algorithm 1: classify every database object.

    ``exclude_indices`` removes database positions from consideration — e.g.
    the position of ``target`` or ``reference`` themselves when they are
    database members (an object never dominates itself).

    Only objects near the reference are tested: an object ``A`` with
    ``MinDist(A, R) > MaxDist(B, R)`` is dominated by the target ``B`` under
    the min/max criterion, hence under the optimal one, and cannot dominate
    ``B`` — it is pruned by one comparison against ``min_dists``, the
    :func:`reference_min_dists` profile of ``reference`` over this snapshot
    (computed here when not supplied).  The survivors, including everything
    within a relative slack of the boundary, get the exact
    :func:`complete_domination_scan`, so the classification equals a scan of
    the whole database.
    """
    mbrs = database.mbrs()
    target_mbr = target.mbr.to_array()
    reference_mbr = reference.mbr.to_array()
    if min_dists is None:
        min_dists = reference_min_dists(database, reference, p)
    elif min_dists.shape != (len(database),):
        raise ValueError("min_dists must hold one distance per database object")
    reach = float(max_dist_arrays(target_mbr, reference_mbr, p))
    survivors = np.flatnonzero(min_dists <= reach * (1.0 + _PRESCREEN_SLACK))

    excluded = np.array(
        sorted({int(idx) for idx in exclude_indices or () if 0 <= idx < len(database)}),
        dtype=np.intp,
    )
    if excluded.size:
        survivors = survivors[~np.isin(survivors, excluded)]

    dominating, dominated = complete_domination_scan(
        mbrs[survivors], target_mbr, reference_mbr, p=p, criterion=criterion
    )
    return CompleteDominationResult(
        complete_indices=survivors[dominating],
        influence_indices=survivors[~dominating & ~dominated],
        excluded_indices=excluded,
        num_objects=len(database),
    )


# ---------------------------------------------------------------------- #
# probabilistic domination bounds
# ---------------------------------------------------------------------- #
def pdom_bounds_from_partitions(
    candidate_regions: np.ndarray,
    candidate_masses: np.ndarray,
    target_region: np.ndarray,
    reference_region: np.ndarray,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> tuple[float, float]:
    """Bounds of ``PDom(A, B', R')`` with only ``A`` decomposed (Lemma 3 setting).

    Parameters
    ----------
    candidate_regions, candidate_masses:
        Partition rectangles (``(m, d, 2)``) and their probability masses of
        the candidate object ``A``.
    target_region, reference_region:
        Fixed rectangles ``B'`` and ``R'`` (shape ``(d, 2)``), e.g. whole
        objects or partitions of the disjunctive-world refinement.

    Returns
    -------
    (lower, upper):
        ``lower`` accumulates the masses of partitions of ``A`` that
        completely dominate ``B'``; ``upper`` is ``1`` minus the mass of the
        partitions that are completely dominated by ``B'`` (Lemma 2).
    """
    dominating = domination_bulk(
        candidate_regions, target_region, reference_region, p, criterion
    )
    dominated = domination_bulk(
        target_region, candidate_regions, reference_region, p, criterion
    )
    total = float(candidate_masses.sum())
    lower = float(candidate_masses[dominating].sum())
    upper = total - float(candidate_masses[dominated].sum())
    # guard against floating point drift; bounds are probabilities
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, lower), 1.0)
    return lower, upper


def pdom_bounds(
    candidate: UncertainObject,
    target: UncertainObject,
    reference: UncertainObject,
    candidate_depth: int = 4,
    target_depth: int = 0,
    reference_depth: int = 0,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
    candidate_tree: Optional[DecompositionTree] = None,
    target_tree: Optional[DecompositionTree] = None,
    reference_tree: Optional[DecompositionTree] = None,
) -> tuple[float, float]:
    """Bounds of ``PDom(candidate, target, reference)`` via Lemmas 1 and 2.

    All three objects may be decomposed; with ``target_depth`` and
    ``reference_depth`` left at 0 this reduces to the Lemma 3 setting used
    inside IDCA (only the candidate is decomposed).  Deeper decompositions
    yield tighter — still correct — bounds at higher cost.

    Decomposition trees can be passed in to reuse cached partitions across
    repeated calls.
    """
    candidate_tree = candidate_tree or DecompositionTree(candidate)
    cand_regions, cand_masses = candidate_tree.partitions_arrays(candidate_depth)

    target_parts = _partitions_of(target, target_depth, target_tree)
    reference_parts = _partitions_of(reference, reference_depth, reference_tree)

    lower_total = 0.0
    upper_total = 0.0
    for target_region, target_mass in target_parts:
        for reference_region, reference_mass in reference_parts:
            weight = target_mass * reference_mass
            if weight <= 0.0:
                continue
            lower, upper = pdom_bounds_from_partitions(
                cand_regions,
                cand_masses,
                target_region,
                reference_region,
                p=p,
                criterion=criterion,
            )
            lower_total += weight * lower
            upper_total += weight * upper
    lower_total = min(max(lower_total, 0.0), 1.0)
    upper_total = min(max(upper_total, lower_total), 1.0)
    return lower_total, upper_total


def probabilistic_domination_bounds(
    candidate: UncertainObject,
    target: UncertainObject,
    reference: UncertainObject,
    depth: int = 4,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> tuple[float, float]:
    """Symmetric convenience wrapper: decompose all three objects to ``depth``.

    This is the direct implementation of Lemma 1 / Lemma 2 and the function a
    library user calls to ask "with which probability is ``A`` closer to ``R``
    than ``B``?" without running a full domination-count query.
    """
    return pdom_bounds(
        candidate,
        target,
        reference,
        candidate_depth=depth,
        target_depth=depth,
        reference_depth=depth,
        p=p,
        criterion=criterion,
    )


def _partitions_of(
    obj: UncertainObject, depth: int, tree: Optional[DecompositionTree]
) -> list[tuple[np.ndarray, float]]:
    """Partition rectangles (as arrays) and masses of ``obj`` at ``depth``."""
    if depth <= 0:
        return [(obj.mbr.to_array(), obj.existence_probability)]
    tree = tree or DecompositionTree(obj)
    regions, masses = tree.partitions_arrays(depth)
    return [(regions[i], float(masses[i])) for i in range(regions.shape[0])]
