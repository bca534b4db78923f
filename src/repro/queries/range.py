"""Probabilistic distance-range (epsilon-range) queries.

A probabilistic range query reports every object whose distance to the
(possibly uncertain) query object is at most ``epsilon`` with probability at
least ``tau``.  While not one of the paper's headline query types, range
predicates are the simplest member of the query class the paper targets
("the event that an object belongs to the result set depends on object
distance relations") and they demonstrate that the same decomposition
machinery answers them without any generating function: per pair of partitions
``(A', Q')`` the MinDist/MaxDist interval either decides the predicate or the
pair stays uncertain, and the masses of the decided pairs are conservative /
progressive probability bounds.

All candidates of one query are bounded by a single array program,
:func:`range_bounds_csr`, over the ragged CSR layout of their partitions.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from ..geometry import max_dist_arrays, min_dist_arrays
from ..uncertain import DecompositionTree, UncertainDatabase
from ..uncertain.decomposition import AxisPolicy, CSRPartitionBatch, csr_partitions
from .common import ObjectSpec, ThresholdQueryResult, ensure_engine_matches, unwrap_engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine import QueryEngine

__all__ = ["probability_within_range", "probabilistic_range_query", "range_bounds_csr"]

# cap on the (query partition x candidate partition) cells one broadcast
# materialises; larger batches are processed in slabs (results do not depend
# on where the slab boundaries fall)
_SLAB_CELLS = 1 << 16


def _slabs(counts: np.ndarray, num_query: int):
    """Yield ``(first, stop, q_block)``: candidate slabs and query block size.

    A slab is a run of candidates whose zero-padded ``(num_query, c, width)``
    cell grid fits in :data:`_SLAB_CELLS`; a candidate too large for that on
    its own forms a slab alone and is walked in blocks of ``q_block`` query
    partitions instead.
    """
    first, n = 0, counts.shape[0]
    while first < n:
        width = max(int(counts[first]), 1)
        q_block = min(num_query, max(1, _SLAB_CELLS // width))
        stop = first + 1
        while q_block == num_query and stop < n:
            wider = max(width, int(counts[stop]))
            if num_query * (stop + 1 - first) * wider > _SLAB_CELLS:
                break
            width, stop = wider, stop + 1
        yield first, stop, q_block
        first = stop


def _fold(carry: np.ndarray, q_mass: np.ndarray, settled: np.ndarray, masses: np.ndarray):
    """Continue the left fold ``carry + q_mass * S_q`` over one query block.

    ``settled`` is the ``(b, c, w)`` pair verdict; ``S_q`` folds each
    candidate's settled masses along its own (zero-padded) row axis.
    ``np.add.accumulate`` is a strict sequential fold, unlike ``np.sum``.
    """
    s_q = np.add.accumulate(np.where(settled, masses, 0.0), axis=-1)[..., -1]
    return np.add.accumulate(np.concatenate([carry, q_mass * s_q]), axis=0)[-1:]


def range_bounds_csr(
    batch: CSRPartitionBatch,
    query_regions: np.ndarray,
    query_masses: np.ndarray,
    epsilon: float,
    p: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of ``P(dist(A_i, Q) <= epsilon)`` for every candidate of ``batch``.

    ``batch`` holds the candidates' partitions in the ragged CSR layout of
    :func:`~repro.uncertain.decomposition.csr_partitions`; ``query_regions``
    (``(m, d, 2)``) and ``query_masses`` are the query's partition grid.  A
    partition pair whose MaxDist is at most ``epsilon`` adds its joint mass
    to the lower bound; a pair whose MinDist exceeds ``epsilon`` is left out
    of the upper bound.  Returns ``(lower, upper)`` arrays, one entry per
    candidate, clamped to ``0 <= lower <= upper <= 1``.

    **Summation order.**  For query partition ``q`` the candidate's in-range
    masses are folded left to right in segment order (the CSR kernel's rule)
    into ``S_q``; the bound is then the left fold of ``q_mass * S_q`` over
    ``q = 0 .. m-1``, skipping partitions with ``q_mass <= 0``.  Every fold
    is a strict sequence of IEEE additions over the candidate's own values,
    so a candidate's bounds are bit-identical whichever candidates share the
    batch and wherever the slab boundaries fall.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    keep = query_masses > 0.0
    query_regions = query_regions[keep]
    query_masses = query_masses[keep]
    offsets = batch.offsets
    counts = offsets[1:] - offsets[:-1]
    lower = np.zeros(batch.num_candidates)
    upper = np.zeros(batch.num_candidates)
    num_query = query_masses.shape[0]
    if num_query == 0:
        return lower, upper

    for first, stop, q_block in _slabs(counts, num_query):
        slab_counts = counts[first:stop]
        width = int(slab_counts.max())
        if width == 0:
            continue
        # zero-padded (c, width) view of the slab; pad cells carry zero mass
        # and add exactly +0.0 to the folds
        position = np.arange(width)
        valid = position < slab_counts[:, None]
        rows = np.where(valid, offsets[first:stop, None] + position, 0)
        cand = batch.regions[rows][None]                   # (1, c, w, d, 2)
        cand_masses = np.where(valid, batch.masses[rows], 0.0)
        inside = np.zeros((1, stop - first))
        possible = np.zeros((1, stop - first))
        for q0 in range(0, num_query, q_block):
            block = query_regions[q0:q0 + q_block, None, None]  # (b, 1, 1, d, 2)
            q_mass = query_masses[q0:q0 + q_block, None]
            max_d = max_dist_arrays(cand, block, p)
            inside = _fold(inside, q_mass, max_d <= epsilon, cand_masses)
            min_d = min_dist_arrays(cand, block, p)
            possible = _fold(possible, q_mass, min_d <= epsilon, cand_masses)
        lower[first:stop] = inside[0]
        upper[first:stop] = possible[0]

    # same probability clamps as every other bound path
    np.clip(lower, 0.0, 1.0, out=lower)
    np.minimum(np.maximum(upper, lower), 1.0, out=upper)
    return lower, upper


def probability_within_range(
    obj,
    query,
    epsilon: float,
    p: float = 2.0,
    max_depth: int = 6,
    axis_policy: AxisPolicy = "round_robin",
    object_tree: Optional[DecompositionTree] = None,
    query_tree: Optional[DecompositionTree] = None,
) -> tuple[float, float]:
    """Bounds of ``P(dist(obj, query) <= epsilon)``.

    Both objects are decomposed to ``max_depth``; partition pairs whose MaxDist
    is at most ``epsilon`` contribute their joint mass to the lower bound,
    pairs whose MinDist exceeds ``epsilon`` are excluded from the upper bound.
    This is a one-candidate call of :func:`range_bounds_csr` and follows its
    summation order.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    object_tree = object_tree or DecompositionTree(obj, axis_policy=axis_policy)
    query_tree = query_tree or DecompositionTree(query, axis_policy=axis_policy)
    lower, upper = range_bounds_csr(
        csr_partitions([object_tree], [max_depth]),
        *query_tree.partitions_arrays(max_depth),
        epsilon,
        p,
    )
    return float(lower[0]), float(upper[0])


def probabilistic_range_query(
    database: UncertainDatabase,
    query: ObjectSpec,
    epsilon: float,
    tau: float,
    p: Optional[float] = None,
    max_depth: int = 6,
    strict: bool = False,
    engine: Optional["QueryEngine"] = None,
) -> ThresholdQueryResult:
    """Evaluate a probabilistic threshold range query.

    Objects whose MBR is completely within ``epsilon`` of the query MBR are
    reported without decomposition; objects completely out of reach are pruned
    the same way.  Only the remaining candidates are refined — the unified
    :class:`~repro.engine.QueryEngine` performs the classification and
    bounds all of them with one :func:`range_bounds_csr` call over shared
    decomposition trees.
    """
    from ..engine import QueryEngine

    engine = unwrap_engine(engine)
    if engine is None:
        engine = QueryEngine(database, p=2.0 if p is None else p)
    else:
        ensure_engine_matches(engine, database, p=p)
    return engine.range(query, epsilon=epsilon, tau=tau, max_depth=max_depth, strict=strict)
