"""The batched pair-bounds kernel on a ragged CSR candidate layout.

The IDCA hot path evaluates, for every *(target partition, reference
partition, influence candidate, candidate partition)* combination, four
spatial domination tests and reduces the verdicts — weighted by partition
mass — into per-candidate ``PDom`` bounds (Section IV of the paper).
:func:`pdom_bounds_csr` does that for a whole batch of candidates in one
call:

* the candidate partitions of one batch are a single concatenated
  ``(total_partitions, d, 2)`` regions array, a ``(total_partitions,)``
  masses array and a ``(c + 1,)`` offsets array — candidate ``i`` owns rows
  ``offsets[i]:offsets[i + 1]`` and nothing else, so candidates at different
  adaptive depths batch together without pad rows;
* the verdicts come from one broadcast :func:`~repro.geometry.domination_bulk`
  dispatch per slab of target partitions, and the masses are reduced per
  candidate segment.

The scalar loop :func:`repro.core.domination.pdom_bounds_from_partitions`
is the reference the tests compare this kernel against.

**Determinism.**  Each candidate's masses are reduced with a strict
sequential left fold over its own ``offsets[i]`` segment, in row order.
Elementwise IEEE-754 additions in a fixed order are exact functions of their
inputs — unlike ``np.sum``'s pairwise/SIMD reduction, whose association
varies with array length and CPU vector width — so a column's bits depend
only on its own candidate's segment and the two grids, never on the batch
it was computed in or on the machine.  That is what lets the pair-bounds
memo cache columns across batch compositions.

Per-call wall-clock is accumulated in process-local counters
(:func:`total_kernel_seconds`, :func:`kernel_stats`) so the executor's
``ChunkStats`` / ``BatchReport`` can attribute batch time to the kernel
layer without reaching into refinement state.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional

import numpy as np

from ..geometry import DominationCriterion, domination_bulk
from ..geometry.metrics import _validate_p

__all__ = [
    "kernel_environment",
    "kernel_stats",
    "pdom_bounds_csr",
    "total_kernel_seconds",
    "validate_partition_grids",
]

# cap on the number of broadcast elements the kernel materialises at once;
# larger grids are processed in slabs along the target-partition axis
_BATCH_BLOCK_ELEMENTS = 1 << 22


def kernel_environment() -> dict:
    """Environment metadata for benchmark reports.

    Records what a number in the bench environment block was measured
    *with*: CPU count and numpy version.  ``default_backend`` (always
    ``"numpy"``) and ``numba_version`` (always ``None``) stay because the
    bench environment block reads both keys; numpy is the only kernel since
    the optional numba kernel was deleted.
    """
    return {
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
        "numba_version": None,
        "default_backend": "numpy",
    }


# --------------------------------------------------------------------- #
# timing counters (process-local, read as deltas by the executor)
# --------------------------------------------------------------------- #
_KERNEL_SECONDS = 0.0
_KERNEL_CALLS = 0


def total_kernel_seconds() -> float:
    """Wall-clock spent inside :func:`pdom_bounds_csr` since process start."""
    return _KERNEL_SECONDS


def kernel_stats() -> dict:
    """Cumulative call count and seconds of the kernel (process-local)."""
    return {"kernel_seconds": _KERNEL_SECONDS, "kernel_calls": _KERNEL_CALLS}


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #
def validate_partition_grids(
    target_regions: np.ndarray,
    reference_regions: np.ndarray,
    dimensions: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the target/reference partition grids up front.

    Both grids must be ``(n, d, 2)`` float arrays over the same ``d`` (and
    over ``dimensions`` when the candidate tensors pin it).  Without this
    check a transposed ``(d, n, 2)`` grid broadcasts through the kernels
    into silently wrong bounds instead of raising like the candidate tensors
    always did.
    """
    target_regions = np.asarray(target_regions, dtype=float)
    reference_regions = np.asarray(reference_regions, dtype=float)
    for name, grid in (
        ("target_regions", target_regions),
        ("reference_regions", reference_regions),
    ):
        if grid.ndim != 3 or grid.shape[-1] != 2:
            raise ValueError(
                f"{name} must have shape (n, d, 2), got {grid.shape}"
            )
    if target_regions.shape[1] != reference_regions.shape[1]:
        raise ValueError(
            "target_regions and reference_regions disagree on the dimension "
            f"count: {target_regions.shape[1]} != {reference_regions.shape[1]}"
        )
    if dimensions is not None and target_regions.shape[1] != dimensions:
        raise ValueError(
            f"partition grids are {target_regions.shape[1]}-dimensional but the "
            f"candidate partitions are {dimensions}-dimensional"
        )
    return target_regions, reference_regions


def _validate_csr(
    regions: np.ndarray, masses: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    regions = np.asarray(regions, dtype=float)
    masses = np.asarray(masses, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    if regions.ndim != 3 or regions.shape[-1] != 2:
        raise ValueError(
            f"CSR regions must have shape (total_partitions, d, 2), got {regions.shape}"
        )
    if masses.ndim != 1 or masses.shape[0] != regions.shape[0]:
        raise ValueError("CSR masses must be one row weight per regions row")
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise ValueError("CSR offsets must be a (num_candidates + 1,) array")
    if offsets[0] != 0 or offsets[-1] != masses.shape[0]:
        raise ValueError("CSR offsets must start at 0 and end at total_partitions")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("CSR offsets must be non-decreasing")
    return regions, masses, offsets


# --------------------------------------------------------------------- #
# broadcast verdicts + sequential segment fold
# --------------------------------------------------------------------- #
def _pdom_csr(
    regions: np.ndarray,
    masses: np.ndarray,
    offsets: np.ndarray,
    target_regions: np.ndarray,
    reference_regions: np.ndarray,
    p: float,
    criterion: DominationCriterion,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR pair bounds on validated inputs.

    Verdicts use the same elementwise :func:`domination_bulk` operations as
    the scalar loop; the mass reduction is the canonical sequential left
    fold over each candidate's own segment (see the module docstring).
    """
    num_target = target_regions.shape[0]
    num_reference = reference_regions.shape[0]
    num_candidates = offsets.shape[0] - 1
    total = regions.shape[0]

    cand = regions[None, None]                      # (1, 1, T, d, 2)
    targets = target_regions[:, None, None]         # (n_b, 1, 1, d, 2)
    refs = reference_regions[None, :, None]         # (1, n_r, 1, d, 2)

    dominating = np.empty((num_target, num_reference, total), dtype=bool)
    dominated = np.empty_like(dominating)
    per_target = num_reference * total * max(regions.shape[1], 1)
    block = max(1, _BATCH_BLOCK_ELEMENTS // max(per_target, 1))
    for start in range(0, num_target, block):
        slab = slice(start, start + block)
        dominating[slab] = domination_bulk(cand, targets[slab], refs, p, criterion)
        dominated[slab] = domination_bulk(targets[slab], cand, refs, p, criterion)

    # verdict-gated contributions; the fold below fixes the summation order
    contrib_lower = np.where(dominating, masses, 0.0)
    contrib_dominated = np.where(dominated, masses, 0.0)

    starts = offsets[:-1]
    counts = offsets[1:] - offsets[:-1]
    lower = np.zeros((num_target, num_reference, num_candidates))
    dominated_mass = np.zeros_like(lower)
    totals = np.zeros(num_candidates)
    # strict left fold, segment position by segment position: step j adds
    # every candidate's j-th own row, so each candidate accumulates its rows
    # in order with plain elementwise IEEE additions (no pairwise blocking)
    for j in range(int(counts.max()) if num_candidates else 0):
        active = np.flatnonzero(counts > j)
        columns = starts[active] + j
        lower[..., active] += contrib_lower[..., columns]
        dominated_mass[..., active] += contrib_dominated[..., columns]
        totals[active] += masses[columns]

    # same probability clamps as the scalar path
    np.clip(lower, 0.0, 1.0, out=lower)
    upper = np.minimum(np.maximum(totals - dominated_mass, lower), 1.0)
    num_pairs = num_target * num_reference
    return (
        lower.reshape(num_pairs, num_candidates),
        upper.reshape(num_pairs, num_candidates),
    )


# --------------------------------------------------------------------- #
# public entry point
# --------------------------------------------------------------------- #
def pdom_bounds_csr(
    regions: np.ndarray,
    masses: np.ndarray,
    offsets: np.ndarray,
    target_regions: np.ndarray,
    reference_regions: np.ndarray,
    p: float = 2.0,
    criterion: DominationCriterion = "optimal",
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``PDom`` bounds over a ragged CSR candidate batch.

    Candidate ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of ``regions`` /
    ``masses`` (see ``repro.uncertain.decomposition.csr_partitions_batch``),
    so candidates at different adaptive depths batch together without pad
    rows.  An empty segment (``offsets[i] == offsets[i + 1]``) is legal and
    yields the ``(0, 0)`` bounds the scalar path produces for empty
    partition arrays.

    Parameters
    ----------
    regions, masses, offsets:
        CSR candidate batch: ``(total_partitions, d, 2)`` rectangles,
        ``(total_partitions,)`` probability masses and ``(c + 1,)``
        monotone row offsets.
    target_regions, reference_regions:
        Partition grids ``(n_b, d, 2)`` and ``(n_r, d, 2)``; validated up
        front (a transposed grid raises instead of broadcasting into wrong
        bounds).
    p, criterion:
        Finite ``Lp`` norm parameter and domination criterion, as everywhere.

    Returns
    -------
    (lower, upper):
        ``(n_b * n_r, c)`` bound matrices in row-major (target-major) pair
        order, clamped to probabilities exactly like the scalar path.  Each
        column depends only on its own candidate's segment and the two
        grids, so columns remain cacheable across batch compositions.
    """
    global _KERNEL_SECONDS, _KERNEL_CALLS
    _validate_p(p)
    if math.isinf(p):
        raise ValueError("pdom_bounds_csr requires a finite p")
    if criterion not in ("optimal", "minmax"):
        raise ValueError(f"unknown domination criterion: {criterion!r}")
    regions, masses, offsets = _validate_csr(regions, masses, offsets)
    target_regions, reference_regions = validate_partition_grids(
        target_regions,
        reference_regions,
        regions.shape[1] if regions.shape[0] else None,
    )
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    num_candidates = offsets.shape[0] - 1
    if num_candidates == 0:
        empty = np.empty((num_pairs, 0), dtype=float)
        return empty, empty.copy()

    start = time.perf_counter()
    result = _pdom_csr(
        regions, masses, offsets, target_regions, reference_regions, p, criterion
    )
    _KERNEL_SECONDS += time.perf_counter() - start
    _KERNEL_CALLS += 1
    return result
