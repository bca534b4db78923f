"""Pluggable kernel backends for the pair-bounds hot path (CSR layout).

The IDCA hot path evaluates, for every *(target partition, reference
partition, influence candidate, candidate partition)* combination, four
spatial domination tests and reduces the verdicts — weighted by partition
mass — into per-candidate ``PDom`` bounds.  PR 2 batched this over a dense
``(c, m, d, 2)`` candidate tensor padded to the widest candidate; on mixed
adaptive depths most of that tensor is padding that is rebuilt, evaluated and
masked every iteration.  This module replaces the padded-dense layout with a
**ragged CSR layout** and makes the kernel implementation pluggable:

* the candidate partitions of one batch are a single concatenated
  ``(total_partitions, d, 2)`` regions array, a ``(total_partitions,)``
  masses array and a ``(c + 1,)`` offsets array — candidate ``i`` owns rows
  ``offsets[i]:offsets[i + 1]`` and nothing else (no pad rows exist);
* :func:`pdom_bounds_csr` dispatches the bound computation to a **backend**:
  ``"numpy"`` (the broadcast ``domination_bulk`` path reshaped to consume CSR
  via per-segment reductions) or ``"numba"`` (optional ``@njit(parallel=...)``
  kernels that fuse the four domination tests with the mass segment-sum and
  never materialise the ``(n_b * n_r, total_partitions)`` verdict
  intermediate).

Backend selection follows a fallback ladder mirroring the scalar-to-batch
ladder of PR 2: an explicit ``backend=`` argument wins, then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``"numba"`` when the
package is importable and ``"numpy"`` otherwise.  Requesting ``"numba"``
without the package installed silently degrades to ``"numpy"`` — the ladder
never fails, it only removes acceleration.

**Determinism.**  Both backends reduce each candidate's masses with the same
strict sequential left fold over the candidate's own ``offsets[i]`` segment,
in row order.  Elementwise IEEE-754 additions in a fixed order are exact
functions of their inputs — unlike ``np.sum``'s pairwise/SIMD reduction,
whose association varies with array length and CPU vector width — so the two
backends produce **bit-identical bounds by construction**, on every machine.
(The spatial-domination verdict arithmetic is likewise mirrored operation-
for-operation, including numpy's ``x ** 2.0 == x * x`` power fast path; for
exotic ``p`` a verdict could in principle differ by one ULP exactly at a
tie, which the seeded parity suite in ``tests/test_kernels.py`` guards.)
Because the backends agree bitwise, the pair-bounds memo and the warm-start
file deliberately exclude the backend from their keys.

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

__all__ = [
    "KERNEL_BACKENDS",
    "available_backends",
    "default_backend",
    "kernel_environment",
    "kernel_stats",
    "numba_available",
    "pdom_bounds_csr",
    "resolve_backend",
    "total_kernel_seconds",
    "validate_partition_grids",
]

#: Recognised backend names, in ladder order (preferred first when available).
KERNEL_BACKENDS = ("numba", "numpy")

#: Environment variable overriding the default backend choice.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

# cap on the number of broadcast elements the numpy backend materialises at
# once; larger grids are processed in slabs along the target-partition axis
# (same budget as the legacy padded kernel)
_BATCH_BLOCK_ELEMENTS = 1 << 22

try:  # numba is an optional extra; its absence selects the numpy backend
    import numba as _numba
    from numba import prange as _prange

    _NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - exercised in CI's without-numba job
    _numba = None
    _prange = range
    _NUMBA_AVAILABLE = False


def _maybe_njit(**options):
    """``numba.njit`` when numba is installed, identity otherwise.

    The fallback keeps the kernel bodies importable — and directly testable
    as pure Python — in environments without numba, which is exactly how the
    CI parity job verifies that the compiled and interpreted kernels perform
    the same arithmetic.
    """

    def decorate(func):
        if _NUMBA_AVAILABLE:
            return _numba.njit(**options)(func)
        return func

    return decorate


# --------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------- #
def numba_available() -> bool:
    """Whether the optional numba package imported successfully."""
    return _NUMBA_AVAILABLE


def available_backends() -> tuple[str, ...]:
    """Backends usable in this process, ladder order (preferred first)."""
    if _NUMBA_AVAILABLE:
        return ("numba", "numpy")
    return ("numpy",)


def default_backend() -> str:
    """Backend used when no explicit choice is supplied.

    ``REPRO_KERNEL_BACKEND`` wins when set (subject to the numba-availability
    fallback); otherwise ``"numba"`` when importable, else ``"numpy"``.
    """
    return resolve_backend(None)


def resolve_backend(requested: Optional[str]) -> str:
    """Resolve a backend request through the fallback ladder.

    ``requested`` (an explicit argument or config value) takes precedence,
    then the ``REPRO_KERNEL_BACKEND`` environment variable, then the best
    available backend.  ``"numba"`` degrades silently to ``"numpy"`` when
    numba is not importable — selection never changes results, so the
    fallback is always safe.  Unknown names raise :class:`ValueError`
    regardless of where they came from.
    """
    choice = requested
    if choice is None:
        choice = os.environ.get(KERNEL_BACKEND_ENV) or None
    if choice is None:
        return "numba" if _NUMBA_AVAILABLE else "numpy"
    if choice not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {choice!r}; expected one of {KERNEL_BACKENDS}"
        )
    if choice == "numba" and not _NUMBA_AVAILABLE:
        return "numpy"
    return choice


def kernel_environment() -> dict:
    """Environment metadata for benchmark reports.

    Records what a number in the bench environment block was measured
    *with* — CPU count, numpy/numba versions and the backend the ladder
    resolves to — so comparisons across machines are interpretable.
    """
    numba_version = None
    if _NUMBA_AVAILABLE:
        numba_version = getattr(_numba, "__version__", "unknown")
    return {
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
        "numba_version": numba_version,
        "available_backends": list(available_backends()),
        "default_backend": default_backend(),
        "kernel_backend_env": os.environ.get(KERNEL_BACKEND_ENV),
    }


# --------------------------------------------------------------------- #
# timing counters (process-local, read as deltas by the executor)
# --------------------------------------------------------------------- #
_KERNEL_SECONDS: dict[str, float] = {"numpy": 0.0, "numba": 0.0}
_KERNEL_CALLS: dict[str, int] = {"numpy": 0, "numba": 0}


def _record_kernel_time(backend: str, seconds: float) -> None:
    _KERNEL_SECONDS[backend] += seconds
    _KERNEL_CALLS[backend] += 1


def total_kernel_seconds() -> float:
    """Wall-clock spent inside :func:`pdom_bounds_csr` since process start."""
    return sum(_KERNEL_SECONDS.values())


def kernel_stats() -> dict:
    """Per-backend cumulative call counts and seconds (process-local)."""
    return {
        "kernel_seconds": total_kernel_seconds(),
        "kernel_calls": sum(_KERNEL_CALLS.values()),
        "per_backend_seconds": dict(_KERNEL_SECONDS),
        "per_backend_calls": dict(_KERNEL_CALLS),
    }


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
# numpy backend: broadcast verdicts + sequential segment fold
# --------------------------------------------------------------------- #
def _pdom_csr_numpy(
    regions: np.ndarray,
    masses: np.ndarray,
    offsets: np.ndarray,
    target_regions: np.ndarray,
    reference_regions: np.ndarray,
    p: float,
    criterion: DominationCriterion,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR pair bounds on the broadcast :func:`domination_bulk` path.

    Verdicts are computed exactly as the padded kernel computed them (same
    elementwise operations, minus the pad rows); the mass reduction is the
    canonical sequential left fold over each candidate's own segment, which
    is what makes this path bit-identical to the numba backend.
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

    # same probability clamps as the scalar and padded paths
    np.clip(lower, 0.0, 1.0, out=lower)
    upper = np.minimum(np.maximum(totals - dominated_mass, lower), 1.0)
    num_pairs = num_target * num_reference
    return (
        lower.reshape(num_pairs, num_candidates),
        upper.reshape(num_pairs, num_candidates),
    )


# --------------------------------------------------------------------- #
# numba backend: fused verdict + segment-sum kernel
# --------------------------------------------------------------------- #
@_maybe_njit(cache=True)
def _pow_like_numpy(x: float, p: float) -> float:
    """``x ** p`` mirroring numpy's power-ufunc fast paths.

    numpy computes ``x ** 2.0`` as ``x * x`` and ``x ** 1.0`` as ``x``;
    libm ``pow`` does not bit-match those, so the fast paths must be
    replicated for the fused kernel to agree with ``domination_bulk``.
    """
    if p == 2.0:
        return x * x
    if p == 1.0:
        return x
    return x ** p


@_maybe_njit(cache=True)
def _rect_dominates(a, b, r, p: float, optimal: bool) -> bool:
    """Row-level complete-domination test on ``(d, 2)`` rectangle views.

    Operation-for-operation the arithmetic of the vectorised
    ``repro.geometry.domination_bulk`` criteria; the per-dimension
    accumulation is sequential, matching numpy's ``sum(axis=-1)`` for the
    small ``d`` of every workload in this repository (numpy switches to
    pairwise blocking only at ``d >= 8``).
    """
    d = a.shape[0]
    if optimal:
        total = 0.0
        for i in range(d):
            a_lo = a[i, 0]
            a_hi = a[i, 1]
            b_lo = b[i, 0]
            b_hi = b[i, 1]
            worst = -np.inf
            for corner in range(2):
                rc = r[i, corner]
                max_a = max(abs(rc - a_lo), abs(rc - a_hi))
                min_b = max(max(b_lo - rc, rc - b_hi), 0.0)
                value = _pow_like_numpy(max_a, p) - _pow_like_numpy(min_b, p)
                if value > worst:
                    worst = value
            total += worst
        return total < 0.0
    max_a_dist = 0.0
    min_b_dist = 0.0
    for i in range(d):
        r_lo = r[i, 0]
        r_hi = r[i, 1]
        max_a = max(abs(r_hi - a[i, 0]), abs(a[i, 1] - r_lo))
        min_b = max(max(r_lo - b[i, 1], b[i, 0] - r_hi), 0.0)
        max_a_dist += _pow_like_numpy(max_a, p)
        min_b_dist += _pow_like_numpy(min_b, p)
    return max_a_dist < min_b_dist


@_maybe_njit(parallel=True, cache=True)
def _csr_pair_bounds_kernel(
    regions, masses, offsets, target_regions, reference_regions,
    p: float, optimal: bool, lower, upper,
):  # pragma: no cover - covered via the wrapper (compiled or interpreted)
    """Fused CSR kernel: domination tests + mass segment fold, per pair.

    One ``prange`` iteration owns one (target, reference) pair and walks
    every candidate's own segment rows exactly once, accumulating the
    dominating / dominated masses sequentially — the canonical fold order —
    without ever materialising the ``(num_pairs, total_partitions)`` verdict
    arrays the broadcast backend builds.
    """
    num_target = target_regions.shape[0]
    num_reference = reference_regions.shape[0]
    num_candidates = offsets.shape[0] - 1
    for pair in _prange(num_target * num_reference):
        b_idx = pair // num_reference
        r_idx = pair - b_idx * num_reference
        target = target_regions[b_idx]
        reference = reference_regions[r_idx]
        for c in range(num_candidates):
            lower_acc = 0.0
            dominated_acc = 0.0
            total_mass = 0.0
            for row in range(offsets[c], offsets[c + 1]):
                mass = masses[row]
                total_mass += mass
                if _rect_dominates(regions[row], target, reference, p, optimal):
                    lower_acc += mass
                if _rect_dominates(target, regions[row], reference, p, optimal):
                    dominated_acc += mass
            # same probability clamps as the scalar and padded paths
            if lower_acc < 0.0:
                lower_acc = 0.0
            elif lower_acc > 1.0:
                lower_acc = 1.0
            upper_c = total_mass - dominated_acc
            if upper_c < lower_acc:
                upper_c = lower_acc
            if upper_c > 1.0:
                upper_c = 1.0
            lower[pair, c] = lower_acc
            upper[pair, c] = upper_c


def _pdom_csr_numba(
    regions: np.ndarray,
    masses: np.ndarray,
    offsets: np.ndarray,
    target_regions: np.ndarray,
    reference_regions: np.ndarray,
    p: float,
    criterion: DominationCriterion,
) -> tuple[np.ndarray, np.ndarray]:
    """Wrapper allocating outputs and invoking the fused kernel.

    Runs compiled under numba; without numba the identical body executes as
    pure Python (the parity tests call it that way), so both CI legs assert
    the same arithmetic.
    """
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    num_candidates = offsets.shape[0] - 1
    lower = np.empty((num_pairs, num_candidates))
    upper = np.empty_like(lower)
    _csr_pair_bounds_kernel(
        np.ascontiguousarray(regions),
        np.ascontiguousarray(masses),
        np.ascontiguousarray(offsets),
        np.ascontiguousarray(target_regions),
        np.ascontiguousarray(reference_regions),
        float(p),
        criterion == "optimal",
        lower,
        upper,
    )
    return lower, upper


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
    backend: Optional[str] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``PDom`` bounds over a ragged CSR candidate batch.

    The CSR successor of :func:`repro.core.domination.pdom_bounds_batch`:
    candidate ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of ``regions`` /
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
    backend:
        ``"numpy"``, ``"numba"`` or ``None`` (resolve through the ladder —
        explicit argument, then ``REPRO_KERNEL_BACKEND``, then best
        available).  Backends are bit-identical by construction; see the
        module docstring for the determinism argument.

    Returns
    -------
    (lower, upper):
        ``(n_b * n_r, c)`` bound matrices in row-major (target-major) pair
        order, clamped to probabilities exactly like the scalar path.  Each
        column depends only on its own candidate's segment and the two
        grids, so columns remain cacheable across batch compositions.
    """
    if p < 1:
        raise ValueError(f"Lp norms require p >= 1, got {p}")
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
    resolved = resolve_backend(backend)
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    num_candidates = offsets.shape[0] - 1
    if num_candidates == 0:
        empty = np.empty((num_pairs, 0), dtype=float)
        return empty, empty.copy()

    start = time.perf_counter()
    if resolved == "numba":
        result = _pdom_csr_numba(
            regions, masses, offsets, target_regions, reference_regions, p, criterion
        )
    else:
        result = _pdom_csr_numpy(
            regions, masses, offsets, target_regions, reference_regions, p, criterion
        )
    _record_kernel_time(resolved, time.perf_counter() - start)
    return result
