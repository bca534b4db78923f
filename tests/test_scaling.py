"""Scaling contracts as deterministic work counts.

Wall-clock gates cannot fire reliably on a small shared CI runner, but the
number of Python-level calls a path makes repeats exactly from run to run.
Each case counts ``cProfile`` call totals at two input sizes and asserts a
stated growth bound, so a path that turns super-linear again fails here on
any machine.  On failure the message names the test and both counts.
"""

from __future__ import annotations

import cProfile

import numpy as np

from repro.core import DominationCountBounds, ugf_pmf_bounds_batch


def _call_total(fn, *args, **kwargs) -> int:
    """Function calls (Python and builtin) made by ``fn(*args, **kwargs)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn(*args, **kwargs)
    finally:
        profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats())


def _bounds(cells: int) -> DominationCountBounds:
    rng = np.random.default_rng(cells)
    lower = rng.dirichlet(np.ones(cells)) * 0.5
    return DominationCountBounds(lower, np.minimum(lower + 2.0 / cells, 1.0))


def test_expected_count_bounds_calls_do_not_grow_with_the_pmf(request):
    """O(1) numpy calls whatever the PMF length (it was one ``cdf_bounds`` per cell)."""
    small = _call_total(_bounds(1_001).expected_count_bounds)
    large = _call_total(_bounds(8_001).expected_count_bounds)
    assert small == large, (
        f"{request.node.nodeid}: {small} calls at 1 001 cells, {large} at 8 001"
    )


def test_ugf_batch_calls_grow_linearly_with_influence_objects(request):
    """O(1) calls per fold step: n -> 4n influence columns costs at most 4.5x.

    The 2-D expansion read its bounds out with O(n^2) slice sums, a 16x
    growth for 4x the columns.
    """
    rng = np.random.default_rng(5)
    counts = []
    for n in (50, 200):
        lower = rng.uniform(0.0, 0.5, size=(8, n))
        upper = lower + rng.uniform(0.0, 0.5, size=(8, n))
        counts.append(_call_total(ugf_pmf_bounds_batch, lower, upper))
    small, large = counts
    assert large <= 4.5 * small, (
        f"{request.node.nodeid}: {small} calls at 50 columns, {large} at 200"
    )
