"""The pair-bounds kernel's plumbing: CSR batches, timing, engine parity.

Complements ``tests/test_pdom_batch.py`` (numerical parity of the kernel
with the scalar loop) with the plumbing around it: ``csr_partitions_batch``
construction and depth clamping, the kernel timing counters
surfaced in ``IterationStats`` / ``BatchReport``, bit-identical engine
results across worker counts and repeated batches, the removal of the
former backend selection (``kernel_backend=``, ``REPRO_KERNEL_BACKEND``),
and the typed rejection of a NaN norm parameter.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.core import IDCA, MaxIterations
from repro.core.kernels import (
    kernel_environment,
    kernel_stats,
    pdom_bounds_csr,
    total_kernel_seconds,
)
from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    RankingQuery,
)
from repro.engine.service import QueryService
from repro.uncertain import (
    DecompositionTree,
    clear_csr_cache,
    csr_partitions_batch,
)


@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=20, max_extent=0.05, seed=41)


@pytest.fixture(scope="module")
def reference():
    return random_reference_object(extent=0.05, seed=42, label="query")


@pytest.fixture(scope="module")
def requests(reference):
    return [
        KNNQuery(reference, k=3, tau=0.5, max_iterations=3),
        KNNQuery(7, k=2, tau=0.3, max_iterations=3),
        RankingQuery(reference, max_iterations=2, candidate_indices=range(8)),
        InverseRankingQuery(5, reference, max_iterations=3),
    ]


def _snapshot(results) -> list:
    snap = []
    for result in results:
        if hasattr(result, "matches"):
            snap.append(
                [
                    (m.index, m.probability_lower, m.probability_upper,
                     m.decision, m.iterations, m.sequence)
                    for bucket in (result.matches, result.undecided, result.rejected)
                    for m in bucket
                ]
            )
        elif hasattr(result, "ranking"):
            snap.append(
                [
                    (e.index, e.expected_rank_lower, e.expected_rank_upper, e.iterations)
                    for e in result.ranking
                ]
            )
        else:
            snap.append((list(map(float, result.lower)), list(map(float, result.upper))))
    return snap


# --------------------------------------------------------------------- #
# one kernel: no backend selection is left
# --------------------------------------------------------------------- #
class TestSingleKernel:
    def test_kernel_environment_metadata(self):
        env = kernel_environment()
        assert env["numpy_version"] == np.__version__
        assert env["cpu_count"] >= 1
        assert env["default_backend"] == "numpy"
        assert env["numba_version"] is None

    def test_backend_keywords_are_gone(self, database):
        with pytest.raises(TypeError):
            IDCA(database, kernel_backend="numpy")
        with pytest.raises(TypeError):
            QueryEngine(database, kernel_backend="numpy")
        grid, _ = DecompositionTree(database[1]).partitions_arrays(1)
        batch = csr_partitions_batch([DecompositionTree(database[0])], [2])
        with pytest.raises(TypeError):
            pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets, grid, grid, backend="numpy"
            )

    def test_removed_names_are_not_exported(self):
        from repro import core

        for name in ("pdom_bounds_batch", "resolve_backend", "numba_available"):
            assert not hasattr(repro, name)
            assert not hasattr(core, name)


class TestNanNormParameter:
    """A NaN ``p`` passes every ``p < 1`` test, so it must be rejected
    explicitly instead of answering with vacuous bounds."""

    def test_engine_and_idca_reject_nan_p(self, database):
        with pytest.raises(ValueError, match="p >= 1"):
            QueryEngine(database, p=math.nan)
        with pytest.raises(ValueError, match="p >= 1"):
            IDCA(database, p=math.nan)

    def test_kernel_rejects_nan_p(self, database):
        grid, _ = DecompositionTree(database[1]).partitions_arrays(1)
        batch = csr_partitions_batch([DecompositionTree(database[0])], [2])
        with pytest.raises(ValueError, match="p >= 1"):
            pdom_bounds_csr(
                batch.regions, batch.masses, batch.offsets, grid, grid, p=math.nan
            )

    def test_geometry_rejects_nan_p(self, database):
        from repro.geometry import dominates_optimal, domination_bulk, lp_distance

        a, b, r = (database[i].mbr for i in range(3))
        with pytest.raises(ValueError, match="p >= 1"):
            dominates_optimal(a, b, r, p=math.nan)
        grid, _ = DecompositionTree(database[1]).partitions_arrays(1)
        with pytest.raises(ValueError, match="p >= 1"):
            domination_bulk(grid, grid, grid, p=math.nan)
        with pytest.raises(ValueError, match="p >= 1"):
            lp_distance([0.0, 0.0], [1.0, 1.0], p=math.nan)


# --------------------------------------------------------------------- #
# CSR batch construction
# --------------------------------------------------------------------- #
class TestCSRPartitionBatch:
    def test_layout_matches_per_tree_arrays(self, database):
        trees = [DecompositionTree(obj) for obj in database[:6]]
        depths = [1 + (i % 3) for i in range(6)]
        batch = csr_partitions_batch(trees, depths)
        assert batch.num_candidates == 6
        assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.total_partitions
        for i, (tree, depth) in enumerate(zip(trees, depths)):
            regions, masses = tree.partitions_arrays(depth)
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            assert hi - lo == masses.shape[0] == int(batch.counts[i])
            assert np.array_equal(batch.regions[lo:hi], regions)
            assert np.array_equal(batch.masses[lo:hi], masses)

    def test_cache_key_uses_effective_depth(self, database):
        tree = DecompositionTree(database[0], max_depth=2)
        capped = csr_partitions_batch([tree], [5])
        exact = csr_partitions_batch([tree], [2])
        # both clamp to max_depth=2
        for got, want in zip(
            (capped.regions, capped.masses, capped.offsets),
            (exact.regions, exact.masses, exact.offsets),
        ):
            assert np.array_equal(got, want)

    def test_arrays_are_read_only(self, database):
        batch = csr_partitions_batch([DecompositionTree(database[0])], [2])
        for array in (batch.regions, batch.masses, batch.offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_empty_batch(self):
        batch = csr_partitions_batch([], [])
        assert batch.num_candidates == 0
        assert batch.total_partitions == 0
        assert batch.offsets.tolist() == [0]

    def test_mismatched_lengths_raise(self, database):
        with pytest.raises(ValueError):
            csr_partitions_batch([DecompositionTree(database[0])], [1, 2])

    def test_clear_csr_cache(self, database):
        trees = [DecompositionTree(database[0])]
        first = csr_partitions_batch(trees, [1])
        clear_csr_cache()
        second = csr_partitions_batch(trees, [1])
        assert first is not second
        assert np.array_equal(first.regions, second.regions)


# --------------------------------------------------------------------- #
# timing instrumentation
# --------------------------------------------------------------------- #
class TestKernelTiming:
    def test_counters_accumulate_per_call(self, database):
        tree = DecompositionTree(database[0])
        batch = csr_partitions_batch([tree], [3])
        grid, _ = DecompositionTree(database[1]).partitions_arrays(1)
        before_seconds = total_kernel_seconds()
        before_calls = kernel_stats()["kernel_calls"]
        pdom_bounds_csr(batch.regions, batch.masses, batch.offsets, grid, grid)
        assert total_kernel_seconds() > before_seconds
        assert kernel_stats()["kernel_calls"] == before_calls + 1

    def test_iteration_stats_record_kernel_time(self, database, reference):
        idca = IDCA(database)
        result = idca.domination_count(
            0, reference, stop=MaxIterations(2), max_iterations=2
        )
        refined = result.iterations[1:]
        assert refined, "expected at least one refinement iteration"
        for stat in refined:
            assert 0.0 <= stat.kernel_seconds <= stat.elapsed_seconds
        # the fresh run computed at least one column in the kernel
        assert any(stat.kernel_seconds > 0.0 for stat in refined)

    def test_batch_report_surfaces_kernel_fields(self, database, requests):
        engine = QueryEngine(database)
        engine.evaluate_many(requests)
        report = engine.last_batch_report
        assert report.kernel_seconds > 0.0
        payload = report.to_dict()
        assert "kernel_backend" not in payload
        assert payload["kernel_seconds"] == report.kernel_seconds


# --------------------------------------------------------------------- #
# engine-level parity: workers × repeated batches
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serial_snapshot(database, requests):
    return _snapshot(QueryEngine(database).evaluate_many(requests))


class TestEngineParity:
    def test_serial_is_bit_identical(self, database, requests, serial_snapshot):
        engine = QueryEngine(database)
        assert _snapshot(engine.evaluate_many(requests)) == serial_snapshot

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_pool_is_bit_identical(
        self, database, requests, serial_snapshot, workers
    ):
        engine = QueryEngine(database)
        with QueryService(engine, ExecutorConfig(workers=workers)) as service:
            assert _snapshot(engine.evaluate_many(requests, service)) == serial_snapshot

    @pytest.mark.parametrize("workers", [1, 4])
    def test_service_is_bit_identical(
        self, database, requests, serial_snapshot, workers
    ):
        engine = QueryEngine(database)
        config = ExecutorConfig(workers=workers)
        with QueryService(engine, config) as service:
            for _ in range(2):
                assert _snapshot(service.evaluate_many(requests)) == serial_snapshot

    def test_former_backend_env_variable_is_ignored(
        self, database, requests, serial_snapshot, monkeypatch
    ):
        """``REPRO_KERNEL_BACKEND`` selected a backend once; any value,
        even a bogus one, now neither raises nor changes a result."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        engine = QueryEngine(database)
        assert _snapshot(engine.evaluate_many(requests)) == serial_snapshot
