"""Refinement in rounds: referee against the one-run-at-a-time heap loop.

``RefinementScheduler`` steps all unfinished runs of a query together, one
iteration per round, sharing UGF expansions between runs and combining each
run's pair windows before the ``ShiftRight``; the heap is replayed afterwards
for the ``on_finished`` order.  The referee below is the scheduler and the
per-run iteration of ``repro`` 1.11, copied: one heap pop, one kernel call,
one ``domination_count_bounds_batch`` and one ``combine_weighted_bounds_arrays``
per step.  Every result payload — bounds, decisions, ``iterations`` and
``sequence`` — must be byte-identical to it.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

import repro.core.idca as idca_module
import repro.engine.scheduler as scheduler_module
from repro.core import IDCA, IDCARun, IterationStats, UncertaintyBelow
from repro.core.domination_count import (
    _combine_windows,
    _filter_step_bounds,
    _resolve_truncation,
    combine_weighted_bounds_arrays,
    domination_count_bounds,
    domination_count_bounds_batch,
)
from repro.core.generating_functions import ugf_pmf_bounds_batch
from repro.core.kernels import pdom_bounds_csr
from repro.datasets import (
    discrete_sample_database,
    random_reference_object,
    uniform_rectangle_database,
)
from repro.engine import QueryEngine, RefinementScheduler
from repro.engine.candidates import RTreeCandidateSource, ScanCandidateSource
from repro.engine.errors import DeadlineExceeded
from repro.gateway.codec import canonical_json, encode_result
from repro.uncertain import TruncatedGaussianObject, UncertainDatabase
from repro.uncertain.decomposition import csr_partitions_batch


# --------------------------------------------------------------------- #
# the referee: 1.11's per-run iteration and heap loop
# --------------------------------------------------------------------- #
def _reference_step(run: IDCARun) -> bool:
    if run.finished:
        return False
    idca = run.idca
    if run._influence_trees is None:
        run._materialise_trees()
    iteration = run._iteration + 1
    depths = run._candidate_depths
    if idca.adaptive_candidate_refinement:
        depths[run._previous_widths > idca.adaptive_width_threshold] += 1
    else:
        depths[:] = iteration
    if idca.max_candidate_depth is not None:
        np.minimum(depths, idca.max_candidate_depth, out=depths)
    t_regions, t_masses = run._target_tree.partitions_arrays(min(iteration, idca.max_target_depth))
    r_regions, r_masses = run._reference_tree.partitions_arrays(
        min(iteration, idca.max_reference_depth)
    )
    batch = csr_partitions_batch(run._influence_trees, [int(d) for d in depths])
    lower, upper = pdom_bounds_csr(
        batch.regions, batch.masses, batch.offsets, t_regions, r_regions,
        p=idca.p, criterion=idca.criterion,
    )
    weights = (t_masses[:, None] * r_masses[None, :]).ravel()
    active = np.flatnonzero(weights > 0.0)
    if idca.adaptive_candidate_refinement:
        widths = np.zeros(len(depths))
        for pair in active:
            widths += float(weights[pair]) * (upper[pair] - lower[pair])
        run._previous_widths = widths
    bounds = combine_weighted_bounds_arrays(
        weights[active],
        *domination_count_bounds_batch(
            lower[active], upper[active], complete_count=run._complete_count,
            total_objects=run._total_objects, k_cap=idca.k_cap,
        ),
        k_cap=idca.k_cap, max_count=run._total_objects,
    )
    run.result.bounds = bounds
    run.result.iterations.append(IterationStats(iteration, bounds.uncertainty(), 0.0, 0, 0))
    run._iteration = iteration
    stop = run.stop
    run._finished = bool(
        (stop is not None and stop.should_stop(bounds, iteration))
        or bounds.is_exact()
        or iteration >= run.max_iterations
    )
    run.result.decision = getattr(stop, "decision", None)
    return True


class _ReferenceScheduler(RefinementScheduler):
    def refine(self, runs, priority, on_finished=None) -> int:
        counter = itertools.count()
        heap = []
        for run in runs:
            if not run.finished:
                heapq.heappush(heap, (-priority(run), next(counter), run))
        steps = 0
        budget = self.global_iteration_budget
        while heap:
            if budget is not None and steps >= budget:
                break
            _, _, run = heapq.heappop(heap)
            if run.finished:
                continue
            run.step()
            steps += 1
            if run.finished:
                if on_finished is not None:
                    on_finished(run)
            else:
                heapq.heappush(heap, (-priority(run), next(counter), run))
        self.steps_taken += steps
        return steps


class _PlainScan:
    """The scan source behind a non-scan type: the engine computes no shared
    MinDist profile for it, so each side of a kNN does its own pass."""

    def __init__(self, database):
        self._scan = ScanCandidateSource(database)

    def knn_candidates(self, query, k, p, exclude):
        return self._scan.knn_candidates(query, k, p, exclude)

    def all_candidates(self, exclude):
        return self._scan.all_candidates(exclude)


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def _database(kind: str, seed: int = 3) -> UncertainDatabase:
    if kind == "discrete":
        return discrete_sample_database(
            num_objects=45, samples_per_object=4, max_extent=0.12, seed=seed
        )
    if kind == "box":
        return uniform_rectangle_database(50, max_extent=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    return UncertainDatabase(
        [
            TruncatedGaussianObject(rng.uniform(0, 1, 2), rng.uniform(0.005, 0.03, 2))
            for _ in range(45)
        ]
    )


def _source(database, kind: str, reference: bool):
    if kind == "rtree":
        return RTreeCandidateSource(database)
    return _PlainScan(database) if reference else ScanCandidateSource(database)


def _payload(result) -> bytes:
    return canonical_json(encode_result(result))


def _reference_payload(monkeypatch, database, source, ask, budget=None) -> bytes:
    engine = QueryEngine(
        database,
        candidate_source=_source(database, source, reference=True),
        scheduler=_ReferenceScheduler(budget),
    )
    with monkeypatch.context() as patch:
        patch.setattr(IDCARun, "step", _reference_step)
        return _payload(ask(engine))


def _assert_matches_reference(monkeypatch, database, source, ask, budget=None):
    """Cold and warm memo on one engine, both against the referee."""
    expected = _reference_payload(monkeypatch, database, source, ask, budget)
    engine = QueryEngine(
        database,
        candidate_source=_source(database, source, reference=False),
        scheduler=RefinementScheduler(budget),
    )
    cold = _payload(ask(engine))
    warm = _payload(ask(engine))
    assert cold == expected
    assert warm == expected


QUERY = random_reference_object(extent=0.1, seed=9)


# --------------------------------------------------------------------- #
# byte-identical payloads
# --------------------------------------------------------------------- #
class TestRoundsMatchTheHeapLoop:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("source", ["scan", "rtree"])
    @pytest.mark.parametrize("db", ["discrete", "box", "gaussian"])
    def test_knn(self, monkeypatch, db, source, k):
        database = _database(db)
        _assert_matches_reference(
            monkeypatch, database, source,
            lambda engine: engine.knn(QUERY, k=k, tau=0.5, max_iterations=4),
        )

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("db", ["discrete", "box", "gaussian"])
    def test_rknn_over_every_object(self, monkeypatch, db, k):
        database = _database(db)
        _assert_matches_reference(
            monkeypatch, database, "scan",
            lambda engine: engine.rknn(QUERY, k=k, tau=0.4, max_iterations=3),
        )

    @pytest.mark.parametrize("source", ["scan", "rtree"])
    def test_rknn_with_a_database_query(self, monkeypatch, source):
        database = _database("box", seed=5)
        _assert_matches_reference(
            monkeypatch, database, source,
            lambda engine: engine.rknn(
                4, k=3, tau=0.5, max_iterations=4, candidate_indices=range(0, 50, 2)
            ),
        )

    @pytest.mark.parametrize("source", ["scan", "rtree"])
    @pytest.mark.parametrize("db", ["discrete", "box", "gaussian"])
    def test_ranking_over_every_object(self, monkeypatch, db, source):
        database = _database(db)
        _assert_matches_reference(
            monkeypatch, database, source,
            lambda engine: engine.ranking(QUERY, max_iterations=3, uncertainty_budget=0.05),
        )

    @pytest.mark.parametrize("db", ["discrete", "box", "gaussian"])
    def test_inverse_ranking(self, monkeypatch, db):
        database = _database(db)
        _assert_matches_reference(
            monkeypatch, database, "scan",
            lambda engine: engine.inverse_ranking(7, QUERY, max_iterations=5),
        )

    @pytest.mark.parametrize("kind", ["knn", "ranking"])
    def test_adaptive_candidate_refinement(self, monkeypatch, kind):
        database = _database("box", seed=8)

        def ask(engine):
            idca = IDCA(
                engine.database,
                k_cap=3 if kind == "knn" else None,
                adaptive_candidate_refinement=True,
                adaptive_width_threshold=0.02,
            )
            if kind == "knn":
                return engine.knn(QUERY, k=3, tau=0.5, max_iterations=5, idca=idca)
            return engine.ranking(QUERY, max_iterations=4, idca=idca, uncertainty_budget=0.0)

        _assert_matches_reference(monkeypatch, database, "scan", ask)

    @pytest.mark.parametrize("budget", [0, 3])
    @pytest.mark.parametrize("kind", ["knn", "rknn", "ranking"])
    def test_global_iteration_budget(self, monkeypatch, kind, budget):
        database = _database("box", seed=4)
        ask = {
            "knn": lambda engine: engine.knn(QUERY, k=3, tau=0.5, max_iterations=4),
            "rknn": lambda engine: engine.rknn(QUERY, k=2, tau=0.5, max_iterations=3),
            "ranking": lambda engine: engine.ranking(
                QUERY, max_iterations=3, candidate_indices=range(12)
            ),
        }[kind]
        _assert_matches_reference(monkeypatch, database, "scan", ask, budget=budget)

    @pytest.mark.parametrize("cells", [1, 300, 5_000])
    @pytest.mark.parametrize("kind", ["rknn", "ranking"])
    def test_forced_chunk_boundaries(self, monkeypatch, kind, cells):
        database = _database("discrete", seed=6)
        ask = {
            "rknn": lambda engine: engine.rknn(QUERY, k=3, tau=0.4, max_iterations=3),
            "ranking": lambda engine: engine.ranking(QUERY, max_iterations=3),
        }[kind]
        monkeypatch.setattr(idca_module, "_ROUND_CHUNK_CELLS", cells)
        _assert_matches_reference(monkeypatch, database, "scan", ask)

    def test_on_finished_order_is_the_heap_order(self):
        database = _database("box", seed=2)
        orders = []
        for scheduler in (_ReferenceScheduler(), RefinementScheduler()):
            idca = IDCA(database)
            runs = [
                idca.start_run(i, QUERY, stop=UncertaintyBelow(0.3), max_iterations=4)
                for i in range(12)
            ]
            finished = []
            steps = scheduler.refine(
                runs, lambda run: run.result.bounds.uncertainty(), on_finished=finished.append
            )
            orders.append(([runs.index(run) for run in finished], steps))
        assert orders[0] == orders[1]


# --------------------------------------------------------------------- #
# exactness of the pieces
# --------------------------------------------------------------------- #
def _random_bounds(rng, rows, n):
    """Per-object domination bounds with exact zeros and ones mixed in."""
    lower = rng.uniform(0, 1, size=(rows, n)) * (rng.uniform(size=(rows, n)) < 0.7)
    width = rng.uniform(0, 1, size=(rows, n)) * (rng.uniform(size=(rows, n)) < 0.8)
    return lower, np.minimum(1.0, lower + width)


class TestExactness:
    def test_zero_padded_and_stacked_ugf_rows_are_bit_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cap = int(rng.integers(0, 6))
            members = []
            for _ in range(int(rng.integers(1, 4))):
                n = cap + 2 + int(rng.integers(0, 6))
                members.append(_random_bounds(rng, int(rng.integers(1, 9)), n))
            width = max(lower.shape[1] for lower, _ in members) + int(rng.integers(0, 3))
            stacked = [np.zeros((sum(l.shape[0] for l, _ in members), width)) for _ in range(2)]
            row = 0
            for lower, upper in members:
                stacked[0][row : row + lower.shape[0], : lower.shape[1]] = lower
                stacked[1][row : row + lower.shape[0], : lower.shape[1]] = upper
                row += lower.shape[0]
            together = ugf_pmf_bounds_batch(*stacked, k_cap=cap)
            row = 0
            for lower, upper in members:
                alone = ugf_pmf_bounds_batch(lower, upper, k_cap=cap)
                for got, want in zip(together, alone):
                    part = got[row : row + lower.shape[0]]
                    assert part.shape == want.shape
                    assert part.tobytes() == want.tobytes()
                row += lower.shape[0]

    @staticmethod
    def _old_combine(weights, pmf_lower, pmf_upper, k_cap, max_count):
        """``combine_weighted_bounds_arrays`` of 1.11: a row-by-row loop."""
        lower = np.zeros(pmf_lower.shape[1])
        upper = np.zeros(pmf_lower.shape[1])
        total = 0.0
        for i in range(weights.shape[0]):
            lower += float(weights[i]) * pmf_lower[i]
            upper += float(weights[i]) * pmf_upper[i]
            total += float(weights[i])
        missing = max(0.0, 1.0 - total)
        if missing > 1e-12:
            upper += missing
        return lower, np.minimum(upper, 1.0)

    def test_combine_then_shift_equals_shift_then_combine(self):
        rng = np.random.default_rng(1)
        for _ in range(3000):
            n = int(rng.integers(0, 12))
            rows = int(rng.integers(1, 20))
            complete = int(rng.integers(0, 8))
            total = complete + n + int(rng.integers(0, 4))
            k_cap = None if rng.uniform() < 0.25 else int(rng.integers(0, 12))
            lower, upper = _random_bounds(rng, rows, n)
            # half the cases lose weight to dropped zero-mass pairs
            scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.3, 1.0)
            weights = rng.dirichlet(np.ones(rows)) * scale
            shifted = domination_count_bounds_batch(
                lower, upper, complete_count=complete, total_objects=total, k_cap=k_cap
            )
            want = combine_weighted_bounds_arrays(weights, *shifted, k_cap=k_cap, max_count=total)
            old_lower, old_upper = self._old_combine(weights, *shifted, k_cap, total)
            assert want.lower.tobytes() == old_lower.tobytes()
            assert want.upper.tobytes() == old_upper.tobytes()
            _, ugf_cap = _resolve_truncation(n, complete, total, k_cap)
            windows = ugf_pmf_bounds_batch(lower, upper, k_cap=ugf_cap)
            got = _combine_windows(weights, *windows, complete, n, total, k_cap)
            assert got.lower.tobytes() == want.lower.tobytes()
            assert got.upper.tobytes() == want.upper.tobytes()
            assert (got.k_cap, got.max_count) == (want.k_cap, want.max_count)

    def test_closed_form_filter_step_bounds(self):
        for n in range(41):
            for complete in (0, 3):
                for total in (complete + n, complete + n + 2):
                    caps = {None, 0, complete, complete + n // 2, complete + n, total, total + 5}
                    if complete:
                        caps.add(complete - 1)
                    for k_cap in caps:
                        want = domination_count_bounds(
                            np.zeros(n), np.ones(n), complete_count=complete,
                            total_objects=total, k_cap=k_cap,
                        )
                        got = _filter_step_bounds(n, complete, total, k_cap)
                        assert got.lower.tobytes() == want.lower.tobytes()
                        assert got.upper.tobytes() == want.upper.tobytes()
                        assert (got.k_cap, got.max_count) == (want.k_cap, want.max_count)

    def test_iteration_stats_split_the_shared_expansion(self):
        database = _database("box", seed=2)
        idca = IDCA(database)
        runs = [idca.start_run(i, QUERY, max_iterations=2) for i in range(10)]
        idca_module.step_runs(runs)
        for run in runs:
            if run.iteration:
                stats = run.result.iterations[-1]
                assert stats.iteration == 1 and stats.elapsed_seconds > 0.0
                assert stats.num_pairs >= 1 and stats.kernel_backend


# --------------------------------------------------------------------- #
# a deadline in the middle of a query
# --------------------------------------------------------------------- #
class _Clock:
    """``time.time`` stand-in: returns how often it has been read."""

    def __init__(self):
        self.reads = 0

    def time(self) -> float:
        self.reads += 1
        return float(self.reads - 1)


class TestDeadlineMidQuery:
    def test_deadline_stops_the_round_loop(self, monkeypatch):
        database = _database("box", seed=7)
        idca = IDCA(database)
        runs = [idca.start_run(i, QUERY, max_iterations=4) for i in range(10)]
        pending = [run for run in runs if not run.finished]
        assert len(pending) >= 4
        # every run its own chunk: a run's iteration completes once the next
        # run is planned, or at the end of the round
        monkeypatch.setattr(idca_module, "_ROUND_CHUNK_CELLS", 1)
        monkeypatch.setattr(scheduler_module, "time", _Clock())
        scheduler = RefinementScheduler()
        checks = len(pending) + 2  # one full round, then two more checks pass
        scheduler.deadline_epoch = checks - 0.5
        done = checks - 1  # the second run of round two was planned, not completed
        with pytest.raises(DeadlineExceeded, match=f"after {done} iterations") as info:
            scheduler.refine(runs, lambda run: run.result.bounds.uncertainty())
        assert any(entry.name == "_refine_in_rounds" for entry in info.traceback)
        assert scheduler.steps_taken == done == sum(run.iteration for run in runs)
        assert [run.iteration for run in pending] == [2] + [1] * (len(pending) - 1)
        assert all(len(run.result.iterations) == run.iteration + 1 for run in runs)

    def test_unfinished_chunk_leaves_runs_untouched(self, monkeypatch):
        database = _database("box", seed=7)
        idca = IDCA(database)
        runs = [idca.start_run(i, QUERY, max_iterations=4) for i in range(10)]
        monkeypatch.setattr(scheduler_module, "time", _Clock())
        scheduler = RefinementScheduler()
        scheduler.deadline_epoch = 2.5  # the whole round is one chunk
        with pytest.raises(DeadlineExceeded):
            scheduler.refine(runs, lambda run: run.result.bounds.uncertainty())
        assert scheduler.steps_taken == 0
        assert all(run.iteration == 0 and len(run.result.iterations) == 1 for run in runs)

    @pytest.mark.parametrize("kind", ["knn", "rknn"])
    def test_next_query_equals_a_fresh_engine(self, monkeypatch, kind):
        database = _database("box", seed=7)
        ask = {
            "knn": lambda engine: engine.knn(QUERY, k=3, tau=0.5, max_iterations=4),
            "rknn": lambda engine: engine.rknn(QUERY, k=2, tau=0.5, max_iterations=3),
        }[kind]
        engine = QueryEngine(database)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler_module, "time", _Clock())
            engine.scheduler.deadline_epoch = 1.5
            with pytest.raises(DeadlineExceeded):
                ask(engine)
            engine.scheduler.deadline_epoch = None
        assert engine.scheduler.steps_taken <= 2
        assert _payload(ask(engine)) == _payload(ask(QueryEngine(database)))


def test_knn_shares_one_min_dist_pass(monkeypatch):
    """The scan source and the runs' pre-screen read one MinDist profile."""
    database = _database("box", seed=3)
    engine = QueryEngine(database)
    calls = []
    real = idca_module.reference_min_dists
    monkeypatch.setattr(
        idca_module, "reference_min_dists", lambda *args: calls.append(1) or real(*args)
    )
    engine.knn(QUERY, k=3, tau=0.5, max_iterations=2)
    assert len(calls) == 1
    # a caller-supplied IDCA computes its own, the scan computes its own
    own = IDCA(database, k_cap=3)
    engine.knn(QUERY, k=3, tau=0.5, max_iterations=2, idca=own)
    assert own._reference_profile is not None and len(calls) == 2


def test_step_runs_is_the_only_step(monkeypatch):
    database = _database("box", seed=3)
    calls = []
    real = idca_module.step_runs
    monkeypatch.setattr(
        idca_module, "step_runs", lambda runs, *a: calls.append(len(runs)) or real(runs, *a)
    )
    run = IDCA(database).start_run(0, QUERY, max_iterations=2)
    run.run()
    assert calls == [1] * run.iteration

