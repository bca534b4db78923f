"""The unified probabilistic filter–refinement query engine.

All five query types of the paper share the same skeleton:

1. a **candidate source** prunes objects that cannot satisfy the predicate in
   any possible world (spatial filter),
2. a **shared refinement context** provides decomposition trees and memoised
   per-pair domination bounds so no work is repeated across candidates or
   across the queries of a batch,
3. a **refinement scheduler** spends the iteration budget on the candidates
   whose predicate bounds are still widest instead of exhausting candidates
   in arrival order,
4. the per-candidate outcomes are assembled into the query-type's result
   contract (``ThresholdQueryResult``, ``RankingResult``, …).

The public functions in :mod:`repro.queries` are thin adapters over this
class; :meth:`QueryEngine.evaluate_many` exposes the same machinery as a
batch API where the shared context amortises decomposition and bound
computations across a whole workload.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable, Optional, Sequence

from ..core import (
    IDCA,
    IDCAResult,
    IDCARun,
    StopCriterion,
    ThresholdDecision,
    UncertaintyBelow,
)
from ..geometry import DominationCriterion
from ..index import RTree
from ..queries.common import (
    ObjectSpec,
    ProbabilisticMatch,
    ThresholdQueryResult,
    resolve_object,
)
from ..queries.inverse_ranking import RankDistribution
from ..queries.range import range_bounds_csr
from ..queries.ranking import RankedObject, RankingResult
from ..uncertain import UncertainDatabase
from ..uncertain.decomposition import AxisPolicy, csr_partitions
from .candidates import CandidateSource, ScanCandidateSource, make_candidate_source
from .context import RefinementContext
from .executor import (
    BatchReport,
    ExecutorConfig,
    run_chunk_on_engine,
    run_process_batch,
)
from .requests import QueryRequest
from .scheduler import RefinementScheduler

__all__ = ["QueryEngine"]


class QueryEngine:
    """Unified filter–refinement engine behind every probabilistic query.

    Parameters
    ----------
    database:
        The uncertain database to query.
    p, criterion:
        Distance norm and complete-domination criterion shared by every query
        this engine evaluates.
    candidate_source:
        Spatial filter implementation; defaults to the R-tree source when
        ``rtree`` is given and the vectorised scan otherwise.
    rtree:
        Convenience shortcut for ``candidate_source=RTreeCandidateSource(...)``.
    context:
        Shared refinement context.  Pass one context to several engines (or
        reuse an engine across queries) to share decomposition trees and
        memoised domination bounds; a private context is created otherwise.
    scheduler:
        Refinement scheduler; the default drains every candidate's budget,
        most-uncertain first.  Pass one with ``global_iteration_budget`` to
        cap the total refinement effort per query.
    kernel_backend:
        Pair-bounds kernel backend for every IDCA instance this engine
        creates: ``"numpy"``, ``"numba"`` or ``None`` (default) to resolve
        through the fallback ladder (``REPRO_KERNEL_BACKEND``, then the best
        available backend).  The request — not the resolution — is stored,
        so a pickled engine re-resolves in each worker against whatever is
        importable there.  Backends are bit-identical by construction; this
        only selects the implementation, never the results.
    """

    def __init__(
        self,
        database: UncertainDatabase,
        p: float = 2.0,
        criterion: DominationCriterion = "optimal",
        candidate_source: Optional[CandidateSource] = None,
        rtree: Optional[RTree] = None,
        context: Optional[RefinementContext] = None,
        scheduler: Optional[RefinementScheduler] = None,
        axis_policy: AxisPolicy = "round_robin",
        kernel_backend: Optional[str] = None,
    ):
        from ..core.kernels import resolve_backend

        resolve_backend(kernel_backend)  # eager name validation only
        self.database = database
        self.p = p
        self.criterion = criterion
        self.kernel_backend = kernel_backend
        self.candidate_source = candidate_source or make_candidate_source(database, rtree)
        self.context = context or RefinementContext(database, axis_policy=axis_policy)
        self.scheduler = scheduler or RefinementScheduler()
        #: :class:`~repro.engine.executor.BatchReport` of the most recent
        #: :meth:`evaluate_many` call (``None`` before the first batch).
        self.last_batch_report: Optional[BatchReport] = None

    # ------------------------------------------------------------------ #
    # snapshot advancement
    # ------------------------------------------------------------------ #
    def apply_mutations(self, mutations: Sequence) -> UncertainDatabase:
        """Advance the engine to the next database snapshot (epoch + 1).

        Applies a batch of :class:`~repro.uncertain.base.Insert` /
        :class:`~repro.uncertain.base.Update` /
        :class:`~repro.uncertain.base.Delete` mutations to the current
        database and moves every engine component to the resulting snapshot
        with per-object granularity: the refinement context evicts only the
        trees and pair-bounds columns of replaced objects (untouched columns
        stay warm, locally and in the shared store), and an R-tree candidate
        source maintains its tree incrementally.  Returns the new snapshot.

        Callers must not run queries concurrently with this method — the
        service tier sequences mutations between batches
        (:meth:`repro.engine.service.QueryService.apply`), which is what
        gives queries the snapshot-visibility guarantee.  Mutations should
        be *resolved* first (:meth:`UncertainDatabase.resolve_mutations`)
        when the same batch is replayed in other processes.
        """
        old_database = self.database
        resolved = old_database.resolve_mutations(mutations)
        database = old_database.apply(resolved)
        removed = [obj for obj in old_database if database.position_of(obj) is None]
        self.database = database
        self.context.advance(database, removed)
        self.candidate_source.advance(database, resolved)
        return database

    # ------------------------------------------------------------------ #
    # threshold queries (kNN / RkNN)
    # ------------------------------------------------------------------ #
    def _threshold_idca(self, idca: Optional[IDCA], k: int) -> IDCA:
        if idca is None:
            return self.context.idca_for(
                self.p, self.criterion, k_cap=k, kernel_backend=self.kernel_backend
            )
        if idca.k_cap is not None and idca.k_cap < k:
            raise ValueError("the supplied IDCA instance truncates below the requested k")
        return idca

    def _finish_threshold(
        self,
        result: ThresholdQueryResult,
        runs: Sequence[tuple[int, IDCARun]],
        k: int,
    ) -> None:
        """Schedule the undecided runs, then assemble the result buckets.

        Sequence numbers record the order in which each candidate's
        evaluation *concluded*: filter-decided candidates first (arrival
        order), then scheduler-decided candidates as their predicates become
        decidable, then any candidate cut off by a global budget.
        """
        sequence = itertools.count()
        concluded: dict[int, int] = {}
        for _, run in runs:
            if run.finished:
                concluded[id(run)] = next(sequence)

        def predicate_width(run: IDCARun) -> float:
            lower, upper = run.result.bounds.less_than(k)
            return upper - lower

        self.scheduler.refine(
            [run for _, run in runs],
            predicate_width,
            on_finished=lambda run: concluded.setdefault(id(run), next(sequence)),
        )
        for _, run in runs:  # runs cut off by a global iteration budget
            concluded.setdefault(id(run), next(sequence))

        for index, run in runs:
            lower, upper = run.result.bounds.less_than(k)
            match = ProbabilisticMatch(
                index=index,
                probability_lower=lower,
                probability_upper=upper,
                decision=run.result.decision,
                iterations=run.result.num_iterations,
                sequence=concluded[id(run)],
            )
            if run.result.decision is True:
                result.matches.append(match)
            elif run.result.decision is False:
                result.rejected.append(match)
            else:
                result.undecided.append(match)

    def knn(
        self,
        query: ObjectSpec,
        k: int,
        tau: float,
        max_iterations: int = 10,
        idca: Optional[IDCA] = None,
        strict: bool = False,
    ) -> ThresholdQueryResult:
        """Probabilistic threshold kNN query (Corollary 4)."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be a probability")
        start = time.perf_counter()
        exclude: set[int] = set()
        query_obj = resolve_object(self.database, query, exclude)
        supplied = idca
        idca = self._threshold_idca(idca, k)
        if (
            supplied is None
            and idca.database is self.database
            and isinstance(self.candidate_source, ScanCandidateSource)
        ):
            # one MinDist(·, query) pass feeds the scan and every run's
            # domination pre-screen (the IDCA keeps it as its profile)
            candidates = self.candidate_source.knn_candidates(
                query_obj.mbr, k, self.p, exclude, min_dists=idca._min_dists_to(query_obj)
            )
        else:
            candidates = self.candidate_source.knn_candidates(
                query_obj.mbr, k, self.p, exclude
            )
        result = ThresholdQueryResult(
            k=k, tau=tau, pruned=len(self.database) - len(exclude) - candidates.shape[0]
        )
        runs = [
            (
                int(index),
                idca.start_run(
                    int(index),
                    query_obj,
                    stop=ThresholdDecision(k=k, tau=tau, strict=strict),
                    max_iterations=max_iterations,
                    exclude_indices=sorted(exclude),
                ),
            )
            for index in candidates
        ]
        self._finish_threshold(result, runs, k)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def rknn(
        self,
        query: ObjectSpec,
        k: int,
        tau: float,
        max_iterations: int = 10,
        idca: Optional[IDCA] = None,
        candidate_indices: Optional[Iterable[int]] = None,
        strict: bool = False,
    ) -> ThresholdQueryResult:
        """Probabilistic threshold reverse kNN query (Corollary 5)."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be a probability")
        start = time.perf_counter()
        exclude: set[int] = set()
        query_obj = resolve_object(self.database, query, exclude)
        idca = self._threshold_idca(idca, k)
        if candidate_indices is None:
            candidates = [int(i) for i in self.candidate_source.all_candidates(exclude)]
        else:
            candidates = [int(i) for i in candidate_indices if int(i) not in exclude]
        result = ThresholdQueryResult(
            k=k, tau=tau, pruned=len(self.database) - len(exclude) - len(candidates)
        )
        runs = []
        for index in candidates:
            # the count is over objects other than the candidate itself and the query
            run_exclude = set(exclude)
            run_exclude.add(index)
            runs.append(
                (
                    index,
                    idca.start_run(
                        query_obj,
                        self.database[index],
                        stop=ThresholdDecision(k=k, tau=tau, strict=strict),
                        max_iterations=max_iterations,
                        exclude_indices=sorted(run_exclude),
                    ),
                )
            )
        self._finish_threshold(result, runs, k)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ #
    # range queries
    # ------------------------------------------------------------------ #
    def range(
        self,
        query: ObjectSpec,
        epsilon: float,
        tau: float,
        max_depth: int = 6,
        strict: bool = False,
    ) -> ThresholdQueryResult:
        """Probabilistic threshold epsilon-range query."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be a probability")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        start = time.perf_counter()
        exclude: set[int] = set()
        query_obj = resolve_object(self.database, query, exclude)
        classification = self.candidate_source.range_classify(
            query_obj.mbr, epsilon, self.p, exclude
        )
        result = ThresholdQueryResult(k=0, tau=tau, pruned=classification.pruned)
        query_tree = self.context.tree_for(query_obj)
        sequence = itertools.count()
        definite = {int(i) for i in classification.definite}
        refine = sorted({int(i) for i in classification.refine} - definite)
        bounds: dict[int, tuple[float, float]] = {}
        if refine:
            # every refine candidate x every partition pair in one array program
            trees = [self.context.tree_for(self.database[index]) for index in refine]
            lowers, uppers = range_bounds_csr(
                csr_partitions(trees, [max_depth] * len(trees)),
                *query_tree.partitions_arrays(max_depth),
                epsilon,
                self.p,
            )
            bounds = dict(zip(refine, zip(lowers.tolist(), uppers.tolist())))
        for index in sorted(definite | bounds.keys()):
            if index in definite:
                result.matches.append(
                    ProbabilisticMatch(
                        index, 1.0, 1.0, decision=True, iterations=0,
                        sequence=next(sequence),
                    )
                )
                continue
            lower, upper = bounds[index]
            passes = lower > tau or (not strict and lower >= tau)
            fails = upper < tau or (strict and upper <= tau)
            match = ProbabilisticMatch(
                index,
                lower,
                upper,
                decision=True if passes else False if fails else None,
                iterations=max_depth,
                sequence=next(sequence),
            )
            if passes:
                result.matches.append(match)
            elif fails:
                result.rejected.append(match)
            else:
                result.undecided.append(match)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ #
    # ranking queries
    # ------------------------------------------------------------------ #
    def ranking(
        self,
        query: ObjectSpec,
        max_iterations: int = 6,
        uncertainty_budget: float = 0.25,
        idca: Optional[IDCA] = None,
        candidate_indices: Optional[Iterable[int]] = None,
    ) -> RankingResult:
        """Expected-rank similarity ranking (Corollary 6)."""
        start = time.perf_counter()
        exclude: set[int] = set()
        query_obj = resolve_object(self.database, query, exclude)
        if idca is None:
            idca = self.context.idca_for(
                self.p, self.criterion, kernel_backend=self.kernel_backend
            )
        if idca.k_cap is not None:
            raise ValueError("expected-rank ranking requires an untruncated IDCA instance")
        if candidate_indices is None:
            candidates = [int(i) for i in self.candidate_source.all_candidates(exclude)]
        else:
            candidates = [int(i) for i in candidate_indices if int(i) not in exclude]

        runs = [
            (
                index,
                idca.start_run(
                    index,
                    query_obj,
                    stop=UncertaintyBelow(uncertainty_budget),
                    max_iterations=max_iterations,
                    exclude_indices=sorted(exclude),
                ),
            )
            for index in candidates
        ]
        self.scheduler.refine(
            [run for _, run in runs], lambda run: run.result.bounds.uncertainty()
        )
        entries: list[RankedObject] = []
        for index, run in runs:
            count_lower, count_upper = run.result.bounds.expected_count_bounds()
            entries.append(
                RankedObject(
                    index=index,
                    expected_rank_lower=count_lower + 1.0,
                    expected_rank_upper=count_upper + 1.0,
                    iterations=run.result.num_iterations,
                )
            )
        entries.sort(key=lambda entry: (entry.expected_rank_midpoint, entry.index))
        return RankingResult(ranking=entries, elapsed_seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # inverse ranking / raw domination counts
    # ------------------------------------------------------------------ #
    def inverse_ranking(
        self,
        target: ObjectSpec,
        reference: ObjectSpec,
        max_iterations: int = 10,
        uncertainty_budget: Optional[float] = None,
        stop: Optional[StopCriterion] = None,
        idca: Optional[IDCA] = None,
        exclude_indices: Optional[Sequence[int]] = None,
    ) -> RankDistribution:
        """Bounded rank distribution of ``target`` w.r.t. ``reference``."""
        exclude: set[int] = (
            set(int(i) for i in exclude_indices) if exclude_indices else set()
        )
        target_obj = resolve_object(self.database, target, exclude)
        reference_obj = resolve_object(self.database, reference, exclude)
        if idca is None:
            idca = self.context.idca_for(
                self.p, self.criterion, kernel_backend=self.kernel_backend
            )
        if stop is None and uncertainty_budget is not None:
            stop = UncertaintyBelow(uncertainty_budget)
        run = idca.domination_count(
            target_obj,
            reference_obj,
            stop=stop,
            max_iterations=max_iterations,
            exclude_indices=sorted(exclude),
        )
        return RankDistribution(
            lower=run.bounds.lower.copy(),
            upper=run.bounds.upper.copy(),
            idca_result=run,
        )

    def domination_count(
        self,
        target: ObjectSpec,
        reference: ObjectSpec,
        stop: Optional[StopCriterion] = None,
        max_iterations: int = 10,
        exclude_indices: Optional[Sequence[int]] = None,
        k_cap: Optional[int] = None,
        idca: Optional[IDCA] = None,
    ) -> IDCAResult:
        """Raw IDCA domination count through the shared context."""
        if idca is None:
            idca = self.context.idca_for(
                self.p, self.criterion, k_cap=k_cap, kernel_backend=self.kernel_backend
            )
        return idca.domination_count(
            target,
            reference,
            stop=stop,
            max_iterations=max_iterations,
            exclude_indices=exclude_indices,
        )

    # ------------------------------------------------------------------ #
    # batch API
    # ------------------------------------------------------------------ #
    def evaluate_many(
        self,
        requests: Sequence[QueryRequest],
        executor=None,
    ) -> list:
        """Evaluate a heterogeneous batch of query requests.

        Serially (the default, and ``executor=None`` or any config resolving
        to ``"serial"``), every request runs against this engine's shared
        refinement context, so decomposition trees and pairwise domination
        bounds computed for one query are reused by all later queries of the
        batch.  With an :class:`~repro.engine.executor.ExecutorConfig`
        resolving to ``"process"``, the batch is partitioned into chunks and
        evaluated on a per-batch pool of worker processes; each worker
        receives this engine (pickled once, caches rebuilt empty and
        worker-local) and the chunk outcomes are merged.  With a
        :class:`~repro.engine.service.QueryService` as ``executor``, the
        batch routes through the service's request queue onto its
        *persistent* pool instead — the service must serve this engine's
        database.

        Results are returned in request order and are identical to
        evaluating each request on a fresh engine — sharing caches only
        removes recomputation, and per-query budgets make them independent
        of worker count and chunking.  :attr:`last_batch_report` holds the
        merged :class:`~repro.engine.executor.BatchReport` of the call.

        ``ExecutorConfig.kernel_backend``, when set, overrides this engine's
        kernel backend for the duration of the batch (serial path and
        per-batch pools, whose workers pickle the engine per batch).  A
        persistent :class:`~repro.engine.service.QueryService` pickled its
        engine at construction, so the override cannot reach its workers —
        configure the service's engine or ``REPRO_KERNEL_BACKEND`` instead.
        Backends are bit-identical, so the override never changes results.
        """
        from .service import QueryService

        requests = list(requests)
        if isinstance(executor, QueryService):
            if executor.engine.database is not self.database:
                raise ValueError(
                    "the supplied QueryService serves a different database"
                )
            # take the report from this batch's own handle: the service's
            # last_batch_report may already describe a concurrently
            # submitted batch by the time the results resolve
            handle = executor.submit(requests)
            results = handle.result()
            self.last_batch_report = handle.report()
            return results
        override = executor.kernel_backend if executor is not None else None
        saved = self.kernel_backend
        if override is not None:
            self.kernel_backend = override
        try:
            if executor is not None and executor.resolve_mode(len(requests)) == "process":
                results, report = run_process_batch(self, requests, executor)
                self.last_batch_report = report
                return results
            return self._evaluate_serial(requests, executor)
        finally:
            self.kernel_backend = saved

    def _evaluate_serial(
        self, requests: Sequence[QueryRequest], executor: Optional[ExecutorConfig]
    ) -> list:
        """Today's single-process batch path, instrumented as one chunk."""
        results, chunk_stats = run_chunk_on_engine(self, requests)
        self.last_batch_report = BatchReport(
            mode="serial",
            workers=1,
            chunking=executor.chunking if executor is not None else "contiguous",
            chunk_size=executor.chunk_size if executor is not None else None,
            num_requests=len(requests),
            elapsed_seconds=chunk_stats.seconds,
            chunks=(chunk_stats,),
        )
        return results
