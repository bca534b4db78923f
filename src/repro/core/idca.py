"""IDCA — Iterative Domination Count Approximation (Algorithm 1).

This is the paper's main algorithm.  Given an uncertain database, a target
object ``B`` and a reference object ``R``, it

1. classifies every database object with the complete-domination filter
   (objects that always dominate ``B``, objects that never do, and the
   *influence objects* whose relation is uncertain);
2. iteratively decomposes ``B``, ``R`` and the influence objects one kd-tree
   level at a time;
3. in every iteration computes the per-influence-object domination bounds of
   *all* pairs of partitions ``(B', R')`` with one batched kernel call on the
   ragged CSR candidate layout
   (:func:`~repro.core.kernels.pdom_bounds_csr`), expands the uncertain
   generating functions of all pairs in one vectorised pass, and combines the
   per-pair domination-count bounds weighted by ``P(B') * P(R')``
   (Section IV-E);
4. stops as soon as the supplied stop criterion is satisfied (e.g. a threshold
   predicate became decidable) or the iteration budget is exhausted.

The result carries the final conservative/progressive PMF bounds of
``DomCount(B, R)`` plus per-iteration statistics used by the experiments.

One iteration of many runs — the round a scheduler drives — goes through
:func:`step_runs`, and :meth:`IDCARun.step` is that function on one run.
Each run makes its own kernel call; the UGF expansions of all runs whose rows
can share one are done together (see :func:`_expand_windows`).  A round is
taken in chunks of at most :data:`_ROUND_CHUNK_CELLS` cells, each run priced
at the ``(3 * rows, cap + 1)`` fold its expansion allocates.  The pair-bounds
memo a run reads and fills is a plain dict owned by the caller (the engine's
refinement context); it lives in memory only.

The module is longer than the repository's ~600-line guideline on purpose:
the driver, the incremental run and the batched step share the run's private
state, and the step calls the kernel and the UGF expansion through the names
imported here, which is where ``bench/tracing.py`` attributes ``kernels`` and
``aggregate`` time.
"""

from __future__ import annotations

import itertools
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..geometry import DominationCriterion
from ..geometry.metrics import _validate_p
from ..uncertain import DecompositionTree, UncertainDatabase, UncertainObject
from ..uncertain.decomposition import AxisPolicy, csr_partitions_batch
from .domination import complete_domination_filter, reference_min_dists
from .kernels import pdom_bounds_csr
from .domination_count import (
    DominationCountBounds,
    _combine_windows,
    _filter_step_bounds,
    _resolve_truncation,
    combine_weighted_bounds_arrays,  # noqa: F401 - the bench tracer's "aggregate.combine" target
    domination_count_bounds_batch,
)
from .stop_criteria import StopCriterion

__all__ = ["IDCA", "IDCARun", "IDCAResult", "IterationStats", "step_runs"]

ObjectOrIndex = Union[UncertainObject, int, np.integer]


@dataclass(frozen=True)
class IterationStats:
    """Statistics of one refinement iteration.

    ``elapsed_seconds`` is the total wall-clock time of the iteration;
    ``cache_seconds`` is the share of it spent looking up and storing entries
    of the shared pair-bounds cache.  ``elapsed_seconds - cache_seconds`` is
    therefore the kernel-plus-aggregation time, so profiling can attribute a
    regression to the memo layer or to the arithmetic.

    ``kernel_seconds`` is the wall-clock spent inside the CSR kernel itself,
    zero when every candidate column was served from the memo.

    When several runs step together (:func:`step_runs`), one UGF expansion
    can serve rows of many runs; its time is split across those runs by
    their share of its rows, so no time of the round is counted twice in
    the runs' ``elapsed_seconds``.  Every other field describes this run
    alone.
    """

    iteration: int
    uncertainty: float
    elapsed_seconds: float
    num_pairs: int
    candidate_partitions: int
    cache_seconds: float = 0.0
    kernel_seconds: float = 0.0


@dataclass
class IDCAResult:
    """Outcome of one IDCA run.

    Attributes
    ----------
    bounds:
        Final PMF bounds of ``DomCount(B, R)``.
    complete_count:
        Number of objects that dominate the target in every possible world.
    influence_indices:
        Database indices of the influence objects that were refined.
    pruned_count:
        Number of objects that can never dominate the target.
    iterations:
        Per-iteration statistics (entry 0 describes the filter-only state).
    decision:
        Outcome of a threshold stop criterion, when one was supplied:
        ``True`` (predicate holds), ``False`` (predicate violated) or ``None``
        (undecided within the iteration budget).
    """

    bounds: DominationCountBounds
    complete_count: int
    influence_indices: np.ndarray
    pruned_count: int
    iterations: list[IterationStats] = field(default_factory=list)
    decision: Optional[bool] = None

    @property
    def num_influence(self) -> int:
        """Number of influence objects."""
        return int(self.influence_indices.shape[0])

    @property
    def num_iterations(self) -> int:
        """Number of refinement iterations actually executed."""
        return max(0, len(self.iterations) - 1)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time spent (filter step plus refinement)."""
        return float(sum(stat.elapsed_seconds for stat in self.iterations))

    def uncertainty(self) -> float:
        """Accumulated uncertainty of the final bounds."""
        return self.bounds.uncertainty()


class IDCA:
    """Iterative Domination Count Approximation driver.

    Parameters
    ----------
    database:
        The uncertain database the domination counts are computed against.
    p:
        ``Lp`` norm parameter of the distance function (finite, ``>= 1``).
    criterion:
        Complete-domination criterion: ``"optimal"`` (Corollary 1, default) or
        ``"minmax"`` — the latter is the baseline of Figure 6.
    axis_policy:
        Split-axis policy of the kd-tree decomposition.
    max_target_depth, max_reference_depth:
        Caps on the decomposition depth of the target and reference objects;
        the number of partition pairs per iteration is bounded by
        ``2^max_target_depth * 2^max_reference_depth``.
    max_candidate_depth:
        Optional cap on the decomposition depth of influence objects
        (the kd-tree height ``h`` of Section V).  ``None`` lets the depth grow
        with the iteration number.
    k_cap:
        Optional truncation bound for kNN/RkNN predicates (Section VI): PMF
        bounds are only maintained — and only stored — for counts
        ``<= k_cap`` plus one overflow cell, so every iteration aggregates
        ``O(k_cap)`` cells per partition pair whatever the database size.
    adaptive_candidate_refinement:
        When True, an influence object is only decomposed further while its
        aggregated domination-probability bound width still exceeds
        ``adaptive_width_threshold``.  This is the refinement heuristic the
        paper lists as future work: effort concentrates on the objects that
        still contribute uncertainty instead of splitting every object every
        iteration.
    adaptive_width_threshold:
        Bound-width budget per influence object below which adaptive
        refinement stops splitting that object.
    tree_cache:
        Optional externally-owned decomposition-tree cache (keyed by object
        identity).  Passing the same mapping to several IDCA instances — as
        the query engine's shared refinement context does — lets them reuse
        each other's decompositions.
    pair_bounds_cache:
        Optional externally-owned memo of domination-bound matrix columns,
        shared the same way.  Each entry is keyed by *(candidate tree token,
        candidate depth, target key, reference key, config)* and stores the
        whole ``(2, num_pairs)`` lower/upper column of that candidate across
        every (target partition, reference partition) pair, so a hit skips an
        entire kernel column instead of a single scalar.  Entries are
        deterministic functions of their key, so sharing never changes
        results.
    """

    def __init__(
        self,
        database: UncertainDatabase,
        p: float = 2.0,
        criterion: DominationCriterion = "optimal",
        axis_policy: AxisPolicy = "round_robin",
        max_target_depth: int = 3,
        max_reference_depth: int = 3,
        max_candidate_depth: Optional[int] = None,
        k_cap: Optional[int] = None,
        adaptive_candidate_refinement: bool = False,
        adaptive_width_threshold: float = 0.01,
        tree_cache: Optional[dict] = None,
        pair_bounds_cache: Optional[dict] = None,
    ):
        _validate_p(p)
        if max_target_depth < 0 or max_reference_depth < 0:
            raise ValueError("decomposition depth caps must be non-negative")
        if max_candidate_depth is not None and max_candidate_depth < 1:
            raise ValueError("max_candidate_depth must be at least 1")
        if adaptive_width_threshold < 0:
            raise ValueError("adaptive_width_threshold must be non-negative")
        self.database = database
        self.p = p
        self.criterion = criterion
        self.axis_policy = axis_policy
        self.max_target_depth = max_target_depth
        self.max_reference_depth = max_reference_depth
        self.max_candidate_depth = max_candidate_depth
        self.k_cap = k_cap
        self.adaptive_candidate_refinement = adaptive_candidate_refinement
        self.adaptive_width_threshold = adaptive_width_threshold
        self._trees: dict[int, DecompositionTree] = (
            tree_cache if tree_cache is not None else {}
        )
        self._pair_bounds: Optional[dict] = pair_bounds_cache
        # (reference object, weakref to its database snapshot, MinDist profile)
        self._reference_profile: Optional[tuple] = None

    def __getstate__(self) -> dict:
        """Pickle without the reference-distance profile (rebuilt on use)."""
        state = self.__dict__.copy()
        state["_reference_profile"] = None
        return state

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _tree_for(self, obj: UncertainObject) -> DecompositionTree:
        """Decomposition tree of ``obj``, cached per object identity.

        The cache is bounded: long-lived shared caches would otherwise grow
        by one tree per transient query object.  Eviction is safe because
        memoised pair bounds key trees by their process-unique token, never
        by a reusable ``id()``.
        """
        key = id(obj)
        tree = self._trees.get(key)
        if tree is None:
            _evict_oldest_tenth(self._trees, _TREE_CACHE_MAX)
            tree = DecompositionTree(obj, axis_policy=self.axis_policy)
            self._trees[key] = tree
        return tree

    def _min_dists_to(self, reference: UncertainObject) -> np.ndarray:
        """``MinDist(·, reference)`` over the current snapshot, one kept.

        Every run of a kNN or ranking query filters against the same
        reference object, so the profile the complete-domination filter
        pre-screens with is computed once and reused.  It is matched by
        *identity* of the reference object and of ``self.database``, so a
        snapshot swapped in by a mutation can never be served the profile of
        its predecessor; a new reference (every RkNN run) replaces it.
        """
        profile = self._reference_profile
        if (
            profile is None
            or profile[0] is not reference
            or profile[1]() is not self.database
        ):
            profile = (
                reference,
                weakref.ref(self.database),
                reference_min_dists(self.database, reference, self.p),
            )
            self._reference_profile = profile
        return profile[2]

    def _resolve(
        self, spec: ObjectOrIndex, exclude: set[int]
    ) -> UncertainObject:
        """Turn an object-or-index specification into an object.

        Database indices are added to the exclusion set so an object never
        counts towards its own domination count.
        """
        if isinstance(spec, (int, np.integer)):
            index = int(spec)
            if not 0 <= index < len(self.database):
                raise IndexError(f"object index {index} out of range")
            exclude.add(index)
            return self.database[index]
        return spec

    def _store_pair_bounds(self, key: tuple, value: np.ndarray) -> None:
        """Insert one bounds-matrix column into the shared memo, bounded.

        ``key`` identifies the column positionally — (candidate tree token,
        candidate depth, target key, reference key, config).  Partition
        arrays are deterministic and cached per (tree, depth), so the
        positional key determines the whole column without hashing region
        coordinates.  ``value`` is one ``(2, num_pairs)`` array — rows lower
        and upper — over every (target, reference) partition pair, in
        row-major pair order.
        """
        cache = self._pair_bounds
        _evict_oldest_tenth(cache, _PAIR_BOUNDS_CACHE_MAX)
        cache[key] = value

    # ------------------------------------------------------------------ #
    # main entry points
    # ------------------------------------------------------------------ #
    def start_run(
        self,
        target: ObjectOrIndex,
        reference: ObjectOrIndex,
        stop: Optional[StopCriterion] = None,
        max_iterations: int = 10,
        exclude_indices: Optional[Sequence[int]] = None,
    ) -> "IDCARun":
        """Begin an incremental IDCA run (filter step executed eagerly).

        The returned :class:`IDCARun` has completed iteration 0 (the
        complete-domination filter).  Callers advance it one refinement
        iteration at a time via :meth:`IDCARun.step` — the query engine's
        scheduler uses this to interleave iterations across many candidates —
        or drain it with :meth:`IDCARun.run`.
        """
        return IDCARun(self, target, reference, stop, max_iterations, exclude_indices)

    def domination_count(
        self,
        target: ObjectOrIndex,
        reference: ObjectOrIndex,
        stop: Optional[StopCriterion] = None,
        max_iterations: int = 10,
        exclude_indices: Optional[Sequence[int]] = None,
    ) -> IDCAResult:
        """Approximate the PMF of ``DomCount(target, reference)``.

        Parameters
        ----------
        target, reference:
            Uncertain objects, or integer positions of database members.
        stop:
            Optional stop criterion evaluated after every iteration.
        max_iterations:
            Hard budget on the number of refinement iterations.
        exclude_indices:
            Additional database positions to ignore (on top of the positions
            of ``target`` / ``reference`` when given as indices).
        """
        return self.start_run(
            target,
            reference,
            stop=stop,
            max_iterations=max_iterations,
            exclude_indices=exclude_indices,
        ).run()


# entries are whole bounds-matrix columns (one (2, num_pairs) array), i.e. up
# to ~1 KiB each at the default depth caps — far fewer, larger entries than
# the scalar-per-pair memo this cache replaced
_PAIR_BOUNDS_CACHE_MAX = 50_000
_TREE_CACHE_MAX = 4096


def _evict_oldest_tenth(mapping: dict, limit: int) -> None:
    """FIFO-evict a tenth of a bounded memo once it reaches ``limit``.

    The single eviction policy of every engine-side cache (tree caches and
    the pair-bounds memo): dict iteration order is insertion order, so
    dropping the first tenth removes the oldest entries.
    """
    if len(mapping) >= limit:
        for stale in list(itertools.islice(iter(mapping), limit // 10)):
            del mapping[stale]


class IDCARun:
    """Incremental execution state of one IDCA invocation.

    Construction performs the resolution and complete-domination filter step
    (iteration 0) exactly as the monolithic algorithm did; every
    :meth:`step` call then executes one refinement iteration.  The run
    finishes when the stop criterion fires, the bounds converge, the
    iteration budget is exhausted, or there is nothing to refine.
    :attr:`result` is valid at every point in between, so schedulers can
    inspect the current bounds to prioritise refinement across candidates.
    """

    def __init__(
        self,
        idca: IDCA,
        target: ObjectOrIndex,
        reference: ObjectOrIndex,
        stop: Optional[StopCriterion] = None,
        max_iterations: int = 10,
        exclude_indices: Optional[Sequence[int]] = None,
    ):
        if max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        self.idca = idca
        self.stop = stop
        self.max_iterations = max_iterations
        exclude: set[int] = (
            set(int(i) for i in exclude_indices) if exclude_indices else set()
        )
        self.target_obj = idca._resolve(target, exclude)
        self.reference_obj = idca._resolve(reference, exclude)
        self.exclude = exclude

        start = time.perf_counter()
        filter_result = complete_domination_filter(
            idca.database,
            self.target_obj,
            self.reference_obj,
            exclude_indices=exclude,
            p=idca.p,
            criterion=idca.criterion,
            min_dists=idca._min_dists_to(self.reference_obj),
        )
        self._complete_count = filter_result.complete_count
        self._influence = filter_result.influence_indices
        self._total_objects = len(idca.database) - len(exclude)

        bounds = _filter_step_bounds(
            self._influence.shape[0],
            self._complete_count,
            self._total_objects,
            idca.k_cap,
        )
        self.result = IDCAResult(
            bounds=bounds,
            complete_count=self._complete_count,
            influence_indices=self._influence,
            pruned_count=filter_result.pruned_count,
            iterations=[
                IterationStats(
                    iteration=0,
                    uncertainty=bounds.uncertainty(),
                    elapsed_seconds=time.perf_counter() - start,
                    num_pairs=1,
                    candidate_partitions=1,
                )
            ],
        )

        self._iteration = 0
        self._finished = False
        if stop is not None and stop.should_stop(bounds, 0):
            self._finished = True
        elif self._influence.shape[0] == 0 or max_iterations == 0:
            self._finished = True
        self.result.decision = getattr(stop, "decision", None)

        self._influence_trees: Optional[list[DecompositionTree]] = None
        self._candidate_depths: Optional[np.ndarray] = None
        self._previous_widths: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """True when no further refinement iteration will be executed."""
        return self._finished

    @property
    def iteration(self) -> int:
        """Number of refinement iterations executed so far."""
        return self._iteration

    @property
    def iterations_left(self) -> int:
        """Remaining iteration budget."""
        return 0 if self._finished else self.max_iterations - self._iteration

    def _materialise_trees(self) -> None:
        idca = self.idca
        self._target_tree = idca._tree_for(self.target_obj)
        self._reference_tree = idca._tree_for(self.reference_obj)
        self._influence_trees = [
            idca._tree_for(idca.database[int(i)]) for i in self._influence
        ]
        num_candidates = len(self._influence_trees)
        self._candidate_depths = np.zeros(num_candidates, dtype=int)
        # aggregated per-candidate bound widths: adaptive refinement only
        self._previous_widths = np.full(num_candidates, np.inf)

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute one refinement iteration; returns False when finished."""
        if self._finished:
            return False
        step_runs([self])
        return True

    def run(self) -> IDCAResult:
        """Drain the run: step until finished, then return the result."""
        while self.step():
            pass
        return self.result

    def _plan(self) -> "_Iteration":
        """First half of an iteration: partitions, memo and the kernel call.

        Only reads the run's iteration state — :meth:`_complete` commits the
        new depths, widths and bounds — so an iteration abandoned between the
        halves (a deadline) is as if it never started; memo entries it stored
        are deterministic and stay valid.
        """
        idca = self.idca
        if self._influence_trees is None:
            self._materialise_trees()
        iteration = self._iteration + 1
        iter_start = time.perf_counter()
        target_depth = min(iteration, idca.max_target_depth)
        reference_depth = min(iteration, idca.max_reference_depth)
        candidate_depths = self._candidate_depths.copy()
        if idca.adaptive_candidate_refinement:
            # only objects that still contribute bound width get refined
            candidate_depths[self._previous_widths > idca.adaptive_width_threshold] += 1
        else:
            candidate_depths[:] = iteration
        if idca.max_candidate_depth is not None:
            np.minimum(candidate_depths, idca.max_candidate_depth, out=candidate_depths)

        target_regions, target_masses = self._target_tree.partitions_arrays(target_depth)
        reference_regions, reference_masses = self._reference_tree.partitions_arrays(
            reference_depth
        )
        candidate_parts = [
            tree.partitions_arrays(int(depth))
            for tree, depth in zip(self._influence_trees, candidate_depths)
        ]
        max_candidate_partitions = max(parts[0].shape[0] for parts in candidate_parts)

        num_candidates = len(self._influence_trees)
        num_pairs = target_regions.shape[0] * reference_regions.shape[0]
        lower_matrix = np.empty((num_pairs, num_candidates))
        upper_matrix = np.empty((num_pairs, num_candidates))

        # positional memo keys: cached partition arrays are deterministic per
        # (tree, depth), so bounds-matrix columns are identified without
        # hashing coordinates.  Tree tokens are process-unique (never reused
        # after eviction or GC) and change with the axis policy, so a shared
        # pair-bounds cache can never serve bounds computed from a different
        # partitioning.
        cache = idca._pair_bounds
        cache_seconds = 0.0
        missing: list[int] = []
        keys: Optional[list[tuple]] = None
        if cache is not None:
            target_key = (self._target_tree.token, target_depth)
            reference_key = (self._reference_tree.token, reference_depth)
            config_key = (idca.p, idca.criterion)
            keys = [
                ((tree.token, int(depth)), target_key, reference_key, config_key)
                for tree, depth in zip(self._influence_trees, candidate_depths)
            ]
            lookup_start = time.perf_counter()
            for c_idx, key in enumerate(keys):
                value = cache.get(key)
                if value is None:
                    missing.append(c_idx)
                else:
                    lower_matrix[:, c_idx] = value[0]
                    upper_matrix[:, c_idx] = value[1]
            cache_seconds += time.perf_counter() - lookup_start
        else:
            missing = list(range(num_candidates))

        kernel_seconds = 0.0
        if missing:
            # one batched kernel call covers every uncached candidate column;
            # the ragged CSR batch concatenates the cached base arrays with
            # no pad rows
            batch = csr_partitions_batch(
                [self._influence_trees[c_idx] for c_idx in missing],
                [int(candidate_depths[c_idx]) for c_idx in missing],
            )
            kernel_start = time.perf_counter()
            fresh_lower, fresh_upper = pdom_bounds_csr(
                batch.regions,
                batch.masses,
                batch.offsets,
                target_regions,
                reference_regions,
                p=idca.p,
                criterion=idca.criterion,
            )
            kernel_seconds = time.perf_counter() - kernel_start
            lower_matrix[:, missing] = fresh_lower
            upper_matrix[:, missing] = fresh_upper
            if cache is not None:
                store_start = time.perf_counter()
                for j, c_idx in enumerate(missing):
                    # an owning (2, num_pairs) array: a view would keep the
                    # whole kernel output alive while any column survives
                    idca._store_pair_bounds(
                        keys[c_idx], np.stack((fresh_lower[:, j], fresh_upper[:, j]))
                    )
                cache_seconds += time.perf_counter() - store_start

        # pair weights in the same row-major (target-major) order as the
        # matrix rows; zero-mass pairs carry no possible worlds and are
        # dropped exactly as the scalar loop skipped them
        pair_weights = (target_masses[:, None] * reference_masses[None, :]).ravel()
        active = np.flatnonzero(pair_weights > 0.0)
        widths = None
        if idca.adaptive_candidate_refinement:
            # accumulated pair by pair, in pair order, like the bounds
            widths = np.zeros(num_candidates)
            for pair_idx in active:
                widths += float(pair_weights[pair_idx]) * (
                    upper_matrix[pair_idx] - lower_matrix[pair_idx]
                )

        _, ugf_cap = _resolve_truncation(
            num_candidates, self._complete_count, self._total_objects, idca.k_cap
        )
        return _Iteration(
            run=self,
            iteration=iteration,
            candidate_depths=candidate_depths,
            widths=widths,
            weights=pair_weights[active],
            lower=lower_matrix[active],
            upper=upper_matrix[active],
            ugf_cap=ugf_cap,
            candidate_partitions=max_candidate_partitions,
            cache_seconds=cache_seconds,
            kernel_seconds=kernel_seconds,
            seconds=time.perf_counter() - iter_start,
        )

    def _complete(self, planned: "_Iteration") -> None:
        """Second half of an iteration: combine the pairs' UGF windows."""
        start = time.perf_counter()
        bounds = _combine_windows(
            planned.weights,
            planned.window_lower,
            planned.window_upper,
            self._complete_count,
            planned.lower.shape[1],
            self._total_objects,
            self.idca.k_cap,
        )
        iteration = planned.iteration
        self._candidate_depths = planned.candidate_depths
        if planned.widths is not None:
            self._previous_widths = planned.widths
        self.result.bounds = bounds
        self.result.iterations.append(
            IterationStats(
                iteration=iteration,
                uncertainty=bounds.uncertainty(),
                elapsed_seconds=planned.seconds + (time.perf_counter() - start),
                num_pairs=int(planned.weights.shape[0]),
                candidate_partitions=planned.candidate_partitions,
                cache_seconds=planned.cache_seconds,
                kernel_seconds=planned.kernel_seconds,
            )
        )
        self._iteration = iteration

        if self.stop is not None and self.stop.should_stop(bounds, iteration):
            self._finished = True
        elif bounds.is_exact():
            self._finished = True
        elif iteration >= self.max_iterations:
            self._finished = True
        self.result.decision = getattr(self.stop, "decision", None)


@dataclass(eq=False)
class _Iteration:
    """One planned iteration of one run, between the kernel and the UGF.

    ``lower`` / ``upper`` are the run's ``(active pairs, influence objects)``
    domination-bound rows; the UGF expansion fills ``window_lower`` /
    ``window_upper`` with their raw ``(active pairs, top + 1)`` PMF windows.
    """

    run: IDCARun
    iteration: int
    candidate_depths: np.ndarray
    widths: Optional[np.ndarray]
    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ugf_cap: Optional[int]
    candidate_partitions: int
    cache_seconds: float
    kernel_seconds: float
    seconds: float
    window_lower: Optional[np.ndarray] = None
    window_upper: Optional[np.ndarray] = None

    def ugf_cells(self) -> int:
        """Cells of this iteration's UGF expansion.

        :func:`~repro.core.generating_functions.ugf_pmf_bounds_batch` folds
        three polynomials per row in one ``(3 * rows, cap + 1)`` array.
        """
        num_influence = self.lower.shape[1]
        cap = num_influence if self.ugf_cap is None else min(num_influence, self.ugf_cap + 1)
        return 3 * self.lower.shape[0] * (cap + 1)


#: Most UGF fold cells one chunk of a round expands together.  A round
#: is planned and completed chunk by chunk, so this also bounds the bound
#: rows and windows alive at once; a run larger than the budget goes alone.
_ROUND_CHUNK_CELLS = 1 << 16


def step_runs(
    runs: Sequence[IDCARun], check: Optional[Callable[[], None]] = None
) -> None:
    """Execute one refinement iteration of every unfinished run in ``runs``.

    Each run plans its iteration — partitions, memo lookups and its own
    :func:`~repro.core.kernels.pdom_bounds_csr` call — in list order.  The
    rows of runs that can share a UGF expansion then get one
    (:func:`_expand_windows`), and each run combines its pairs' windows and
    applies its stop rule.  Every run's outcome is bit-identical to stepping
    it alone.  Runs are taken in chunks of at most :data:`_ROUND_CHUNK_CELLS`
    UGF fold cells.

    ``check``, when given, is called before every run's iteration; an
    exception it raises abandons the round, and runs whose iteration was
    planned but not completed keep their previous state.
    """
    chunk: list[_Iteration] = []
    cells = 0
    for run in runs:
        if run.finished:
            continue
        if check is not None:
            check()
        planned = run._plan()
        planned_cells = planned.ugf_cells()
        if chunk and cells + planned_cells > _ROUND_CHUNK_CELLS:
            _complete_chunk(chunk)
            chunk, cells = [], 0
        chunk.append(planned)
        cells += planned_cells
    if chunk:
        _complete_chunk(chunk)


def _complete_chunk(chunk: list[_Iteration]) -> None:
    _expand_windows(chunk)
    for planned in chunk:
        planned.run._complete(planned)


def _expand_windows(chunk: list[_Iteration]) -> None:
    """Raw UGF windows of every planned iteration, one expansion per group.

    Rows share an expansion when it is bit-identical to their own.  Padding
    a row with ``p_lb = p_ub = 0`` variables multiplies every coefficient by
    exactly 1 and adds exact zeros, but the expansion's cap, ``top`` and
    overflow row depend on the row width ``n`` and ``ugf_cap``: rows with the
    same ``ugf_cap`` and ``n >= ugf_cap + 2`` are padded to one width, all
    other rows (including untruncated ones) are grouped by exact ``n``.  The
    expansion's time is split across the group by row share.
    """
    groups: dict[tuple, list[_Iteration]] = {}
    for planned in chunk:
        width = planned.lower.shape[1]
        cap = planned.ugf_cap
        padded = cap is not None and width >= cap + 2
        groups.setdefault((cap, None if padded else width), []).append(planned)
    for (cap, _), members in groups.items():
        start = time.perf_counter()
        width = max(planned.lower.shape[1] for planned in members)
        if len(members) == 1:
            lower, upper = members[0].lower, members[0].upper
        else:
            rows = sum(planned.lower.shape[0] for planned in members)
            lower = np.zeros((rows, width))
            upper = np.zeros((rows, width))
            row = 0
            for planned in members:
                count, n = planned.lower.shape
                lower[row : row + count, :n] = planned.lower
                upper[row : row + count, :n] = planned.upper
                row += count
        # with complete_count=0 and total_objects=width the first top + 1
        # cells of each row are exactly the raw UGF window
        pmf_lower, pmf_upper = domination_count_bounds_batch(
            lower, upper, complete_count=0, total_objects=width, k_cap=cap
        )
        top = width if cap is None else min(width, cap)
        seconds = time.perf_counter() - start
        row = 0
        for planned in members:
            count = planned.lower.shape[0]
            planned.window_lower = pmf_lower[row : row + count, : top + 1]
            planned.window_upper = pmf_upper[row : row + count, : top + 1]
            planned.seconds += seconds * count / lower.shape[0]
            row += count
