"""Global refinement scheduling across the candidates of a query.

The seed implementation refined candidates in arrival order, exhausting each
candidate's iteration budget before touching the next.  The paper's guiding
principle (Sections IV-E/V) is the opposite: refinement effort should go
where it still decides predicates.  :class:`RefinementScheduler` therefore
drives the incremental :class:`~repro.core.idca.IDCARun` objects of all
still-undecided candidates from a priority queue keyed by their current
bound uncertainty — the candidate whose predicate bounds are widest receives
the next iteration.

Because every candidate's refinement is independent, the schedule changes
only *when* work happens, never its outcome: without a global budget the
per-candidate results are identical to arrival-order evaluation.  With
``global_iteration_budget`` set, the scheduler degrades gracefully — the
budget is spent on the most uncertain candidates first, which is exactly the
behaviour the paper's iterative scheme is after.

Without a budget the work is therefore done in *rounds*: every unfinished
run takes one iteration per round through :func:`~repro.core.idca.step_runs`,
which shares UGF expansions across runs, and the priority heap is replayed
afterwards over the priorities each run had after each of its iterations.
The replay reports finished runs in exactly the order the heap would have
stepped them.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Optional, Sequence

from ..core import IDCARun
from ..core.idca import step_runs
from .errors import DeadlineExceeded

__all__ = ["RefinementScheduler"]

PriorityFn = Callable[[IDCARun], float]


class RefinementScheduler:
    """Uncertainty-prioritised round-robin over incremental IDCA runs.

    Parameters
    ----------
    global_iteration_budget:
        Optional cap on the *total* number of refinement iterations spent
        across all runs of one :meth:`refine` call.  ``None`` (the default)
        lets every run exhaust its own per-candidate budget, which keeps
        results identical to independent evaluation.

    Notes
    -----
    The budget is scoped to a single :meth:`refine` call — one query — never
    accumulated across queries.  This per-query scoping is what lets the
    parallel batch executor split a batch across workers without changing
    results: a query receives the same refinement effort no matter which
    chunk it lands in.  :attr:`steps_taken` accumulates the iterations this
    scheduler instance has driven (all :meth:`refine` calls combined) for the
    batch report; pickling a scheduler ships only its configuration, so every
    worker's accounting starts at zero and stays chunk-local.
    """

    def __init__(self, global_iteration_budget: Optional[int] = None):
        if global_iteration_budget is not None and global_iteration_budget < 0:
            raise ValueError("global_iteration_budget must be non-negative")
        self.global_iteration_budget = global_iteration_budget
        self.steps_taken = 0
        #: Optional wall-clock cut-off (``time.time()`` epoch) installed by
        #: the executor for the duration of a deadline-carrying chunk: the
        #: refinement loop checks it every iteration and raises
        #: :class:`~repro.engine.errors.DeadlineExceeded` once passed, which
        #: is what turns a would-be-hung refinement into a clean batch
        #: failure.  ``None`` (the default, and the value every pickled
        #: scheduler starts with) disables the check.
        self.deadline_epoch: Optional[float] = None

    def __reduce__(self):
        """Pickle as configuration only — accounting never crosses processes."""
        return (type(self), (self.global_iteration_budget,))

    def refine(
        self,
        runs: Sequence[IDCARun],
        priority: PriorityFn,
        on_finished: Optional[Callable[[IDCARun], None]] = None,
    ) -> int:
        """Drive ``runs`` to completion in priority order; returns total steps.

        ``priority`` maps a run to a non-negative urgency (larger = refined
        first) and is re-evaluated after every step, so a candidate whose
        bounds tighten quickly falls down the queue while stubborn candidates
        keep receiving iterations until they decide or exhaust their budget.
        ``on_finished`` is invoked once per stepped run that finishes, in the
        order the priority heap concludes them — callers use it to record
        the order in which evaluations concluded.  Without a budget the
        iterations happen in rounds and ``on_finished`` is called after the
        last round; with one, each call follows the run's final iteration.

        With :attr:`deadline_epoch` set, every iteration first checks the
        wall clock and raises
        :class:`~repro.engine.errors.DeadlineExceeded` once the epoch has
        passed (steps taken so far are still accounted).  Unlike the budget
        cut-off — which degrades results gracefully and deterministically —
        the deadline aborts the query: partial results under a wall-clock
        race would not be reproducible, so none are returned.
        """
        # each run once, in arrival order
        pending = list({id(run): run for run in runs if not run.finished}.values())
        before = sum(run.iteration for run in pending)

        def steps() -> int:
            return sum(run.iteration for run in pending) - before

        check = None
        if self.deadline_epoch is not None:
            deadline = self.deadline_epoch

            def check() -> None:
                if time.time() >= deadline:
                    raise DeadlineExceeded(
                        f"refinement passed its deadline after {steps()} iterations"
                    )

        try:
            if self.global_iteration_budget is None:
                _refine_in_rounds(pending, priority, on_finished, check)
            else:

                def step(run: IDCARun) -> Optional[float]:
                    step_runs([run], check)
                    return None if run.finished else priority(run)

                _heap_order(
                    pending, priority, step, on_finished, self.global_iteration_budget
                )
        finally:
            taken = steps()
            self.steps_taken += taken
        return taken


def _refine_in_rounds(pending, priority, on_finished, check) -> None:
    """Step every unfinished run once per round, then replay the heap.

    The replay is :func:`_heap_order` with each iteration replaced by
    reading the priority that iteration left behind.
    """
    recorded = {id(run): [priority(run)] for run in pending}
    active = pending
    while active:
        step_runs(active, check)
        active = [run for run in active if not run.finished]
        for run in active:
            recorded[id(run)].append(priority(run))
    if on_finished is None:
        return
    taken = dict.fromkeys(recorded, 0)

    def replay(run: IDCARun) -> Optional[float]:
        taken[id(run)] += 1
        values = recorded[id(run)]
        return values[taken[id(run)]] if taken[id(run)] < len(values) else None

    _heap_order(pending, lambda run: recorded[id(run)][0], replay, on_finished)


def _heap_order(
    pending: Sequence[IDCARun],
    first: PriorityFn,
    advance: Callable[[IDCARun], Optional[float]],
    on_finished: Optional[Callable[[IDCARun], None]],
    budget: Optional[int] = None,
) -> None:
    """The priority heap: pop the most urgent run, advance it, push it back.

    ``first`` gives a run's priority before its first iteration; ``advance``
    executes (or replays) the run's next iteration and returns its new
    priority, or ``None`` once the run has finished.  Ties go to the run
    pushed first.  At most ``budget`` iterations are advanced.
    """
    counter = itertools.count()
    heap: list[tuple[float, int, IDCARun]] = []
    for run in pending:
        heapq.heappush(heap, (-first(run), next(counter), run))
    spent = 0
    while heap and (budget is None or spent < budget):
        _, _, run = heapq.heappop(heap)
        urgency = advance(run)
        spent += 1
        if urgency is None:
            if on_finished is not None:
                on_finished(run)
        else:
            heapq.heappush(heap, (-urgency, next(counter), run))
