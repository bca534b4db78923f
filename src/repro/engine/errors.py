"""Error types of the fault-tolerant service tier.

These exceptions form the service's failure contract, documented in the
"Failure model" section of ``docs/architecture.md``: every way a batch can
fail *other than the query itself raising* maps onto exactly one of the
types below, so callers can tell overload (back off and retry elsewhere)
from a missed deadline (the request budget was too small) from an exhausted
worker-crash retry (something is structurally wrong with the host).

All of them subclass :class:`ServiceError`, which itself subclasses
``RuntimeError`` — pre-existing callers that caught ``RuntimeError`` around
``submit()`` keep working unchanged.  :class:`DeadlineExceeded` additionally
subclasses ``TimeoutError`` so generic timeout handling catches it too.

The module deliberately imports nothing from the rest of the package: it is
shared by ``engine/scheduler.py`` (deadline checks inside the refinement
loop), ``engine/executor.py`` (worker supervision) and ``engine/service.py``
(admission control) without creating an import cycle, and the exceptions
pickle cleanly across the process boundary when a worker raises one.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceeded",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "WorkerCrashError",
]


class ServiceError(RuntimeError):
    """Base class of every service-tier failure.

    Subclasses ``RuntimeError`` so code written against the pre-fault-model
    service (which raised bare ``RuntimeError``) keeps catching these.
    """


class ServiceClosedError(ServiceError):
    """Raised by ``submit()`` after ``close()``, and set on batches a
    non-waiting ``close()`` abandoned before they ran.

    The closed-check and the enqueue happen atomically under the service's
    submit lock, so a caller either gets this error or a future the
    dispatcher is guaranteed to resolve — never a stranded handle.
    """


class ServiceOverloadedError(ServiceError):
    """Raised by ``submit()`` when admission control rejects a batch.

    Signals backpressure: the service's pending work already sits at the
    configured ``max_pending_batches`` / ``max_pending_requests`` bound, and
    queueing more would only grow latency unboundedly.  In-flight batches
    are unaffected; the caller should retry later or shed load upstream.
    """


class DeadlineExceeded(ServiceError, TimeoutError):
    """Raised when a batch ran past its ``submit(deadline=...)`` budget.

    Three layers enforce the deadline, cheapest first: the dispatcher fails
    a batch whose deadline expired while it was still queued; inside each
    worker the refinement scheduler checks the deadline every iteration and
    between requests, so an over-deadline chunk raises cleanly instead of
    hanging; and a hard wall-clock watchdog in the pool terminates and
    respawns a lane that stays wedged past the deadline plus a grace period
    (e.g. stuck in a C extension where the scheduler check cannot run).
    """


class WorkerCrashError(ServiceError):
    """Raised when a crashed worker lane exhausted its chunk retries.

    A single crash never surfaces as this error: the pool respawns the lane
    and re-drives the in-flight chunk (results are deterministic, so the
    retry is bit-identical).
    Only a chunk that keeps killing its worker past the retry budget —
    i.e. a structural problem, not a transient one — escalates to this.
    """
