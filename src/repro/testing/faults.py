"""Fault-injection harness for the service tier's chaos tests.

The fault model the service defends against (see "Failure model" in
``docs/architecture.md``) has two domains, and this module can produce
both on demand, deterministically:

* **worker crash** — :class:`FaultPlan` can SIGKILL a worker from *inside*
  the worker, after it started a chosen number of chunks
  (:func:`chunk_fault_hook`), or the parent can :func:`kill_worker` a pid
  between batches;
* **worker hang** — the plan can delay a chunk by a configurable sleep,
  long enough to wedge a lane past any deadline.

The in-worker faults travel through one environment variable
(:data:`FAULT_PLAN_ENV`, a JSON-encoded plan) inherited by worker processes
at creation under both ``fork`` and ``spawn``; the executor's chunk entry
point calls :func:`chunk_fault_hook` only when the variable is set, so the
harness costs production paths a single dict lookup.  "Fire once" semantics
survive worker respawns through marker files in a shared directory —
without them, a respawned worker would re-read the same plan and kill
itself again, forever.

:func:`snapshot_resources` / :func:`assert_no_leaked_resources` implement
the leak check the CI fault-injection job wraps around every test: no
orphaned child processes, no dangling ``/dev/shm`` blocks.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "ANY_LANE",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "assert_no_leaked_resources",
    "chunk_fault_hook",
    "inject_faults",
    "kill_worker",
    "snapshot_resources",
]

#: Environment variable carrying the JSON-encoded :class:`FaultPlan`.
#: (Mirrored as ``executor.FAULT_PLAN_ENV`` so the executor need not import
#: this module just to know the name.)
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: ``kill_lane`` / ``delay_lane`` value matching every lane — the fault
#: fires in whichever worker reaches the trigger first (combine with the
#: once-markers to fire in exactly one of them).
ANY_LANE = -1


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic chaos plan, applied inside worker processes.

    All triggers count *chunk starts within one worker process*: a fault
    with ``kill_after_chunks=K`` fires when the worker begins its
    ``(K+1)``-th chunk.  ``kill_lane`` / ``delay_lane`` select the lane
    (``ANY_LANE`` matches all; ``None`` disables that fault).  With
    ``*_once`` set (the default), the fault fires in exactly one worker
    exactly once per plan — including across respawns — which requires a
    ``marker_dir`` shared by all workers; :func:`inject_faults` creates one
    automatically.
    """

    kill_lane: Optional[int] = None
    kill_after_chunks: int = 0
    kill_once: bool = True
    delay_lane: Optional[int] = None
    delay_seconds: float = 0.0
    delay_after_chunks: int = 0
    delay_once: bool = True
    marker_dir: Optional[str] = None

    def to_json(self) -> str:
        """Serialise the plan for the :data:`FAULT_PLAN_ENV` variable."""
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from its environment-variable encoding."""
        return cls(**json.loads(text))

    @property
    def needs_markers(self) -> bool:
        """Whether any armed fault uses once-semantics (needs a marker dir)."""
        return (self.kill_lane is not None and self.kill_once) or (
            self.delay_lane is not None and self.delay_once
        )


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for every worker created inside the ``with`` block.

    Sets :data:`FAULT_PLAN_ENV` (and provisions a temporary marker
    directory when the plan's once-semantics need one), yields the plan as
    armed, and restores the environment on exit.  Workers inherit the
    environment at process creation, so the pool — or the service — must be
    constructed *inside* the block for its workers (and their respawns) to
    see the plan.
    """
    if plan.needs_markers and plan.marker_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as marker_dir:
            armed = dataclasses.replace(plan, marker_dir=marker_dir)
            with inject_faults(armed) as result:
                yield result
        return
    previous = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
# chunk starts observed by *this* process (a respawned worker starts at 0;
# the marker files carry once-semantics across that reset)
_CHUNKS_STARTED = 0

# parse cache keyed by the raw env value, so the per-chunk overhead with a
# plan armed is one json decode total, not one per chunk
_PLAN_CACHE: dict[str, FaultPlan] = {}


def _lane_matches(selector: Optional[int], lane: Optional[int]) -> bool:
    if selector is None:
        return False
    return selector == ANY_LANE or selector == lane


def _fire_once(plan: FaultPlan, kind: str, once: bool) -> bool:
    """Whether this worker wins the right to fire a once-guarded fault."""
    if not once:
        return True
    if plan.marker_dir is None:  # no shared state: best effort, fire
        return True
    path = os.path.join(plan.marker_dir, f"{kind}.fired")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:  # marker dir gone: fail open rather than re-fire
        return False
    os.close(fd)
    return True


def _plan_from_env() -> Optional[FaultPlan]:
    """The armed plan, parsed and cached, or ``None`` when none is armed."""
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    plan = _PLAN_CACHE.get(raw)
    if plan is None:
        try:
            plan = FaultPlan.from_json(raw)
        except (TypeError, ValueError):  # malformed plan: ignore, run clean
            plan = FaultPlan()
        _PLAN_CACHE[raw] = plan
    return plan


def chunk_fault_hook(lane: Optional[int]) -> None:
    """Apply the armed :class:`FaultPlan`, if any, at a chunk boundary.

    Called by the executor's worker-side chunk entry point before the chunk
    runs, with the worker's lane index.  Reads the plan from
    :data:`FAULT_PLAN_ENV`; no variable means no faults.  A kill is a real
    ``SIGKILL`` to this process — exactly what a crash or the OOM killer
    delivers — so the supervision path under test is the production one.
    """
    global _CHUNKS_STARTED
    plan = _plan_from_env()
    if plan is None:
        return
    started_before = _CHUNKS_STARTED
    _CHUNKS_STARTED += 1
    if (
        _lane_matches(plan.delay_lane, lane)
        and started_before >= plan.delay_after_chunks
        and plan.delay_seconds > 0
        and _fire_once(plan, "delay", plan.delay_once)
    ):
        time.sleep(plan.delay_seconds)
    if (
        _lane_matches(plan.kill_lane, lane)
        and started_before >= plan.kill_after_chunks
        and _fire_once(plan, "kill", plan.kill_once)
    ):
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def _proc_state(pid: int) -> str:
    """The kernel state letter for ``pid`` ("Z" = zombie), "" if unknown."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return ""


def kill_worker(pid: int, wait_seconds: float = 5.0) -> None:
    """SIGKILL a worker process and wait until the pid is really gone.

    The wait matters for deterministic tests: submitting to a pool whose
    worker is *dying* (but not yet dead) can race the executor's own death
    detection.  Raises ``TimeoutError`` if the process outlives the wait —
    which would mean the kill failed, not that the test should continue.

    Reaping goes through the ``multiprocessing.Process`` object, never a
    raw ``os.waitpid``: stealing the exit status from under the process
    object leaves its ``poll()`` with ECHILD (= "unknown, assume alive"),
    and the already-reaped pid then haunts
    ``multiprocessing.active_children()`` forever — a phantom leak the
    resource checker cannot distinguish from a real one.
    """
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_seconds
    while time.monotonic() < deadline:
        child = next(
            (c for c in multiprocessing.active_children() if c.pid == pid), None
        )
        if child is not None:
            # join records the exit status on the process object, so
            # active_children() drops it and the next iteration sees it gone
            child.join(max(deadline - time.monotonic(), 0.01))
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        if _proc_state(pid) == "Z":
            # dead, awaiting reaping by whoever owns it (the executor's
            # supervision thread) — dead enough for the test to proceed
            return
        time.sleep(0.01)
    raise TimeoutError(f"pid {pid} survived SIGKILL for {wait_seconds}s")


# --------------------------------------------------------------------- #
# resource-leak checking
# --------------------------------------------------------------------- #
_SHM_DIR = "/dev/shm"


def _shm_blocks() -> set[str]:
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # platform without /dev/shm: nothing to check
        return set()
    return {name for name in entries if name.startswith("repro")}


def snapshot_resources() -> tuple[set[int], set[str]]:
    """Snapshot this process's children and the repo's ``/dev/shm`` blocks.

    Take one before creating services/pools and hand it to
    :func:`assert_no_leaked_resources` afterwards; only *new* children and
    blocks count, so tests can nest inside fixtures that own resources.
    """
    children = {child.pid for child in multiprocessing.active_children()}
    return children, _shm_blocks()


def assert_no_leaked_resources(
    before: tuple[set[int], set[str]], timeout: float = 10.0
) -> None:
    """Assert everything created since ``before`` has been cleaned up.

    Polls (processes need a moment to be reaped after a pool shutdown, and
    SIGKILLed workers a moment longer) and raises ``AssertionError`` with
    the surviving pids / block names once ``timeout`` elapses.  This is the
    fixture-level guarantee of the CI fault-injection job: no test — chaos
    or not — may orphan a child process or leave a shared-memory block
    linked.
    """
    known_children, known_blocks = before
    deadline = time.monotonic() + timeout
    while True:
        leaked_children = {
            child.pid
            for child in multiprocessing.active_children()
            if child.pid not in known_children
        }
        leaked_blocks = _shm_blocks() - known_blocks
        if not leaked_children and not leaked_blocks:
            return
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"leaked resources: child pids {sorted(leaked_children)}, "
                f"/dev/shm blocks {sorted(leaked_blocks)}"
            )
        time.sleep(0.05)
