"""``python3 -m bench`` — see ``bench/README.md``.

Two shapes:

* ``--workload NAME --seed N --seconds S --trace 0|1`` (what the driver in
  ``BENCHMARK.json`` calls): one workload, in this process; the last line
  of standard output is the result object of the contract.
* ``--workload all`` (the default) and/or ``--repeat K``: every selected
  workload in a **fresh subprocess** per run (module-global caches and
  ``ru_maxrss`` must not leak between workloads); with ``--repeat 2`` the
  sets are compared and every end-to-end metric must agree within its own
  bound.

Exit status is non-zero when a correctness check fails, a repeat disagrees,
or the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import multiprocessing
import os
import signal
import subprocess
import sys

# before numpy is imported: the measurements are single-threaded by design
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7, help="the only thing that changes the inputs")
    parser.add_argument("--seconds", type=float, default=None, help="timed phase; default run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="full sets to run and compare")
    parser.add_argument("--json", default=None, help="write every report to this file")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes (N <= 200)")
    return parser.parse_args(argv)


def _run_child(name: str, args, seconds: float) -> dict | None:
    """One workload in a fresh interpreter; its report via a JSON file."""
    from . import OUT_DIR, ROOT

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"report-{name}-{os.getpid()}.json")
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--json", path,
    ] + (["--toy"] if args.toy else [])
    # the child's report goes to our stderr; stdout stays one result per line
    # in a session of its own, so that a child that hangs is killed with its lanes
    child = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        status = child.wait(timeout=900)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)[0]
    except (OSError, ValueError, IndexError):
        print(f"{name}: no report (exit status {status})", file=sys.stderr)
        return None
    finally:
        if os.path.exists(path):
            os.remove(path)


def reap_processes() -> None:
    """Leave no process behind: called on every path out of ``main``.

    ``close()`` of a workload joins its worker lanes; anything still alive
    here was orphaned by an error, so it is killed and joined.  The standard
    library's shared-memory *resource tracker* is a process of ours too: it
    only ends once our end of its pipe closes, which without this happens
    at interpreter exit — so it would outlive the run by a moment.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None:
        return  # never started
    tracker._fd = tracker._pid = None  # ensure_running() starts a new one if asked
    os.close(fd)  # end of file on its pipe: the tracker cleans up and exits
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _compare(sets: list[list[dict]], spec: dict) -> list[str]:
    """Every end-to-end metric of the later sets against the first's bound."""
    problems = []
    for later in sets[1:]:
        for first, second in zip(sets[0], later):
            for entry in spec["end_to_end"]:
                a, b = first["end_to_end"][entry["name"]], second["end_to_end"][entry["name"]]
                spread = abs(b - a) / a if a else float("inf")
                line = (
                    f"{first['workload']:18s} {entry['name']:16s} "
                    f"{a:12.4f} vs {b:12.4f}  spread {spread:6.3f}  bound {entry['bound']}"
                )
                print(line, file=sys.stderr)
                if spread > entry["bound"]:
                    problems.append(line)
    return problems


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        reap_processes()  # the contract: what we started has ended before we do


def _main(argv=None) -> int:
    args = _parse(argv)
    # bench/__init__.py has already put src/ on the path when it is there
    if importlib.util.find_spec("repro") is None:
        print("bench: the program under test (src/repro) is not here", file=sys.stderr)
        return 2
    from . import harness
    from .workloads import WORKLOADS

    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {list(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.workload != "all" and args.repeat == 1:
        report = harness.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.toy)
        harness.print_report(report, spec)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump([report], handle, indent=1)
        print(harness.result_line(report, spec, bool(args.trace)))
        return 0 if report["correct"] else 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sets, ok = [], True
    for _ in range(args.repeat):
        reports = [_run_child(name, args, seconds) for name in names]
        if None in reports:
            return 1
        sets.append(reports)
        for report in reports:
            ok = ok and report["correct"]
            print(harness.result_line(report, spec, bool(args.trace)))
    problems = _compare(sets, spec)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([report for reports in sets for report in reports], handle, indent=1)
    for problem in problems:
        print("DISAGREES:", problem, file=sys.stderr)
    return 0 if ok and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
