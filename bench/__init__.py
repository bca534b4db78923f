"""The repository's one benchmark: four named workloads over the whole stack.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints its result as the last line of standard
output (the contract in ``BENCHMARK.json``); ``python3 -m bench`` without a
workload runs all four, each in a fresh subprocess.  See ``bench/README.md``
for what each workload and metric is for.

The program under test is the ``repro`` package under ``src/``; the benchmark
measures it from outside, through its public callables only.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# The driver runs ``python3 -m bench`` from a bare checkout with no
# PYTHONPATH, so the package under test — this checkout's, not one that may
# be installed — is located here.  The environment variable is extended too:
# worker processes started with ``spawn`` import ``repro`` from a fresh
# interpreter.
_SRC = str(ROOT / "src")
if os.path.isdir(os.path.join(_SRC, "repro")) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )
