"""Testing utilities shipped with the library (not imported by runtime code).

Two members: :mod:`repro.testing.faults`, the fault-injection harness
behind ``tests/test_faults.py``, and :mod:`repro.testing.load`, the
closed/open-loop HTTP load generator behind the gateway soak test and
``tests/test_gateway.py``.
Nothing in here is imported by the engine at runtime — the executor only
reaches into this package when the ``REPRO_FAULT_PLAN`` environment
variable is set, i.e. inside a chaos test.
"""

from . import faults, load

__all__ = ["faults", "load"]
