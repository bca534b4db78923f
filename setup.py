"""Setuptools shim for legacy editable installs (environments without wheel).

All project metadata lives in ``pyproject.toml``; this file only exists so
``pip install -e . --no-use-pep517`` works in offline environments where the
``wheel`` package is unavailable.
"""

from setuptools import setup

setup()
