"""Packaging metadata for the ``repro`` library (the source lives in ``src/``).

The version is read from ``src/repro/__init__.py`` without importing the
package, so ``python setup.py --name --version`` works before numpy and
scipy are installed.  ``pip install -e .`` installs the checkout.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # dataclass(slots=True) on the geometry and decomposition classes
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
