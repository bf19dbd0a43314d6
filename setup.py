"""Package metadata for ``pip install -e .``.

The project has no ``pyproject.toml``: this file holds all of its packaging
metadata.  The supported way to run the code stays ``PYTHONPATH=src``; an
editable install is the alternative for machines that prefer one::

    pip install -e .

Offline, pip needs ``setuptools`` and ``wheel`` already installed and no
build isolation (``--no-deps --no-build-isolation``); where ``wheel`` is
missing, ``python setup.py develop --no-deps`` installs the same way.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
