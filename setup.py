"""Setuptools build script for the ``repro`` package (``src/`` layout).

The package metadata lives here, and nothing else is needed to build:
``pip install -e . --no-build-isolation`` (and the legacy ``python
setup.py develop``) work on machines without the ``wheel`` package —
e.g. air-gapped evaluation environments.  The policy host's committed
calibration tables are package data, so an installed ``repro`` reads
them exactly as a ``PYTHONPATH=src`` checkout does.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.policyhost": ["calibration_tables.json"]},
)
