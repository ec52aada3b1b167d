"""Benchmark-suite configuration.

Every ``bench_figN.py`` regenerates one figure of the paper in quick
mode (set ``REPRO_FULL=1`` to run the paper's full grids), prints the
rendered figure to stdout, and asserts the qualitative shape the paper
reports.  Run with::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/kvbench -s

``python -m repro.experiments <figure>`` prints a figure's wall time.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "figure: regenerates a paper figure")


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    """False when REPRO_FULL=1 (full paper grids)."""
    return os.environ.get("REPRO_FULL", "0") != "1"

