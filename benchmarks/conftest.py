"""Shared machinery for the per-figure benchmark harnesses.

Every ``test_fig*`` / ``test_table*`` file regenerates one table or figure
from the paper: it prints the same rows/series the paper reports alongside
the paper's reference values, and saves the text under
``benchmarks/results/`` for EXPERIMENTS.md.

A harness simulates nothing itself.  Its points are declared in
``exhibits.py``; the session's first ``exhibit`` request runs the points of
every collected harness as one cached sweep (``exhibits.run_exhibits``),
each distinct point once, through the result store under
``$REPRO_CACHE_DIR`` or ``benchmarks/.cache`` (``REPRO_NO_CACHE=1`` turns
it off).  Each harness then renders and asserts from its records, and the
session's report ends with one ledger health line per sweep pass.
"""

from __future__ import annotations

import os
import pathlib

import pytest
from exhibits import run_exhibits

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: the session's ledger health lines, one per sweep pass
_HEALTH = pytest.StashKey[list]()


def emit(name: str, text: str) -> None:
    """Print a figure's output and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_collection_modifyitems(items):
    """Every figure/table harness is a multi-second simulation: mark them all
    ``slow`` so ``pytest -m "not slow"`` gives the quick tier-1 loop even when
    benchmarks/ is on the command line."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter, config):
    for line in config.stash.get(_HEALTH, []):
        terminalreporter.write_line(line)


def _exhibit_name(item) -> str:
    return item.originalname.removeprefix("test_")


@pytest.fixture(scope="session")
def exhibit_records(request):
    """Every collected harness's plan, resolved to records."""
    items = [item for item in request.session.items if "exhibit" in item.fixturenames]
    return run_exhibits(
        dict.fromkeys(_exhibit_name(item) for item in items),
        cache=os.environ.get("REPRO_CACHE_DIR") or pathlib.Path(__file__).parent / ".cache",
        report=request.config.stash.setdefault(_HEALTH, []).append,
    )


@pytest.fixture
def exhibit(request, exhibit_records):
    """This harness's plan (``exhibits.EXHIBITS``) with records for points."""
    return exhibit_records[_exhibit_name(request.node)]
