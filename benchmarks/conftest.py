"""Shared fixtures and report plumbing for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and

* prints its report (run ``pytest benchmarks/ --benchmark-only -s`` to see them),
* writes the same report to ``<name>.txt`` (and the machine-readable ones to
  ``BENCH_*.json``) in the report directory of the run.

With ``REPRO_BENCH_WRITE=1`` the report directory is the committed
``benchmarks/reports``, which is how reports are refreshed (CI's benchmark job
sets it before comparing the fresh reports against the committed baselines).
Without it, reports go to a per-run temporary directory, so a plain test run
never rewrites the committed files.

Expensive reference simulations are cached per session via the shared simulator
fixture, so benchmarks that touch the same cases do not re-simulate.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.characterization import default_library
from repro.experiments.reference import ReferenceSimulator

#: The committed reports, written only under ``REPRO_BENCH_WRITE=1``.
REPORT_DIRECTORY = Path(__file__).resolve().parent / "reports"


def full_sweep_requested() -> bool:
    """True when the REPRO_FULL environment variable asks for the complete sweep."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="session")
def full_sweep() -> bool:
    """Whether ``REPRO_FULL`` asks for the complete sweep (the slow laps)."""
    return full_sweep_requested()


@pytest.fixture(scope="session")
def library():
    """The shipped pre-characterized cell library."""
    lib = default_library()
    assert {25.0, 50.0, 75.0, 100.0, 125.0} <= set(lib.sizes), \
        "shipped cell library is missing or incomplete; run scripts/generate_cell_library.py"
    return lib


@pytest.fixture(scope="session")
def simulator():
    """A session-wide caching reference simulator (the HSPICE stand-in)."""
    return ReferenceSimulator()


class ReportWriter:
    """Writes named benchmark reports into one directory, echoing text ones."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def __call__(self, name: str, text: str) -> None:
        (self.directory / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====")
        print(text)

    def json(self, filename: str, payload) -> Path:
        """Write ``payload`` as ``filename``; return the path written."""
        path = self.directory / filename
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return path


@pytest.fixture(scope="session")
def report_writer(tmp_path_factory):
    """The run's :class:`ReportWriter` (see the module docstring for where)."""
    if os.environ.get("REPRO_BENCH_WRITE", "0") not in ("", "0", "false", "False"):
        REPORT_DIRECTORY.mkdir(exist_ok=True)
        return ReportWriter(REPORT_DIRECTORY)
    return ReportWriter(tmp_path_factory.mktemp("bench-reports"))
