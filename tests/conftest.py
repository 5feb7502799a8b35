"""Shared fixtures for the test suite.

Reference (transistor-level) simulations and cell characterizations are expensive,
so anything reusable is session-scoped: the shipped cell library, a caching
reference simulator, and the reference waveform of the paper's Figure 1 case.
Two fixtures pick the path of ``CompiledIncrementalEngine.update`` without a
product knob, by replacing its counted cost rule: ``cone_path`` pins the cone
sweep (for tests of the cone's own counts on graphs small enough that the rule
takes the full sweep), and ``sweep_path`` runs a test once under each path.
"""

from __future__ import annotations

import pytest

from repro.characterization import default_library
from repro.experiments.paper_cases import FIGURE1_CASE, FIGURE6_SINGLE_RAMP_CASE
from repro.experiments.reference import ReferenceSimulator
from repro.interconnect import RLCLine
from repro.sta import incremental_compiled
from repro.tech import InverterSpec, generic_180nm
from repro.units import mm, nH, pF


@pytest.fixture(scope="session")
def tech():
    """The default 0.18 um technology."""
    return generic_180nm()


@pytest.fixture(scope="session")
def library():
    """The shipped pre-characterized cell library."""
    lib = default_library()
    assert {25.0, 50.0, 75.0, 100.0, 125.0} <= set(lib.sizes), \
        "shipped cell library is missing or incomplete; run scripts/generate_cell_library.py"
    return lib


@pytest.fixture(scope="session")
def cell75(library):
    """The characterized 75X inverter."""
    return library.get(75)


@pytest.fixture(scope="session")
def cell100(library):
    """The characterized 100X inverter."""
    return library.get(100)


@pytest.fixture(scope="session")
def cell25(library):
    """The characterized 25X inverter."""
    return library.get(25)


@pytest.fixture(scope="session")
def spec75(tech):
    """An InverterSpec for the 75X driver."""
    return InverterSpec(tech=tech, size=75)


@pytest.fixture(scope="session")
def line_5mm():
    """The paper's Figure 1 line: 5 mm, 1.6 um (printed parasitics)."""
    return RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                   length=mm(5))


@pytest.fixture(scope="session")
def line_3mm():
    """The paper's Table 1 line: 3 mm, 1.2 um (printed parasitics)."""
    return RLCLine(resistance=56.3, inductance=nH(3.2), capacitance=pF(0.59),
                   length=mm(3))


@pytest.fixture(scope="session")
def reference_simulator():
    """A caching transistor-level reference simulator shared by the whole session."""
    return ReferenceSimulator()


@pytest.fixture(scope="session")
def fig1_reference(reference_simulator):
    """Reference simulation of the Figure 1 case (5 mm / 1.6 um / 75X / 100 ps)."""
    return reference_simulator.simulate_case(FIGURE1_CASE)


@pytest.fixture(scope="session")
def fig6_weak_reference(reference_simulator):
    """Reference simulation of the weak-driver Figure 6 case (4 mm / 1.6 um / 25X)."""
    return reference_simulator.simulate_case(FIGURE6_SINGLE_RAMP_CASE)


def force_sweep_path(monkeypatch, path):
    """Make every warm ``CompiledIncrementalEngine.update`` take ``path``."""
    full = path == "full"
    monkeypatch.setattr(incremental_compiled, "_full_sweep_is_cheaper",
                        lambda *args: full)


@pytest.fixture
def cone_path(monkeypatch):
    """Warm updates take the cone path, whatever the graph's size."""
    force_sweep_path(monkeypatch, "cone")


@pytest.fixture(params=["cone", "full"])
def sweep_path(request, monkeypatch):
    """Run the test under each path of a warm update; the value names it."""
    force_sweep_path(monkeypatch, request.param)
    return request.param
