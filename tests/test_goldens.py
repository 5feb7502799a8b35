"""Every design times to the object sweep's golden payload, bit for bit.

The goldens (``tests/data/object_sweep_goldens.json``, see ``golden_cases.py``)
were captured through the object sweep.  Production timing runs on the
compiled engine, so these tests pin both: ``TimingSession.time`` (compiled)
and the retained reference sweep must reproduce every digest.
"""

import json

import pytest
from golden_cases import (GOLDENS, golden_designs, golden_entry,
                          golden_payload, object_sweep)

from repro.api import StreamingTimingReport, TimingSession

DESIGNS = list(golden_designs())


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_design(goldens):
    keys = {f"{key}/{mode}" for key, _, modes in DESIGNS for mode in modes}
    assert keys == set(goldens)


@pytest.mark.parametrize("key, factory, modes", DESIGNS,
                         ids=[key for key, _, _ in DESIGNS])
def test_session_matches_golden(goldens, key, factory, modes):
    design = factory()
    session = TimingSession()  # a fresh memo per design, as at capture
    for mode in modes:
        report = session.time(design, mode=mode)
        assert isinstance(report, StreamingTimingReport)
        got = golden_entry(report)
        want = goldens[f"{key}/{mode}"]
        if got != want:
            # Name the first differing field against the live reference.
            reference = golden_payload(object_sweep(factory(), mode))
            assert golden_payload(report) == reference
        assert got == want


@pytest.mark.parametrize("key, factory, modes", DESIGNS,
                         ids=[key for key, _, _ in DESIGNS])
def test_object_sweep_matches_golden(library, goldens, key, factory, modes):
    for mode in modes:
        report = object_sweep(factory(), mode, library=library)
        assert golden_entry(report) == goldens[f"{key}/{mode}"]
