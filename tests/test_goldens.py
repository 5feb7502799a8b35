"""Every design times to the object sweep's golden payload, bit for bit.

The goldens (``tests/data/object_sweep_goldens.json``, see ``golden_cases.py``)
were captured through the object sweep.  Production timing runs on the
compiled engine, so these tests pin both: ``TimingSession.time`` (compiled)
and the retained reference sweep must reproduce every digest.
"""

import json

import pytest
from golden_cases import (GOLDENS, golden_designs, golden_entry, golden_key,
                          golden_payload, object_sweep)

from repro.api import StreamingTimingReport, TimingSession

DESIGNS = list(golden_designs())


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_design(goldens):
    assert {golden_key(name) for name, _ in DESIGNS} == set(goldens)


@pytest.mark.parametrize("name, factory", DESIGNS,
                         ids=[name for name, _ in DESIGNS])
def test_session_matches_golden(goldens, name, factory):
    # A fresh session per design: a fresh memo, as at capture.
    report = TimingSession().time(factory())
    assert isinstance(report, StreamingTimingReport)
    got = golden_entry(report)
    want = goldens[golden_key(name)]
    if got != want:
        # Name the first differing field against the live reference.
        assert golden_payload(report) == golden_payload(object_sweep(factory()))
    assert got == want


@pytest.mark.parametrize("name, factory", DESIGNS,
                         ids=[name for name, _ in DESIGNS])
def test_object_sweep_matches_golden(library, goldens, name, factory):
    report = object_sweep(factory(), library=library)
    assert golden_entry(report) == goldens[golden_key(name)]
