"""``compare_reports`` on event planes equals the key-set comparison, row for row.

Two streaming reports over one compiled net order are diffed on their planes
(``exists``, the endpoint masks and the slack of shared endpoint events); every
other pair goes through event-key sets.  The key-set path is the reference
here: each diff below must equal, as a whole :class:`ReportDiff` (row order and
value types included), the diff of the same reports re-wrapped as plain
:class:`TimingReport` objects, whose queries walk the event records.

The edit sequences cover what moves a diff: resizes, endpoint flips
(``set_receiver``), pinned required times, a clock with a hold margin, a
removed clock (coverage loss, rows whose new slack is None) and ``add_fanout``
(a recompile, so the net order may change and the key-set path runs).
"""

import random

import pytest
from golden_cases import golden_designs
from test_sta_compiled import shared_session

from repro.api import StreamingTimingReport, TimingReport, compare_reports
from repro.core import StageSolver
from repro.errors import ReproError
from repro.experiments import soc_graph
from repro.serve.codec import (AddFanout, EditRequest, RemoveFanout, ResizeDriver,
                               SetClock, SetReceiver, SetRequired)
from repro.serve.registry import AttachedDesign
from repro.units import ps

SIZES = (25.0, 50.0, 75.0, 100.0, 125.0)


@pytest.fixture(scope="module")
def solver():
    return StageSolver()


def plain(report):
    """``report`` as a plain :class:`TimingReport` over the same event records."""
    return TimingReport(
        design=report.design, kind=report.kind, events=report.events,
        levels=report.levels, critical_path=report.critical_path,
        meta=report.meta)


def one_order(old, new):
    return old.analysis.graph.order == new.analysis.graph.order


def _no_key_sets(report):
    raise AssertionError("the plane comparison built an event-key set")


def assert_diff_matches_key_sets(old, new, monkeypatch):
    """The diff of ``old`` -> ``new`` equals the key-set reference; returns it."""
    with monkeypatch.context() as patch:
        if one_order(old, new):  # the plane path must not touch key sets
            patch.setattr(StreamingTimingReport, "event_keys", _no_key_sets)
            patch.setattr(StreamingTimingReport, "endpoint_keys", _no_key_sets)
        diff = compare_reports(old, new)
    assert diff == compare_reports(plain(old), plain(new))
    for rows in (diff.changed_endpoints, diff.changed_hold_endpoints):
        for net, transition, old_slack, new_slack in rows:
            assert type(net) is str and type(transition) is str
            assert type(old_slack) in (float, type(None))
            assert type(new_slack) in (float, type(None))
    return diff


def random_verb(rng, graph):
    """One random edit verb of a kind that moves a diff."""
    names = sorted(graph.nets)
    kind = rng.choice(["resize", "resize", "receiver", "required",
                       "clock", "unclock", "fanout"])
    if kind == "resize":
        return ResizeDriver(net=rng.choice(names), driver_size=rng.choice(SIZES))
    if kind == "receiver":  # flips the endpoint flag of a net with fanout
        name = rng.choice([name for name in names if graph.nets[name].fanout])
        receiver = graph.nets[name].receiver_size
        return SetReceiver(net=name, receiver_size=25.0 if receiver is None else None)
    if kind == "required":
        return SetRequired(net=rng.choice(graph.endpoints),
                           required=rng.choice([None, ps(150), ps(450)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode=rng.choice(["setup", "hold"]))
    if kind == "clock":
        return SetClock(period=ps(rng.choice([500, 700, 900])),
                        hold_margin=rng.choice([0.0, ps(40)]))
    if kind == "unclock":
        return SetClock(period=None)
    return AddFanout(driver=rng.choice(names), sink=rng.choice(names))


def apply(design, verb, monkeypatch):
    """Apply one verb through the serve write path.

    Returns the published diff and whether it was a plane comparison, or
    ``(None, None)`` for a rejected verb (a cycle, or a design its drivers
    cannot swing), which rolls back and publishes nothing.
    """
    old = design.snapshot
    try:
        snapshot = design.apply_edits(EditRequest(edits=(verb,)))
    except ReproError:
        assert design.snapshot is old
        return None, None
    diff = assert_diff_matches_key_sets(old.report, snapshot.report, monkeypatch)
    assert snapshot.diff == diff
    return diff, one_order(old.report, snapshot.report)


#: The seeded random DAGs of the golden set.
RANDOM_DESIGNS = [(key, design) for key, design in golden_designs()
                  if key.startswith("random")]


class TestPlaneDiffEquivalence:
    @pytest.mark.parametrize("key,design", RANDOM_DESIGNS,
                             ids=[key for key, _ in RANDOM_DESIGNS])
    def test_random_edit_sequences(self, solver, monkeypatch, key, design):
        rng = random.Random(key)
        attached = AttachedDesign(key, design(), shared_session(solver))
        try:
            planes = [apply(attached, random_verb(rng, attached.graph), monkeypatch)[1]
                      for _ in range(16)]
        finally:
            attached.close()
        assert planes.count(True) >= 8, "too few edits took the plane path"

    def test_soc_edits(self, solver, monkeypatch):
        graph = soc_graph(1000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        attached = AttachedDesign("soc", graph, shared_session(solver))
        verbs = [
            ResizeDriver(net="k0c0s2", driver_size=125.0),
            ResizeDriver(net="k3m1", driver_size=75.0),
            SetReceiver(net="k2c4s2", receiver_size=50.0),  # becomes an endpoint
            SetRequired(net="k1e3", required=ps(600)),
            SetRequired(net="k5e0", required=ps(900), mode="hold"),
            SetClock(period=ps(1400), hold_margin=ps(250)),
            SetReceiver(net="k2c4s2", receiver_size=None),  # stops being one
            SetRequired(net="k1e3", required=None),
            SetRequired(net="k5e0", required=None, mode="hold"),
            SetClock(period=None),  # coverage loss: every new slack is None
            SetClock(period=ps(1450), hold_margin=ps(5)),
            # Recompiles, same net order; the sink gains its other transition.
            AddFanout(driver="k4c0s1", sink="k4c1s3"),
            AddFanout(driver="k4c0s4", sink="k4c1s1"),  # the sink moves down a level
            ResizeDriver(net="k0c0s2", driver_size=100.0),
            RemoveFanout(driver="k4c0s1", sink="k4c1s3"),
        ]
        try:
            diffs, planes = zip(*(apply(attached, verb, monkeypatch) for verb in verbs))
        finally:
            attached.close()
        assert planes == (True,) * 12 + (False, True, True)
        assert (diffs[11].added_events, diffs[14].removed_events) == (4, 4)
        resize, flip, clock, unclock, reclock = (diffs[i] for i in (0, 2, 5, 9, 10))
        assert resize.changed_hold_endpoints and flip.changed_endpoints
        assert len(clock.changed_endpoints) > 1 and len(clock.changed_hold_endpoints) > 1
        assert unclock.regressed
        for rows in (unclock.changed_endpoints, unclock.changed_hold_endpoints):
            assert rows and all(row[3] is None for row in rows)
        assert all(row[2] is None for row in reclock.changed_endpoints)

    def test_streaming_against_its_json_round_trip(self, solver):
        graph = soc_graph(1000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        report = shared_session(solver).update(graph)
        loaded = TimingReport.from_json(report.to_json())
        for old, new in ((report, loaded), (loaded, report)):
            diff = compare_reports(old, new)
            assert diff == compare_reports(plain(old), plain(new))
            assert not diff.changed_endpoints and not diff.changed_hold_endpoints
            assert diff.added_events == diff.removed_events == 0
            assert not diff.regressed
