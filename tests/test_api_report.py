"""TimingReport serialization: lossless JSON round-trip, stable across runs."""

import json
from pathlib import Path

import pytest

from repro.api import RunInfo, TimingReport, TimingSession, compare_reports
from repro.errors import ModelingError
from repro.experiments import reconvergent_graph
from repro.interconnect import RLCLine
from repro.sta import TimingPath, TimingStage
from repro.units import mm, nH, pF, ps

#: A chain3 report saved by repro 1.0.0 with ``--jobs 2``: its meta carries the
#: retired worker fields (jobs, installed, shards, boundary_events_exchanged,
#: parallel_sweep) and the retired analysis mode.
WORKER_ERA_REPORT = Path(__file__).parent / "data" / "chain3_report_with_worker_fields.json"
RETIRED_META_KEYS = ("jobs", "installed", "shards", "boundary_events_exchanged",
                     "parallel_sweep", "mode")


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                   length=mm(1))


@pytest.fixture(scope="module")
def chain_path(line):
    return TimingPath("chain", [
        TimingStage("s1", driver_size=75, line=line, receiver_size=100),
        TimingStage("s2", driver_size=100, line=line, receiver_size=50),
    ], input_slew=ps(100))


@pytest.fixture(scope="module")
def session(library):
    with TimingSession() as active:
        yield active


@pytest.fixture(scope="module")
def chain_report(session, chain_path):
    return session.time(chain_path)


@pytest.fixture(scope="module")
def diamond_report(session, line):
    return session.time(reconvergent_graph(line=line), name="diamond")


@pytest.fixture(scope="module")
def constrained_report(session, line):
    graph = reconvergent_graph(line=line)
    graph.set_clock_period(ps(400))
    graph.set_required("sink", ps(180), transition="rise")
    return session.time(graph, name="constrained")


@pytest.fixture(scope="module")
def dual_report(session, line):
    """A dual-mode report: setup clock plus a hold margin and a hold pin."""
    graph = reconvergent_graph(line=line)
    graph.set_clock_period(ps(400), hold_margin=ps(120))
    graph.set_required("sink", ps(250), transition="rise", mode="hold")
    return session.time(graph, name="dual")


def strip_wall_clock(payload):
    """The serialized report minus run-dependent metadata (wall clock, cache
    counters that depend on what else the producing session already solved)."""
    clean = json.loads(json.dumps(payload))
    clean.pop("meta")
    return clean


class TestLosslessRoundTrip:
    @pytest.mark.parametrize("fixture", ["chain_report", "diamond_report"])
    def test_dict_and_json_round_trip_exactly(self, fixture, request):
        # Sessions return streaming reports; their round trip is a plain
        # report with the identical payload.
        report = request.getfixturevalue(fixture)
        payload = report.to_dict()
        loaded = TimingReport.from_dict(payload)
        assert loaded.to_dict() == payload
        assert TimingReport.from_json(report.to_json()) == loaded
        assert TimingReport.from_dict(loaded.to_dict()) == loaded

    def test_floats_survive_bit_exactly(self, diamond_report):
        clone = TimingReport.from_json(diamond_report.to_json())
        for name, per_net in diamond_report.events.items():
            for transition, event in per_net.items():
                other = clone.events[name][transition]
                assert other.output_arrival == event.output_arrival
                assert other.far_slew == event.far_slew
                assert other.ceff1 == event.ceff1
                assert other.tr1 == event.tr1

    def test_save_and_load(self, chain_report, tmp_path):
        path = chain_report.save(tmp_path / "report.json")
        assert TimingReport.load(path).to_dict() == chain_report.to_dict()

    def test_unknown_format_rejected(self, chain_report):
        payload = chain_report.to_dict()
        payload["format"] = 999
        with pytest.raises(ModelingError):
            TimingReport.from_dict(payload)


class TestStabilityAcrossRuns:
    def test_chain_serialization_is_run_independent(self, chain_report,
                                                    chain_path, library):
        with TimingSession() as rerun:
            again = rerun.time(chain_path)
        assert strip_wall_clock(again.to_dict()) == \
            strip_wall_clock(chain_report.to_dict())

    def test_diamond_serialization_is_run_independent(self, diamond_report,
                                                      line, library):
        with TimingSession() as rerun:
            again = rerun.time(reconvergent_graph(line=line), name="diamond")
        assert strip_wall_clock(again.to_dict()) == \
            strip_wall_clock(diamond_report.to_dict())

    def test_rise_fall_event_ordering_is_sorted(self, diamond_report):
        payload = diamond_report.to_dict()
        # The diamond's sink sees both transitions; serialization orders them
        # deterministically (fall before rise) and nets alphabetically.
        assert list(payload["events"]["sink"]) == ["fall", "rise"]
        assert list(payload["events"]) == sorted(payload["events"])

    def test_json_text_is_byte_stable(self, diamond_report, line, library):
        with TimingSession() as rerun:
            again = rerun.time(reconvergent_graph(line=line), name="diamond")
        first = json.dumps(strip_wall_clock(diamond_report.to_dict()),
                           sort_keys=True)
        second = json.dumps(strip_wall_clock(again.to_dict()), sort_keys=True)
        assert first == second


class TestReportQueries:
    def test_path_report_reads_like_a_path(self, chain_report, chain_path):
        assert chain_report.kind == "path"
        assert chain_report.design == "chain"
        assert len(chain_report.critical_path) == len(chain_path)
        assert chain_report.nets == [name for name, _ in
                                     chain_report.critical_path]
        delays = chain_report.stage_delays()
        assert chain_report.total_delay == pytest.approx(sum(delays))

    def test_event_lookup_and_errors(self, diamond_report):
        worst = diamond_report.worst_event()
        assert worst.net == "sink"
        assert diamond_report.arrival("sink") == worst.output_arrival
        with pytest.raises(ModelingError):
            diamond_report.event("ghost")
        with pytest.raises(ModelingError):
            diamond_report.event("root", "fall")  # the PI rises

    def test_format_report_mentions_critical_path(self, diamond_report):
        text = diamond_report.format_report()
        assert "critical path" in text
        assert "worst sink arrival" in text
        assert "diamond" in text

    def test_meta_records_version_and_cache_behaviour(self, chain_report):
        from repro import __version__
        assert chain_report.meta.version == __version__
        assert chain_report.meta.requests >= chain_report.n_events


class TestSlackSerialization:
    def test_unconstrained_report_has_no_slack(self, diamond_report):
        assert not diamond_report.constrained
        assert diamond_report.wns is None
        assert diamond_report.endpoint_slacks() == []
        with pytest.raises(ModelingError):
            diamond_report.worst_slack_event()
        assert "no constrained endpoints" in diamond_report.format_slack_table()

    def test_slack_survives_round_trip_bit_exactly(self, constrained_report):
        clone = TimingReport.from_json(constrained_report.to_json())
        assert clone.to_dict() == constrained_report.to_dict()
        assert clone.wns == constrained_report.wns
        for name, per_net in constrained_report.events.items():
            for transition, event in per_net.items():
                other = clone.events[name][transition]
                assert other.required == event.required
                assert other.slack == event.slack
                assert other.endpoint == event.endpoint

    def test_slack_queries_and_table(self, constrained_report):
        report = constrained_report
        assert report.constrained
        worst = report.worst_slack_event()
        assert worst.net == "sink"
        assert worst.slack == report.worst_slack
        # The tight 180 ps rise pin wins over the 400 ps clock on the other edge.
        assert worst.output_transition == "rise"
        assert report.slack("sink") == report.worst_slack
        assert report.slack("sink", worst.input_transition) == worst.slack
        table = report.format_slack_table()
        assert "endpoint" in table and "WNS" in table
        assert "slack" in report.format_report()

    def test_legacy_payload_without_slack_fields_loads(self, diamond_report):
        # Reports saved before the slack-aware kernel lack the three new event
        # keys and the two incremental meta keys; they must still load.
        payload = diamond_report.to_dict()
        for per_net in payload["events"].values():
            for event in per_net.values():
                for key in ("required", "slack", "endpoint"):
                    event.pop(key)
        for key in ("dirty_nets", "retimed_nets"):
            payload["meta"].pop(key)
        loaded = TimingReport.from_dict(payload)
        assert loaded.wns is None
        assert loaded.total_delay == diamond_report.total_delay


class TestHoldSerialization:
    def test_unconstrained_report_has_no_hold_slack(self, diamond_report):
        assert not diamond_report.hold_constrained
        assert diamond_report.whs is None
        assert diamond_report.hold_slacks() == []
        with pytest.raises(ModelingError):
            diamond_report.worst_slack_event(mode="hold")
        table = diamond_report.format_slack_table(mode="hold")
        assert "no hold-constrained endpoints" in table

    def test_dual_mode_survives_round_trip_bit_exactly(self, dual_report):
        clone = TimingReport.from_json(dual_report.to_json())
        assert clone.to_dict() == dual_report.to_dict()
        assert clone.whs == dual_report.whs
        assert clone.wns == dual_report.wns
        for name, per_net in dual_report.events.items():
            for transition, event in per_net.items():
                other = clone.events[name][transition]
                assert other.early_arrival == event.early_arrival
                assert other.early_source == event.early_source
                assert other.hold_required == event.hold_required
                assert other.hold_slack == event.hold_slack

    def test_hold_queries_and_table(self, dual_report):
        report = dual_report
        assert report.constrained and report.hold_constrained
        worst = report.worst_slack_event(mode="hold")
        # The 250 ps hold pin on the rise edge dominates the 120 ps margin.
        assert worst.net == "sink"
        assert worst.hold_slack == report.worst_hold_slack
        assert report.slack("sink", mode="hold") == report.worst_hold_slack
        assert report.event("sink", worst.input_transition).hold_required \
            is not None
        assert report.early_arrival("sink") is not None
        assert report.hold_slacks() == report.endpoint_slacks(mode="hold")
        table = report.format_slack_table(mode="hold")
        assert "hold" in table and "WHS" in table and "early" in table
        assert "worst hold slack" in report.format_report()
        with pytest.raises(ModelingError):
            report.slack("sink", mode="race")

    def test_every_event_early_no_later_than_late(self, dual_report):
        for per_net in dual_report.events.values():
            for event in per_net.values():
                assert event.early_arrival <= event.output_arrival

    def test_early_arrival_takes_the_minimum_over_events(self, dual_report):
        # The diamond sink carries rise and fall events: the net-level query
        # must answer the best case, not the early value of the worst-late one.
        events = dual_report.events["sink"].values()
        assert dual_report.early_arrival("sink") == min(
            event.early_arrival for event in events)
        for transition, event in dual_report.events["sink"].items():
            assert (dual_report.early_arrival("sink", transition)
                    == event.early_arrival)

    def test_legacy_payload_without_dual_mode_fields_loads(self,
                                                           diamond_report):
        # Reports saved before the dual-mode kernel lack the four new event
        # keys and the two new meta keys; they must still load.
        payload = diamond_report.to_dict()
        for per_net in payload["events"].values():
            for event in per_net.values():
                for key in ("early_arrival", "early_source", "hold_required",
                            "hold_slack"):
                    event.pop(key)
        for key in ("required_nets", "hold_required_nets"):
            payload["meta"].pop(key)
        loaded = TimingReport.from_dict(payload)
        assert loaded.whs is None
        assert not loaded.hold_constrained
        assert loaded.early_arrival("sink") is None
        assert loaded.total_delay == diamond_report.total_delay


class TestRetiredRunInfoFields:
    def test_stored_worker_era_report_loads(self):
        payload = json.loads(WORKER_ERA_REPORT.read_text())
        assert all(key in payload["meta"] for key in RETIRED_META_KEYS)
        report = TimingReport.load(WORKER_ERA_REPORT)
        assert report.design == "global_route"
        assert report.meta.version == payload["meta"]["version"]
        assert report.meta.elapsed == payload["meta"]["elapsed"]
        assert report.worst_slack is not None
        assert report.n_events == 3
        saved = report.to_dict()
        assert not any(key in saved["meta"] for key in RETIRED_META_KEYS)
        assert TimingReport.from_dict(saved) == report

    def test_runinfo_ignores_retired_keys(self):
        meta = RunInfo(elapsed=1.0, computed=3, batched_solves=3)
        payload = dict(meta.to_dict(), jobs=4, installed=2, shards=4,
                       boundary_events_exchanged=123, parallel_sweep=True,
                       mode="setup")
        assert RunInfo.from_dict(payload) == meta
        with pytest.raises(TypeError):
            RunInfo.from_dict(dict(meta.to_dict(), bogus=1))


class TestReportDiff:
    def test_no_regression_between_identical_reports(self, constrained_report):
        diff = compare_reports(constrained_report, constrained_report)
        assert not diff.regressed
        assert diff.changed_endpoints == []
        assert "no slack regression" in diff.describe()

    def test_wns_worsening_regresses(self, session, line):
        graph = reconvergent_graph(line=line)
        graph.set_clock_period(ps(150))  # violated: arrivals exceed 150 ps
        tight = session.time(graph, name="tight")
        graph.set_clock_period(ps(140))  # even more violated
        tighter = session.time(graph, name="tighter")
        assert tight.wns < 0
        diff = compare_reports(tight, tighter)
        assert diff.regressed
        assert "WNS regression" in diff.describe()
        assert not compare_reports(tighter, tight).regressed  # improvement

    def test_new_violation_on_unconstrained_baseline_regresses(
            self, session, line, diamond_report):
        graph = reconvergent_graph(line=line)
        graph.set_clock_period(ps(150))
        violating = session.time(graph, name="violating")
        assert compare_reports(diamond_report, violating).regressed
        # The reverse direction drops the constraints entirely — the gate must
        # flag the coverage loss instead of silently passing.
        lost = compare_reports(violating, diamond_report)
        assert lost.regressed
        assert "coverage lost" in lost.describe()

    def test_unconstrained_pair_never_regresses(self, chain_report,
                                                diamond_report):
        assert not compare_reports(chain_report, chain_report).regressed
        assert not compare_reports(chain_report, diamond_report).regressed

    def test_diff_tracks_event_population(self, chain_report, diamond_report):
        diff = compare_reports(chain_report, diamond_report)
        assert diff.added_events > 0 and diff.removed_events > 0

    def test_whs_worsening_regresses(self, session, line):
        graph = reconvergent_graph(line=line)
        graph.set_clock_period(ps(400), hold_margin=ps(250))  # violated
        loose = session.time(graph, name="loose")
        graph.set_clock_period(ps(400), hold_margin=ps(280))  # more violated
        tighter = session.time(graph, name="tighter")
        assert loose.whs < 0
        assert loose.wns == 0.0  # setup is clean: only the hold plane moves
        diff = compare_reports(loose, tighter)
        assert diff.hold_regressed and not diff.setup_regressed
        assert diff.regressed
        assert "WHS regression" in diff.describe()
        assert diff.changed_hold_endpoints and not diff.changed_endpoints
        assert not compare_reports(tighter, loose).regressed  # improvement

    def test_hold_coverage_loss_regresses(self, session, line, dual_report):
        graph = reconvergent_graph(line=line)
        graph.set_clock_period(ps(400))  # same clock, hold margin dropped
        setup_only = session.time(graph, name="setup_only")
        lost = compare_reports(dual_report, setup_only)
        assert lost.hold_regressed and lost.regressed
        assert "hold coverage lost" in lost.describe()
