"""Path timing through the session, its serial reference, and flat validation.

A :class:`TimingPath` is timed as its chain-shaped graph on the compiled
engine.  :func:`serial_chain` is the original one-stage-at-a-time loop, kept
here as the chain reference the session must reproduce.
"""

from dataclasses import replace
from typing import List

import pytest

from repro.api import SessionConfig, TimingReport, TimingSession
from repro.constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from repro.core import ModelingOptions
from repro.core.stage_solver import StageSolution, solve_stage
from repro.errors import ModelingError
from repro.interconnect import RLCLine
from repro.sta import TimingPath, TimingStage, flip_transition, simulate_path_reference
from repro.units import fF, mm, nH, pF, ps, to_ps


def serial_chain(path: TimingPath, *, library, tech,
                 options: ModelingOptions = ModelingOptions(),
                 slew_low: float = SLEW_LOW_THRESHOLD,
                 slew_high: float = SLEW_HIGH_THRESHOLD) -> List[StageSolution]:
    """Time ``path`` one stage at a time, with no graph and no memo.

    The primary input is an ``options.transition`` edge, so the first inverter
    output flips it and every later stage flips again.  Each stage's far-end
    waveform reaches the next gate as a saturated ramp with the same
    threshold-to-threshold transition time.
    """
    solutions: List[StageSolution] = []
    slew = path.input_slew
    transition = options.transition
    for stage in path.stage_list:
        transition = flip_transition(transition)
        load = stage.extra_load
        if stage.receiver_size is not None:
            load += tech.inverter_input_capacitance(stage.receiver_size)
        solution = solve_stage(
            library.get(stage.driver_size), slew, stage.line, load,
            options=replace(options, transition=transition, reference_time=0.0),
            slew_low=slew_low, slew_high=slew_high)
        solutions.append(solution)
        slew = solution.far_slew / (slew_high - slew_low)
    return solutions


@pytest.fixture(scope="module")
def session():
    return TimingSession()


@pytest.fixture(scope="module")
def short_line():
    return RLCLine(resistance=43.5, inductance=nH(3.1), capacitance=pF(0.66),
                   length=mm(3))


@pytest.fixture(scope="module")
def two_stage_path(short_line):
    return TimingPath(
        name="two_stage",
        stages=[
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=75),
            TimingStage("s2", driver_size=75, line=short_line, receiver_size=50),
        ],
        input_slew=ps(100),
    )


class TestStageAndPathValidation:
    def test_stage_validation(self, short_line):
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=0, line=short_line)
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=75, line=short_line, receiver_size=-1)
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=75, line=short_line, extra_load=-1e-15)

    def test_path_needs_stages_and_positive_slew(self, short_line):
        with pytest.raises(ModelingError):
            TimingPath("empty", [], input_slew=ps(100))
        with pytest.raises(ModelingError):
            TimingPath("bad", [TimingStage("s", 75, short_line)], input_slew=0.0)

    def test_receiver_driver_consistency_enforced(self, short_line):
        stages = [
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s2", driver_size=50, line=short_line),
        ]
        with pytest.raises(ModelingError):
            TimingPath("mismatch", stages, input_slew=ps(100))

    def test_intermediate_stage_needs_receiver(self, short_line):
        stages = [
            TimingStage("s1", driver_size=75, line=short_line),
            TimingStage("s2", driver_size=75, line=short_line),
        ]
        with pytest.raises(ModelingError):
            TimingPath("no_receiver", stages, input_slew=ps(100))

    def test_len(self, two_stage_path):
        assert len(two_stage_path) == 2


class TestPathTimer:
    @pytest.fixture(scope="class")
    def report(self, session, two_stage_path):
        return session.time(two_stage_path)

    def test_report_structure(self, report, two_stage_path):
        assert report.kind == "path"
        assert report.design == two_stage_path.name
        assert report.nets == ["s1", "s2"]
        assert len(report.critical_events()) == 2
        assert report.total_delay == pytest.approx(sum(report.stage_delays()))

    def test_stage_delays_are_positive_and_sane(self, report):
        for stage in report.critical_events():
            assert 0 < stage.gate_delay < ps(500)
            assert 0 < stage.interconnect_delay < ps(500)
            assert stage.far_slew > 0

    def test_output_transition_directions_alternate(self, report):
        first, second = report.critical_events()
        assert first.output_transition == "fall"
        assert second.output_transition == "rise"

    def test_slew_propagates_between_stages(self, report):
        first, second = report.critical_events()
        assert second.input_slew == pytest.approx(first.far_slew / 0.8, rel=1e-9)

    def test_receiver_load_included(self, session, short_line):
        bare = TimingPath("bare", [TimingStage("s", 75, short_line)], input_slew=ps(100))
        loaded = TimingPath("loaded", [TimingStage("s", 75, short_line,
                                                   receiver_size=125)],
                            input_slew=ps(100))
        assert session.time(loaded).total_delay > session.time(bare).total_delay

    def test_format_report(self, report):
        text = report.format_report()
        assert "path 'two_stage'" in text and "critical path" in text
        assert "s1" in text and "s2" in text

    def test_analyze_requires_path(self, session):
        with pytest.raises(ModelingError):
            session.time("not a path")


class TestRiseFallPropagation:
    """Rise/fall asymmetry and slew propagation through the STA layer."""

    @pytest.fixture(scope="class")
    def four_stage_path(self, short_line):
        return TimingPath("four", [
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s2", driver_size=100, line=short_line, receiver_size=75),
            TimingStage("s3", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s4", driver_size=100, line=short_line, receiver_size=50),
        ], input_slew=ps(100))

    @pytest.fixture(scope="class")
    def report(self, session, four_stage_path):
        return session.time(four_stage_path)

    def test_stage_transition_alternates_from_rising_input(self, report):
        assert [event.input_transition for event in report.critical_events()] == \
            ["rise", "fall", "rise", "fall"]

    def test_stage_transition_alternates_from_falling_input(self, four_stage_path):
        falling = TimingSession(SessionConfig(
            options=ModelingOptions(transition="fall")))
        report = falling.time(four_stage_path)
        assert [event.output_transition for event in report.critical_events()] == \
            ["rise", "fall", "rise", "fall"]

    def test_report_transitions_alternate(self, report):
        assert [event.output_transition for event in report.critical_events()] == \
            ["fall", "rise", "fall", "rise"]

    def test_rise_and_fall_stages_time_differently(self, report):
        # NMOS and PMOS strengths differ, so falling and rising stages of the
        # same (cell, line, load) configuration must not time identically.
        events = report.critical_events()
        falling, rising = events[0], events[2]
        assert falling.output_transition == rising.output_transition == "fall"
        other = events[1]
        assert other.output_transition == "rise"
        assert other.gate_delay != falling.gate_delay

    def test_propagated_slew_is_rescaled_far_slew(self, session, report):
        # Propagated slew = threshold-to-threshold far-end time / (high - low).
        span = session.config.slew_high - session.config.slew_low
        events = report.critical_events()
        for upstream, downstream in zip(events, events[1:]):
            assert downstream.input_slew == upstream.far_slew / span
            assert downstream.input_slew == upstream.propagated_slew

    def test_graph_chain_matches_serial_loop_exactly(self, library, tech, report,
                                                     four_stage_path):
        # Acceptance criterion: the session's chain analysis (the batched array
        # path) reproduces the naive per-stage scalar loop to <= 1e-12 s on
        # delays and <= 1e-9 relative on slews (the far-end kernel convolution
        # agrees with the per-lane transient to solver roundoff, ~1e-12).
        serial = serial_chain(four_stage_path, library=library, tech=tech)
        events = report.critical_events()
        assert len(events) == len(serial)
        for event, stage in zip(events, serial):
            assert event.output_transition == stage.transition
            assert abs(event.gate_delay - stage.gate_delay) <= 1e-12
            assert abs(event.stage_delay - stage.stage_delay) <= 1e-12
            assert event.input_slew == pytest.approx(stage.input_slew, rel=1e-9)
            assert event.far_slew == pytest.approx(stage.far_slew, rel=1e-9)
        total = sum(stage.stage_delay for stage in serial)
        assert abs(report.total_delay - total) <= 1e-12

    def test_analyze_memoizes_repeated_paths(self, four_stage_path):
        session = TimingSession()
        first = session.time(four_stage_path)
        assert first.meta.computed > 0
        again = session.time(four_stage_path)
        assert again.meta.computed == 0  # all stages from memo
        assert again.meta.memo_hits >= 1
        assert again.to_dict()["events"] == first.to_dict()["events"]


class TestZeroStageReport:
    """A report that timed nothing still answers queries sensibly."""

    @pytest.fixture
    def report(self):
        return TimingReport(design="p", kind="path", events={}, levels=[])

    def test_output_slew_raises_modeling_error(self, report):
        with pytest.raises(ModelingError, match="no critical path"):
            report.output_slew

    def test_format_report_and_totals_survive(self, report):
        assert report.n_events == 0
        assert report.stage_delays() == []
        assert "nothing to time" in report.format_report()


class TestFlatValidation:
    def test_sta_matches_flat_simulation_within_ten_percent(self, session,
                                                            two_stage_path):
        report = session.time(two_stage_path)
        reference = simulate_path_reference(two_stage_path)
        sta_total = report.total_delay
        flat_total = reference.total_delay
        assert sta_total == pytest.approx(flat_total, rel=0.10)
        # Per-stage arrivals line up as well.
        first_arrival = reference.stage_arrival(0)
        first_stage = report.critical_events()[0]
        assert first_stage.stage_delay == pytest.approx(first_arrival, rel=0.15)

    def test_flat_reference_description(self, two_stage_path):
        reference = simulate_path_reference(two_stage_path, dt=ps(0.2))
        assert "total delay" in reference.describe()
        assert reference.total_delay > 0
