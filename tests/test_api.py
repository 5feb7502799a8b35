"""The repro.api front door: session, config, builder, unified report.

The acceptance-critical parts live here:

* ``TimingSession.time(...)`` (the compiled engine) reproduces the object
  reference sweep (``GraphEngine.analyze``) bit-identically, for paths and
  graphs,
* ``TimingReport`` JSON round-trips losslessly and serializes stably across
  runs (rise/fall event ordering included), and
* configs saved before a field was retired still load.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.api import DesignBuilder, SessionConfig, TimingReport, TimingSession
from repro.core.driver_model import ModelingOptions
from repro.errors import ModelingError, WaveformError
from repro.experiments import case_graph, parallel_chains, reconvergent_graph
from repro.interconnect import RLCLine
import repro.sta
from repro.sta import TimingPath, TimingStage, chain_graph
from repro.sta.batch import GraphEngine
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                   length=mm(1))


@pytest.fixture(scope="module")
def four_stage_path(line):
    return TimingPath("four", [
        TimingStage("s1", driver_size=75, line=line, receiver_size=100),
        TimingStage("s2", driver_size=100, line=line, receiver_size=75),
        TimingStage("s3", driver_size=75, line=line, receiver_size=100),
        TimingStage("s4", driver_size=100, line=line, receiver_size=50),
    ], input_slew=ps(100))


@pytest.fixture(scope="module")
def session(library):
    with TimingSession() as active:
        yield active


#: A SessionConfig payload saved while ``compile_threshold`` still existed.
PRE_RETIREMENT_CONFIG = (
    Path(__file__).resolve().parent / "data" / "session_config_with_compile_threshold.json"
)


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ModelingError):
            SessionConfig(jobs=0)
        with pytest.raises(ModelingError):
            SessionConfig(slew_low=0.8, slew_high=0.2)
        with pytest.raises(ModelingError):
            SessionConfig(options="not options")

    def test_replace_revalidates(self):
        config = SessionConfig()
        assert config.replace(jobs=4).jobs == 4
        with pytest.raises(ModelingError):
            config.replace(jobs=-1)

    def test_from_env_reads_documented_variables(self, tmp_path):
        environ = {"REPRO_CACHE_DIR": str(tmp_path), "REPRO_JOBS": "3",
                   "REPRO_PERSISTENT_STAGES": "1"}
        config = SessionConfig.from_env(environ)
        assert config.cache_dir == tmp_path
        assert config.jobs == 3
        assert config.persistent_stages is True

    def test_from_env_overrides_win(self, tmp_path):
        environ = {"REPRO_JOBS": "3"}
        assert SessionConfig.from_env(environ, jobs=2).jobs == 2

    def test_from_env_zero_jobs_means_cpu_count(self):
        assert SessionConfig.from_env({"REPRO_JOBS": "0"}).jobs >= 1

    def test_from_env_rejects_bad_jobs(self):
        with pytest.raises(ModelingError):
            SessionConfig.from_env({"REPRO_JOBS": "many"})

    def test_from_env_compile_threshold(self):
        # The retired variable is no longer read: every design runs compiled.
        for value in ("512", "0", "lots"):
            assert SessionConfig.from_env({"REPRO_COMPILE_THRESHOLD": value}) == (
                SessionConfig())

    def test_from_env_compile_threshold_serializes(self):
        config = SessionConfig.from_env({"REPRO_COMPILE_THRESHOLD": "512"})
        payload = config.to_dict()
        assert "compile_threshold" not in payload
        assert SessionConfig.from_dict(payload) == config

    def test_pre_retirement_payload_loads(self):
        # Saved while compile_threshold, slew_quantum and the analysis mode
        # still existed; every retired key is dropped on load.
        payload = json.loads(PRE_RETIREMENT_CONFIG.read_text())
        assert payload["compile_threshold"] == 512
        assert payload["slew_quantum"] == 1e-12
        assert payload["mode"] == "setup"
        config = SessionConfig.from_dict(payload)
        assert config == SessionConfig(
            jobs=2, corners={"slow": ModelingOptions(ceff_damping=0.4)})
        assert "mode" not in config.to_dict()
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_retired_memo_size_payload_loads(self):
        # The memo bound is no longer a session knob (the solver keeps its
        # default LRU bound); a payload that still carries it loads unchanged.
        payload = SessionConfig(jobs=2).to_dict()
        assert "memo_size" not in payload
        assert "memo=" not in SessionConfig().describe()
        config = SessionConfig.from_dict(dict(payload, memo_size=0))
        assert config == SessionConfig(jobs=2)
        assert TimingSession(config).solver.memo_size == 4096
        with pytest.raises(TypeError):
            SessionConfig(memo_size=16)

    def test_dict_round_trip(self, tmp_path):
        config = SessionConfig(cache_dir=tmp_path, jobs=2, persistent_stages=True)
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ModelingError):
            SessionConfig.from_dict({"warp_speed": 9})


class TestDesignBuilder:
    def test_fluent_graph_construction(self, line):
        graph = (DesignBuilder("d")
                 .net("root", driver_size=100, line=line)
                 .net("leaf", driver_size=50, line=line, receiver_size=25)
                 .connect("root", "leaf")
                 .input("root", ps(100))
                 .build())
        assert graph.nets["root"].fanout == ("leaf",)
        assert graph.levels == [["root"], ["leaf"]]

    def test_chain_builds_linear_route(self, line):
        builder = DesignBuilder("d").chain(
            "c", sizes=(75, 100, 75), line=line, input_slew=ps(100),
            receiver_size=50)
        graph = builder.build()
        assert builder.net_names == ("c_s0", "c_s1", "c_s2")
        assert graph.nets["c_s0"].fanout == ("c_s1",)
        assert graph.nets["c_s2"].receiver_size == 50
        assert graph.primary_inputs["c_s0"].slew == ps(100)

    def test_chain_cycles_line_flavors(self, line):
        other = RLCLine(resistance=40.0, inductance=nH(2.0),
                        capacitance=pF(0.4), length=mm(2))
        graph = (DesignBuilder("d")
                 .chain("c", sizes=(75, 75, 75), line=[line, other],
                        input_slew=ps(100))
                 .build())
        assert graph.nets["c_s0"].line is line
        assert graph.nets["c_s1"].line is other
        assert graph.nets["c_s2"].line is line

    def test_duplicate_nets_and_inputs_rejected(self, line):
        builder = DesignBuilder("d").net("n", driver_size=75, line=line)
        with pytest.raises(ModelingError):
            builder.net("n", driver_size=50, line=line)
        builder.input("n", ps(100))
        with pytest.raises(ModelingError):
            builder.input("n", ps(50))

    def test_connect_requires_declared_driver(self, line):
        with pytest.raises(ModelingError):
            DesignBuilder("d").connect("ghost", "x")
        with pytest.raises(ModelingError):
            DesignBuilder("d").net("n", driver_size=75, line=line).connect("n")

    def test_build_validates_structure(self, line):
        builder = (DesignBuilder("d")
                   .net("n", driver_size=75, line=line, fanout=("ghost",))
                   .input("n", ps(100)))
        with pytest.raises(ModelingError):
            builder.build()

    def test_builder_reusable_after_build(self, line):
        builder = DesignBuilder("d").chain("c", sizes=(75,), line=line,
                                           input_slew=ps(100))
        first = builder.build()
        builder.net("tap", driver_size=50, line=line).connect("c_s0", "tap")
        second = builder.build()
        assert len(first) == 1 and len(second) == 2


class TestSessionEquivalence:
    """Acceptance: session results are bit-identical to the object reference sweep."""

    def test_session_matches_path_timer_exactly(self, session, library,
                                                four_stage_path):
        report = session.time(four_stage_path)
        assert report.kind == "path"
        chain, names = chain_graph(four_stage_path)
        reference = GraphEngine(library=library).analyze(chain)
        assert [name for name, _ in report.critical_path] == names
        assert report.critical_path == reference.critical_path
        assert report.events == reference.events  # whole records, every field
        assert report.output_slew == reference.output_slew

    @pytest.mark.parametrize("case", ["chains", "diamond"])
    def test_session_matches_graph_timer_exactly(self, session, library, line,
                                                 case):
        if case == "chains":
            graph = parallel_chains(3, 2, lines=[line], input_slew=ps(100))
        else:
            graph = reconvergent_graph(line=line)
        report = session.time(graph, name=case)
        legacy = GraphEngine(library=library).analyze(graph)
        assert report.n_events == legacy.n_events
        assert report.events == legacy.events  # whole records, every field
        assert report.critical_path == legacy.critical_path

    def test_builder_and_graph_agree(self, session, line):
        graph = parallel_chains(1, 2, lines=[line], sizes=(75.0, 100.0),
                                terminal_size=50.0, input_slew=ps(100))
        builder = DesignBuilder("one_chain").chain(
            "c", sizes=(75, 100), line=line, input_slew=ps(100),
            receiver_size=50)
        from_builder = session.time(builder)
        from_graph = session.time(graph)
        assert from_builder.total_delay == from_graph.total_delay

    def test_time_rejects_unknown_designs(self, session):
        with pytest.raises(ModelingError):
            session.time("not a design")


class TestDeprecatedShims:
    def test_retired_entry_points_are_gone(self):
        for name in ("PathTimer", "GraphTimer", "PathTimingReport", "StageTiming"):
            assert not hasattr(repro.sta, name)

    def test_graph_engine_does_not_warn(self, library):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GraphEngine(library=library)


class TestContextManagers:
    def test_characterization_runner_context(self):
        from repro.characterization import CharacterizationRunner
        with CharacterizationRunner(jobs=1) as runner:
            assert runner.jobs == 1
        runner.close()  # idempotent

    def test_session_close_is_idempotent_and_reusable(self, library, line,
                                                      four_stage_path):
        session = TimingSession()
        session.close()
        assert session.closed
        session.close()
        report = session.time(four_stage_path)  # usable again after close
        assert report.total_delay > 0
        assert not session.closed
        session.close()

    def test_session_shares_memo_across_analyses(self, library,
                                                 four_stage_path):
        with TimingSession() as fresh:
            fresh.time(four_stage_path)
            computed = fresh.stats.computed
            fresh.time(four_stage_path)
            assert fresh.stats.computed == computed
            assert fresh.stats.memo_hits >= len(four_stage_path)


class TestSessionResources:
    def test_default_session_shares_process_library(self, library):
        assert TimingSession().library is library

    def test_explicit_cache_dir_builds_private_library(self, tmp_path, library):
        session = TimingSession(cache_dir=tmp_path)
        assert session.library is not library
        assert set(session.library.sizes) == set(library.sizes)

    def test_custom_grid_characterization_not_registered(self, tmp_path):
        # A non-standard (here: tiny) grid must never enter the session's
        # library — with the default config that library is the process-shared
        # default_library(), and a coarse cell would degrade everyone's timing.
        from repro.characterization import CharacterizationGrid
        from repro.units import fF
        tiny = CharacterizationGrid(input_slews=(ps(50), ps(150)),
                                    loads=(fF(30), fF(150)))
        with TimingSession(cache_dir=tmp_path) as fresh:
            (cell,) = fresh.characterize(60, grid=tiny)
        assert cell.driver_size == 60
        assert 60.0 not in fresh.library

    def test_persistent_stages_land_in_cache_dir(self, tmp_path, line):
        config = SessionConfig(cache_dir=tmp_path, persistent_stages=True)
        with TimingSession(config) as session:
            path = TimingPath("p", [TimingStage("s", 75, line)],
                              input_slew=ps(100))
            session.time(path)
        stage_files = list((tmp_path / "stages").glob("*.json"))
        assert len(stage_files) == 1

    def test_describe_mentions_resources(self, session):
        text = session.describe()
        assert "timing session" in text
        assert "library" in text


class TestIncrementalSession:
    def test_update_attaches_then_retimes_dirty_cone(self, library, line):
        graph = parallel_chains(2, 3, lines=[line], input_slew=ps(100))
        with TimingSession() as session:
            first = session.update(graph)
            assert first.meta.retimed_nets == len(graph)
            graph.resize_driver("c0s2", 50.0)
            second = session.update()  # design defaults to the attached graph
            # Chain 0's tail was edited; chain 1 must not be re-timed.
            assert second.meta.dirty_nets == 2  # the net + its fanin
            assert second.meta.retimed_nets < len(graph)
            full = session.time(graph)
            for name, per_net in full.events.items():
                for transition, event in per_net.items():
                    ours = second.events[name][transition]
                    assert ours.output_arrival == event.output_arrival
                    assert ours.input_slew == event.input_slew
                    assert ours.source == event.source

    def test_update_reflects_constraint_edits_without_solves(self, library,
                                                             line):
        graph = parallel_chains(1, 2, lines=[line], input_slew=ps(100))
        with TimingSession() as session:
            session.update(graph)
            computed = session.stats.computed
            graph.set_clock_period(ps(500))
            report = session.update()
            assert session.stats.computed == computed  # arithmetic only
            assert report.wns == 0.0
            assert report.worst_slack == pytest.approx(
                ps(500) - report.total_delay)

    def test_update_rejects_builders_and_non_graphs(self, library, line):
        with TimingSession() as session:
            with pytest.raises(ModelingError, match="update"):
                session.update()
            builder = DesignBuilder("d").chain("c", sizes=(75,), line=line,
                                               input_slew=ps(100))
            with pytest.raises(ModelingError, match="built graph|build"):
                session.update(builder)
            with pytest.raises(ModelingError):
                session.update("not a graph")

    def test_update_reattaches_to_a_new_graph(self, library, line):
        first_graph = parallel_chains(1, 2, lines=[line], input_slew=ps(100))
        second_graph = reconvergent_graph(line=line)
        with TimingSession() as session:
            session.update(first_graph)
            report = session.update(second_graph)
            assert set(report.events) == set(second_graph.nets)


def _golden(key):
    from golden_cases import golden_designs

    return dict(golden_designs())[key]()


#: Legal single edits whose re-time hits the far-end window defect:
#: case -> (fresh design, the edit).
WINDOW_DEFECT_EDITS = {
    "chain3": (lambda: case_graph("chain3"),
               lambda graph: graph.resize_driver("stage2", 25.0)),
    "random5": (lambda: _golden("random5"),
                lambda graph: graph.set_receiver("n11", 50.0)),
    "random41": (lambda: _golden("random41"),
                 lambda graph: graph.set_receiver("n3", None)),
}


@pytest.mark.parametrize("case", sorted(WINDOW_DEFECT_EDITS))
class TestFarEndWindowDefect:
    """Legal edits whose re-time aborts on the far-end window.

    The far end of the edited stage starts above the 10% level, so its slew
    measurement never crosses it (ROADMAP item 6: the far-end window starts
    at t = 0, not where the ramp starts).  ``chain3`` resizes ``stage2`` to
    25X; the seeded golden random DAGs resize or drop a terminal receiver.
    The first test pins the defect and must flip to passing, for every case,
    with item 6's fix, which then removes its mark; the second pins that the
    failed edit leaves the graph exactly as it was.
    """

    @staticmethod
    def edit_and_update(case, graph, session):
        with graph.transaction():
            WINDOW_DEFECT_EDITS[case][1](graph)
            return session.update(graph)

    @pytest.mark.xfail(strict=True, raises=WaveformError,
                       reason="ROADMAP item 6: far-end window starts at t = 0")
    def test_edit_retimes(self, library, case):
        graph = WINDOW_DEFECT_EDITS[case][0]()
        with TimingSession() as session:
            session.update(graph)
            report = self.edit_and_update(case, graph, session)
            assert report.meta.retimed_nets >= 1

    def test_failed_edit_rolls_the_graph_back(self, library, case):
        graph = WINDOW_DEFECT_EDITS[case][0]()
        with TimingSession() as session:
            n_events = session.update(graph).n_events
            version, nets = graph.version, dict(graph.nets)
            with pytest.raises(WaveformError, match="never crosses"):
                self.edit_and_update(case, graph, session)
            assert graph.version == version
            assert graph.nets == nets
            assert not graph.dirty_nets
            assert session.update(graph).n_events == n_events


class TestRetiredNaiveBaseline:
    def test_memoize_keyword_is_gone(self, library):
        graph = case_graph("chain3")
        with TimingSession() as session:
            with pytest.raises(TypeError):
                session.time(graph, memoize=False)
        with pytest.raises(TypeError):
            GraphEngine(library=library).analyze(graph, memoize=False)


class TestDualModeSession:
    def test_builder_hold_constraints_flow_through(self, library, line):
        builder = (DesignBuilder("held")
                   .chain("c", sizes=(75, 100), line=line,
                          input_slew=ps(100), receiver_size=50)
                   .clock(ps(700), hold_margin=ps(60))
                   .require("c_s1", ps(90), mode="hold"))
        with pytest.raises(ModelingError, match="mode"):
            builder.require("c_s1", ps(90), mode="race")
        with pytest.raises(ModelingError, match="hold margin"):
            DesignBuilder("bad").clock(ps(700), hold_margin=-ps(1))
        with TimingSession() as session:
            report = session.time(builder)
        assert report.design == "held"
        assert report.wns is not None and report.whs is not None
        event = report.worst_slack_event(mode="hold")
        assert event.hold_required == ps(90)  # the pin beats the margin

    def test_update_carries_the_hold_plane(self, library, line):
        graph = parallel_chains(2, 3, lines=[line], input_slew=ps(100))
        graph.set_clock_period(ps(700), hold_margin=ps(40))
        with TimingSession() as session:
            first = session.update(graph)
            assert first.whs is not None
            assert first.meta.hold_required_nets == len(graph)
            graph.resize_driver("c0s2", 50.0)
            second = session.update()
            full = session.time(graph)
            assert second.whs == full.whs
            for name, per_net in full.events.items():
                for transition, event in per_net.items():
                    ours = second.events[name][transition]
                    assert ours.early_arrival == event.early_arrival
                    assert ours.hold_slack == event.hold_slack


class TestCorners:
    @pytest.fixture(scope="class")
    def corner_config(self):
        return SessionConfig(corners={
            "nom": ModelingOptions(),
            "no_plateau": ModelingOptions(plateau_correction=False),
        })

    def test_corner_round_trips_through_config_dict(self, corner_config):
        clone = SessionConfig.from_dict(corner_config.to_dict())
        assert clone == corner_config

    def test_corner_validation(self):
        with pytest.raises(ModelingError):
            SessionConfig(corners={})
        with pytest.raises(ModelingError):
            SessionConfig(corners={"": ModelingOptions()})
        with pytest.raises(ModelingError):
            SessionConfig(corners={"bad": "not options"})

    def test_unknown_corner_rejected(self, library, corner_config,
                                     four_stage_path):
        with TimingSession(corner_config) as session:
            with pytest.raises(ModelingError, match="unknown corner"):
                session.time(four_stage_path, corner="ghost")

    def test_corners_share_one_memo_keyed_apart(self, library, corner_config,
                                                line):
        graph = parallel_chains(1, 2, lines=[line], input_slew=ps(100))
        with TimingSession(corner_config) as session:
            reports = session.time_corners(graph, name="g")
            assert set(reports) == {"nom", "no_plateau"}
            # Each corner solved its own stages through the one shared solver...
            first_pass = session.stats.computed
            assert first_pass > 0
            # ...and re-timing either corner is now pure memo hits.
            again = session.time(graph, corner="nom")
            assert session.stats.computed == first_pass
            assert again.total_delay == reports["nom"].total_delay

    def test_default_corner_matches_plain_time(self, library, corner_config,
                                               four_stage_path):
        with TimingSession(corner_config) as session:
            plain = session.time(four_stage_path)
            nom = session.time(four_stage_path, corner="nom")
        assert plain.total_delay == nom.total_delay

    def test_time_corners_requires_configuration(self, library,
                                                 four_stage_path):
        with TimingSession() as session:
            with pytest.raises(ModelingError, match="no corners"):
                session.time_corners(four_stage_path)
