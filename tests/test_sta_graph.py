"""Timing-graph subsystem: structure validation, levelization, batch analysis."""


import pytest

from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import (fanout_tree, parallel_chains, reconvergent_graph)
from repro.interconnect import RLCLine
from repro.sta import (GraphEngine, GraphNet, GraphTimer, PathTimer,
                       PrimaryInput, TimingGraph, TimingPath, TimingStage,
                       chain_graph, flip_transition)
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                   length=mm(1))


def build_diamond(line):
    nets = [
        GraphNet("root", 100.0, line, fanout=("a", "b")),
        GraphNet("a", 75.0, line, fanout=("sink",)),
        GraphNet("b", 75.0, line, fanout=("c",)),
        GraphNet("c", 75.0, line, fanout=("sink",)),
        GraphNet("sink", 50.0, line, receiver_size=25.0),
    ]
    return TimingGraph(nets, {"root": PrimaryInput(slew=ps(100))})


@pytest.fixture(scope="module")
def diamond(line):
    return build_diamond(line)


@pytest.fixture()
def fresh_diamond(line):
    """A private diamond per test — for tests that edit/constrain the graph."""
    return build_diamond(line)


@pytest.fixture(scope="module")
def shared_solver():
    """One memo for the constraint/edit tests: repeated configs solve once."""
    return StageSolver()


class TestStructure:
    def test_flip_transition(self):
        assert flip_transition("rise") == "fall"
        assert flip_transition("fall") == "rise"
        with pytest.raises(ModelingError):
            flip_transition("wiggle")

    def test_net_validation(self, line):
        with pytest.raises(ModelingError):
            GraphNet("", 75.0, line)
        with pytest.raises(ModelingError):
            GraphNet("n", 0.0, line)
        with pytest.raises(ModelingError):
            GraphNet("n", 75.0, line, receiver_size=-1.0)
        with pytest.raises(ModelingError):
            GraphNet("n", 75.0, line, extra_load=-1e-15)
        with pytest.raises(ModelingError):
            GraphNet("n", 75.0, line, fanout=("x", "x"))

    def test_graph_validation(self, line):
        with pytest.raises(ModelingError):
            TimingGraph([], {})
        with pytest.raises(ModelingError):  # duplicate name
            TimingGraph([GraphNet("n", 75.0, line), GraphNet("n", 50.0, line)],
                        {"n": PrimaryInput(slew=ps(100))})
        with pytest.raises(ModelingError):  # unknown fanout target
            TimingGraph([GraphNet("n", 75.0, line, fanout=("ghost",))],
                        {"n": PrimaryInput(slew=ps(100))})
        with pytest.raises(ModelingError):  # self loop
            TimingGraph([GraphNet("n", 75.0, line, fanout=("n",))],
                        {"n": PrimaryInput(slew=ps(100))})
        with pytest.raises(ModelingError):  # root without stimulus
            TimingGraph([GraphNet("n", 75.0, line)], {})
        with pytest.raises(ModelingError):  # stimulus on non-root
            TimingGraph([GraphNet("a", 75.0, line, fanout=("b",)),
                         GraphNet("b", 75.0, line)],
                        {"a": PrimaryInput(slew=ps(100)),
                         "b": PrimaryInput(slew=ps(100))})
        with pytest.raises(ModelingError):  # cycle
            TimingGraph([GraphNet("a", 75.0, line, fanout=("b",)),
                         GraphNet("b", 75.0, line, fanout=("a",))], {})

    def test_primary_input_validation(self):
        with pytest.raises(ModelingError):
            PrimaryInput(slew=0.0)
        with pytest.raises(ModelingError):
            PrimaryInput(slew=ps(100), transition="sideways")

    def test_levelization(self, diamond):
        assert diamond.levels == [["root"], ["a", "b"], ["c"], ["sink"]]
        assert diamond.n_levels == 4
        assert diamond.roots == ["root"]
        assert diamond.sinks == ["sink"]
        assert diamond.fanin("sink") == ["a", "c"]
        assert len(diamond) == 5
        assert "root" in diamond and "ghost" not in diamond
        assert "5 nets" in diamond.describe()

    def test_chain_graph_name_collision(self, line):
        # A literal "s#1" stage must not collide with the uniquified duplicate.
        path = TimingPath("p", [
            TimingStage("s", driver_size=75, line=line, receiver_size=75),
            TimingStage("s#1", driver_size=75, line=line, receiver_size=75),
            TimingStage("s", driver_size=75, line=line, receiver_size=50),
        ], input_slew=ps(100))
        graph, names = chain_graph(path)
        assert len(set(names)) == 3
        assert names[0] == "s" and names[1] == "s#1"

    def test_chain_graph_shape(self, line):
        path = TimingPath("p", [
            TimingStage("s", driver_size=75, line=line, receiver_size=100),
            TimingStage("s", driver_size=100, line=line, receiver_size=50),
        ], input_slew=ps(100))
        graph, names = chain_graph(path)
        assert names == ["s", "s#1"]  # duplicate stage names are uniquified
        assert graph.levels == [["s"], ["s#1"]]
        assert graph.nets["s"].fanout == ("s#1",)
        assert graph.nets["s"].receiver_size is None
        assert graph.nets["s#1"].receiver_size == 50


class TestLoadsAndMerging:
    def test_fanout_load_matches_stage_load(self, line, library, tech):
        # A chain net's gate load (from its fanout driver) must be bit-identical
        # to the single-path engine's receiver load for the same stage.
        path = TimingPath("p", [
            TimingStage("s1", driver_size=75, line=line, receiver_size=100),
            TimingStage("s2", driver_size=100, line=line, receiver_size=50),
        ], input_slew=ps(100))
        timer = PathTimer(library=library, tech=tech)
        graph, names = chain_graph(path)
        graph_timer = timer._graph_timer
        for stage, name in zip(path.stage_list, names):
            assert graph_timer.net_load(graph, graph.nets[name]) == \
                timer._stage_load(stage)

    def test_fanout_load_sums_every_receiver(self, line, library, tech):
        nets = [GraphNet("n", 75.0, line, fanout=("x", "y"), receiver_size=25.0,
                         extra_load=2e-15),
                GraphNet("x", 100.0, line), GraphNet("y", 50.0, line)]
        graph = TimingGraph(nets, {"n": PrimaryInput(slew=ps(100))})
        timer = GraphTimer(library=library, tech=tech)
        expected = (2e-15 + tech.inverter_input_capacitance(100)
                    + tech.inverter_input_capacitance(50)
                    + tech.inverter_input_capacitance(25))
        assert timer.net_load(graph, graph.nets["n"]) == expected

    def test_worst_arrival_merge_wins(self, line, library):
        # sink's fanins have the same parity but different depth, so the longer
        # branch must set the merged arrival and the traceback source.
        nets = [
            GraphNet("root", 100.0, line, fanout=("fast", "slow_a")),
            GraphNet("fast", 75.0, line, fanout=("mid",)),
            GraphNet("mid", 75.0, line, fanout=("sink",)),
            GraphNet("slow_a", 25.0, line, fanout=("slow_b",)),
            GraphNet("slow_b", 25.0, line, fanout=("sink",)),
            GraphNet("sink", 50.0, line, receiver_size=25.0),
        ]
        graph = TimingGraph(nets, {"root": PrimaryInput(slew=ps(100))})
        report = GraphTimer(library=library).analyze(graph)
        sink_events = report.events["sink"]
        assert set(sink_events) == {"fall"}  # equal parity: one transition
        event = sink_events["fall"]
        slow = report.events["slow_b"]["rise"]
        mid = report.events["mid"]["rise"]
        assert event.input_arrival == max(slow.output_arrival, mid.output_arrival)
        winner = "slow_b" if slow.output_arrival > mid.output_arrival else "mid"
        assert event.source == (winner, "rise")

    def test_reconvergent_graph_times_both_transitions(self, library):
        report = GraphTimer(library=library).analyze(reconvergent_graph())
        sink = report.events["sink"]
        assert set(sink) == {"rise", "fall"}
        assert report.n_events == len(report.graph) + 1
        # Traceback from the worst sink event reaches the primary input.
        path = report.critical_path()
        assert path[0].net.name == "root"
        assert path[0].source is None
        assert path[-1].net.name == "sink"
        arrivals = [event.output_arrival for event in path]
        assert arrivals == sorted(arrivals)


class TestGraphTimer:
    def test_rejects_non_graph(self, library):
        with pytest.raises(ModelingError):
            GraphTimer(library=library).analyze("not a graph")

    def test_report_queries_and_formatting(self, library, diamond):
        report = GraphTimer(library=library).analyze(diamond)
        assert report.arrival("sink") == report.worst_event().output_arrival
        assert report.arrival("sink", "fall") == \
            report.events["sink"]["fall"].output_arrival
        with pytest.raises(ModelingError):
            report.event("ghost")
        with pytest.raises(ModelingError):
            report.event("root", "fall")  # the PI rises, so no fall event
        text = report.format_report()
        assert "cache hit rate" in text
        assert "critical path" in text

    def test_memoization_across_repeated_chains(self, library, line):
        # One line flavor -> the 6 chains are bit-identical.
        graph = parallel_chains(6, 3, lines=[line], input_slew=ps(100))
        solver = StageSolver()
        report = GraphTimer(library=library, solver=solver).analyze(graph)
        # 6 identical chains share one chain's worth of unique stage solves.
        assert report.stats.computed == 3
        assert report.stats.memo_hits == 15
        assert report.stats.hit_rate == pytest.approx(15 / 18)
        arrivals = {report.arrival(name) for name in graph.sinks}
        assert len(arrivals) == 1  # identical chains, identical arrivals

    def test_fanout_tree_analysis(self, library):
        graph = fanout_tree(3)
        report = GraphTimer(library=library).analyze(graph)
        assert report.n_events == len(graph) == 15
        # Every level deeper arrives strictly later.
        assert report.arrival("t") < report.arrival("t.0") < \
            report.arrival("t.0.0") < report.arrival("t.0.0.0")


class TestConstraintsAndSlack:
    def engine(self, library, shared_solver):
        return GraphEngine(library=library, solver=shared_solver)

    def test_constraint_validation(self, line, fresh_diamond):
        graph = fresh_diamond
        with pytest.raises(ModelingError):
            graph.set_clock_period(0.0)
        with pytest.raises(ModelingError):
            graph.set_required("ghost", ps(500))
        with pytest.raises(ModelingError):
            graph.set_required("sink", ps(500), transition="sideways")
        assert not graph.constrained
        graph.set_clock_period(ps(500))
        assert graph.constrained and graph.constraints_dirty

    def test_unconstrained_graph_reports_no_slack(self, library, shared_solver,
                                                  fresh_diamond):
        report = self.engine(library, shared_solver).analyze(fresh_diamond)
        assert report.worst_slack is None and report.wns is None
        assert report.slack("sink") is None
        with pytest.raises(ModelingError):
            report.worst_slack_event()

    def test_clock_period_constrains_every_endpoint(self, library,
                                                    shared_solver,
                                                    fresh_diamond):
        fresh_diamond.set_clock_period(ps(800))
        report = self.engine(library, shared_solver).analyze(fresh_diamond)
        for event in report.events["sink"].values():
            assert event.required == ps(800)
            assert event.slack == ps(800) - event.output_arrival
        # Required times propagate to the root: the tightest path wins.
        assert report.worst_slack == report.slack("sink")
        assert report.wns == 0.0  # 800 ps is comfortably met
        root = report.events["root"]["rise"]
        assert root.required is not None
        assert root.slack >= report.worst_slack - 1e-15  # 1 fs float headroom

    def test_mixed_rise_fall_required_pins(self, library, shared_solver, line):
        # The diamond's sink legitimately sees both transitions (its fanin
        # branches differ in parity); pin each far-end direction to a different
        # requirement and check they stay separate.
        graph = reconvergent_graph(line=line)
        engine = self.engine(library, shared_solver)
        base = engine.analyze(graph)
        rise_arrival = base.events["sink"]["fall"].output_arrival  # out rises
        fall_arrival = base.events["sink"]["rise"].output_arrival  # out falls
        # Make the *earlier-arriving* output edge the critical one: its pin is
        # much tighter, so worst slack must not follow worst arrival.
        early_out, late_out = ("rise", "fall") \
            if rise_arrival <= fall_arrival else ("fall", "rise")
        graph.set_required("sink", ps(220), transition=early_out)
        graph.set_required("sink", ps(900), transition=late_out)
        report = engine.analyze(graph)
        events = {event.output_transition: event
                  for event in report.events["sink"].values()}
        assert events[early_out].required == ps(220)
        assert events[late_out].required == ps(900)
        worst = report.worst_slack_event()
        assert worst.output_transition == early_out
        assert worst is not report.worst_event()  # slack-critical != arrival-critical
        # Slack traceback follows the constrained event's worst-arrival sources
        # back to the primary input, and slack never improves along the path.
        path = report.slack_path()
        assert path[0].net.name == "root" and path[0].source is None
        assert path[-1] is worst
        slacks = [event.slack for event in path]
        assert all(s is not None for s in slacks)
        assert slacks[-1] == report.worst_slack
        # Upstream slacks equal the endpoint slack along the critical chain
        # (up to float re-association: backward propagation re-brackets the
        # same sum, so mid-path values may sit one ULP off).
        assert min(slacks) == pytest.approx(report.worst_slack, rel=1e-12)

    def test_explicit_pin_overrides_clock_period(self, library, shared_solver,
                                                 fresh_diamond):
        fresh_diamond.set_clock_period(ps(800))
        fresh_diamond.set_required("sink", ps(300))  # both directions
        report = self.engine(library, shared_solver).analyze(fresh_diamond)
        for event in report.events["sink"].values():
            assert event.required == ps(300)

    def test_negative_slack_and_wns(self, library, shared_solver,
                                    fresh_diamond):
        fresh_diamond.set_required("sink", ps(100))
        report = self.engine(library, shared_solver).analyze(fresh_diamond)
        assert report.worst_slack < 0
        assert report.wns == report.worst_slack
        table = report.endpoint_events()
        assert table[0] is report.worst_slack_event()
        assert "slack" in report.format_report()

    def test_required_merges_min_over_fanout(self, library, shared_solver,
                                             line):
        # root fans out to two sinks with different pins; the root's required
        # time must be the tighter branch's requirement minus that branch's
        # stage delay (min-required mirror of the worst-arrival merge).
        nets = [
            GraphNet("root", 100.0, line, fanout=("a", "b")),
            GraphNet("a", 75.0, line, receiver_size=25.0),
            GraphNet("b", 75.0, line, receiver_size=25.0),
        ]
        graph = TimingGraph(nets, {"root": PrimaryInput(slew=ps(100))})
        graph.set_required("a", ps(400))
        graph.set_required("b", ps(300))
        report = self.engine(library, shared_solver).analyze(graph)
        root = report.events["root"]["rise"]
        a = report.events["a"]["fall"]
        b = report.events["b"]["fall"]
        assert root.required == min(ps(400) - a.solution.stage_delay,
                                    ps(300) - b.solution.stage_delay)


class TestGraphEdits:
    def chain(self, line):
        return parallel_chains(1, 3, lines=[line], input_slew=ps(100))

    def test_resize_dirties_net_and_fanin(self, line):
        graph = self.chain(line)
        graph.clear_dirty()
        graph.resize_driver("c0s1", 50.0)
        assert graph.dirty_nets == {"c0s0", "c0s1"}
        assert graph.nets["c0s1"].driver_size == 50.0

    def test_local_edits_dirty_only_their_net(self, line, fresh_diamond):
        fresh_diamond.clear_dirty()
        other = RLCLine(resistance=40.0, inductance=nH(2.0),
                        capacitance=pF(0.4), length=mm(2))
        fresh_diamond.set_line("a", other)
        fresh_diamond.set_extra_load("b", 1e-15)
        fresh_diamond.set_receiver("sink", 50.0)
        assert fresh_diamond.dirty_nets == {"a", "b", "sink"}
        fresh_diamond.clear_dirty()
        fresh_diamond.set_input("root", PrimaryInput(slew=ps(80)))
        assert fresh_diamond.dirty_nets == {"root"}

    def test_edit_validation(self, line, fresh_diamond):
        with pytest.raises(ModelingError):
            fresh_diamond.resize_driver("ghost", 50.0)
        with pytest.raises(ModelingError):
            fresh_diamond.resize_driver("a", -1.0)  # GraphNet still validates
        with pytest.raises(ModelingError):
            fresh_diamond.set_line("a", "not a line")
        with pytest.raises(ModelingError):
            fresh_diamond.set_input("a", PrimaryInput(slew=ps(100)))  # non-root
        with pytest.raises(ModelingError):
            fresh_diamond.set_receiver("sink", None)  # would float the sink

    def test_add_fanout_rejects_cycles_and_reverts(self, line):
        graph = self.chain(line)
        graph.clear_dirty()
        with pytest.raises(ModelingError, match="cycle"):
            graph.add_fanout("c0s2", "c0s1")
        # The failed edit left no trace: structure, levels and dirt unchanged.
        assert graph.nets["c0s2"].fanout == ()
        assert graph.fanin("c0s1") == ["c0s0"]
        assert graph.levels == [["c0s0"], ["c0s1"], ["c0s2"]]
        assert not graph.dirty_nets

    def test_add_fanout_rechains_structure(self, line):
        nets = [GraphNet("a", 75.0, line, receiver_size=50.0),
                GraphNet("b", 75.0, line, receiver_size=50.0)]
        graph = TimingGraph(nets, {"a": PrimaryInput(slew=ps(100)),
                                   "b": PrimaryInput(slew=ps(100))})
        with pytest.raises(ModelingError, match="primary input"):
            graph.add_fanout("a", "b")  # b is stimulated: cannot gain fanin
        nets = [GraphNet("a", 75.0, line, receiver_size=50.0),
                GraphNet("b", 75.0, line, fanout=("c",)),
                GraphNet("c", 75.0, line, receiver_size=50.0)]
        graph = TimingGraph(nets, {"a": PrimaryInput(slew=ps(100)),
                                   "b": PrimaryInput(slew=ps(100))})
        graph.clear_dirty()
        graph.add_fanout("a", "c")
        assert graph.fanin("c") == ["b", "a"]
        assert graph.dirty_nets == {"a", "c"}
        assert graph.levels == [["a", "b"], ["c"]]

    def test_fanout_cones(self, fresh_diamond):
        assert fresh_diamond.fanout_cone({"root"}) == set(fresh_diamond.nets)
        assert fresh_diamond.fanout_cone({"c"}) == {"c", "sink"}
        assert fresh_diamond.fanin_cone({"a"}) == {"a", "root"}
        assert fresh_diamond.endpoints == ["sink"]

    def test_report_keeps_its_snapshot_after_structural_edits(
            self, library, shared_solver, line):
        # A report must keep describing the state it analyzed even after the
        # (mutable) graph is edited: its sinks come from the events' snapshotted
        # nets, not from the live structure.
        nets = [GraphNet("a", 100.0, line, fanout=("b",)),
                GraphNet("b", 75.0, line, receiver_size=25.0),
                GraphNet("c", 25.0, line, receiver_size=125.0)]
        graph = TimingGraph(nets, {"a": PrimaryInput(slew=ps(100)),
                                   "c": PrimaryInput(slew=ps(100))})
        report = GraphEngine(library=library, solver=shared_solver).analyze(graph)
        worst = report.worst_event()
        assert worst.net.name == "c"  # the weak, heavily loaded driver
        graph.add_fanout("c", "b")  # c is no longer a sink of the live graph
        assert report.worst_event() is worst
        assert report.critical_path()[-1] is worst

    def test_cone_queries_validate_names(self, fresh_diamond):
        with pytest.raises(ModelingError, match="unknown net"):
            fresh_diamond.fanout_cone({"ghost"})
        with pytest.raises(ModelingError, match="unknown net"):
            fresh_diamond.fanin_cone(["sink", "ghost"])

    def test_remove_fanout_guards_orphans(self, line, fresh_diamond):
        with pytest.raises(ModelingError, match="does not drive"):
            fresh_diamond.remove_fanout("root", "sink")
        with pytest.raises(ModelingError, match="without a primary input"):
            fresh_diamond.remove_fanout("root", "a")  # a's only fanin
        fresh_diamond.clear_dirty()
        fresh_diamond.remove_fanout("c", "sink")  # sink keeps its fanin from a
        assert fresh_diamond.fanin("sink") == ["a"]
        assert fresh_diamond.dirty_nets == {"c", "sink"}
        # c became a receiver-less sink but stays analyzable.
        assert "c" in fresh_diamond.sinks
