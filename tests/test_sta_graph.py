"""Timing-graph subsystem: structure validation, levelization, batch analysis."""


import copy
import dataclasses
import gc
import math
import pickle
import random
import sys

import pytest

from golden_cases import golden_designs, random_lines
from repro.api import TimingReport
from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import (fanout_tree, parallel_chains, reconvergent_graph,
                               soc_graph)
from repro.interconnect import RLCLine
from repro.sta import (GraphEngine, GraphNet, PrimaryInput, TimingGraph,
                       TimingPath, TimingStage, chain_graph, flip_transition)
from repro.units import mm, nH, pF, ps
from test_sta_dual_mode import random_dag


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
        with pytest.raises(ModelingError, match="^net 'n' lists a fanout twice$"):
            GraphNet("n", 75.0, line, fanout=("x", "y", "x"))
        assert GraphNet("n", 75.0, line, extra_load=-0.0).extra_load == 0.0
        net = GraphNet("n", 75.0, line, fanout=["x", "y"])  # normalized
        assert type(net.fanout) is tuple and net.fanout == ("x", "y")
        assert GraphNet("n", 75.0, line, fanout=iter(["x"])).fanout == ("x",)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_net_rejects_non_finite_numbers(self, line, bad):
        # NaN passes `< 0` / `<= 0` checks; it used to surface only deep in
        # the stage solver.
        for fields in ({"driver_size": bad}, {"receiver_size": bad},
                       {"extra_load": bad}):
            with pytest.raises(ModelingError, match="finite"):
                GraphNet("n", **{"driver_size": 75.0, "line": line, **fields})
        graph = TimingGraph([GraphNet("n", 75.0, line, receiver_size=25.0)],
                            {"n": PrimaryInput(slew=ps(80))})
        version = graph.version
        for edit in (lambda: graph.set_extra_load("n", bad),
                     lambda: graph.resize_driver("n", bad),
                     lambda: graph.set_receiver("n", bad)):
            with pytest.raises(ModelingError, match="finite"):
                edit()
        assert graph.version == version
        assert graph.nets["n"] == GraphNet("n", 75.0, line, receiver_size=25.0)
        # Stimulus and constraint values: unchecked, a NaN hold margin drops
        # every hold check silently and a NaN slew fails inside the solver.
        for stimulus in ({"slew": bad}, {"slew": ps(80), "arrival": bad}):
            with pytest.raises(ModelingError, match="finite"):
                PrimaryInput(**stimulus)
        with pytest.raises(ModelingError, match="finite"):
            TimingGraph([GraphNet("n", 75.0, line, receiver_size=25.0)],
                        {"n": PrimaryInput(slew=ps(80))}, clock_period=bad)
        for constrain in (
                lambda: graph.set_clock_period(bad),
                lambda: graph.set_clock_period(ps(1500), hold_margin=bad),
                lambda: graph.set_required("n", bad),
                lambda: graph.set_required("n", bad, mode="hold")):
            with pytest.raises(ModelingError, match="finite"):
                constrain()
        assert not graph.constrained and not graph.constraints_dirty

    def test_graph_validation(self, line):
        # Each message names the first offender in net (or input) order.
        pi = PrimaryInput(slew=ps(100))

        def net(name, *fanout):
            return GraphNet(name, 75.0, line, fanout=fanout, receiver_size=25.0)

        for nets, inputs, message in [
            ([], {}, "a timing graph needs at least one net"),
            ([net("a", "b"), net("b"), net("c"), net("b"), net("a")],
             {"a": pi, "c": pi}, "duplicate net name 'b'"),
            ([net("a", "b", "ghost2"), net("b", "ghost1")], {"a": pi},
             "net 'a' drives unknown net 'ghost2'"),
            ([net("a", "b"), net("b", "b"), net("c", "c")], {"a": pi},
             "net 'b' drives itself"),
            ([net("a", "a"), net("b", "ghost")], {"a": pi},
             "net 'a' drives itself"),
            ([net("a")], {"a": pi, "ghost": pi},
             "primary input attached to unknown net 'ghost'"),
            ([net("a", "b"), net("b", "c"), net("c")],
             {"a": pi, "b": pi, "c": pi},
             "primary input attached to non-root net 'b'"),
            ([net("c"), net("a"), net("b")], {"a": pi},
             "root nets without a primary input: ['b', 'c']"),
            ([net("a", "b"), net("b", "c"), net("c", "b", "d"), net("d")],
             {"a": pi}, "timing graph contains a cycle through ['b', 'c', 'd']"),
            ([net("a", "b"), net("b", "a")], {},
             "timing graph contains a cycle through ['a', 'b']"),
        ]:
            with pytest.raises(ModelingError) as caught:
                TimingGraph(nets, inputs)
            assert str(caught.value) == message

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
        # to the stage's own receiver load.
        path = TimingPath("p", [
            TimingStage("s1", driver_size=75, line=line, receiver_size=100),
            TimingStage("s2", driver_size=100, line=line, receiver_size=50),
        ], input_slew=ps(100))
        engine = GraphEngine(library=library, tech=tech)
        graph, names = chain_graph(path)
        for stage, name in zip(path.stage_list, names):
            stage_load = (stage.extra_load
                          + tech.inverter_input_capacitance(stage.receiver_size))
            assert engine.net_load(graph, graph.nets[name]) == stage_load

    def test_fanout_load_sums_every_receiver(self, line, library, tech):
        nets = [GraphNet("n", 75.0, line, fanout=("x", "y"), receiver_size=25.0,
                         extra_load=2e-15),
                GraphNet("x", 100.0, line), GraphNet("y", 50.0, line)]
        graph = TimingGraph(nets, {"n": PrimaryInput(slew=ps(100))})
        timer = GraphEngine(library=library, tech=tech)
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
        report = GraphEngine(library=library).analyze(graph)
        sink_events = report.events["sink"]
        assert set(sink_events) == {"fall"}  # equal parity: one transition
        event = sink_events["fall"]
        slow = report.events["slow_b"]["rise"]
        mid = report.events["mid"]["rise"]
        assert event.input_arrival == max(slow.output_arrival, mid.output_arrival)
        winner = "slow_b" if slow.output_arrival > mid.output_arrival else "mid"
        assert event.source == (winner, "rise")

    def test_reconvergent_graph_times_both_transitions(self, library):
        graph = reconvergent_graph()
        report = GraphEngine(library=library).analyze(graph)
        sink = report.events["sink"]
        assert set(sink) == {"rise", "fall"}
        assert report.n_events == len(graph) + 1
        # Traceback from the worst sink event reaches the primary input.
        path = report.critical_events()
        assert path[0].net == "root"
        assert path[0].source is None
        assert path[-1].net == "sink"
        arrivals = [event.output_arrival for event in path]
        assert arrivals == sorted(arrivals)


class TestGraphTimer:
    """The object reference sweep, GraphEngine.analyze."""

    def test_rejects_non_graph(self, library):
        with pytest.raises(ModelingError):
            GraphEngine(library=library).analyze("not a graph")

    def test_report_queries_and_formatting(self, library, diamond):
        raw = GraphEngine(library=library).analyze(diamond)
        report = TimingReport.from_graph_report(raw, design="diamond")
        assert report.arrival("sink") == raw.worst_event().output_arrival
        assert report.arrival("sink", "fall") == \
            raw.events["sink"]["fall"].output_arrival
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
        report = GraphEngine(library=library, solver=solver).analyze(graph)
        # 6 identical chains share one chain's worth of unique stage solves.
        assert report.meta.computed == 3
        assert report.meta.memo_hits == 15
        assert report.meta.hit_rate == pytest.approx(15 / 18)
        timing = TimingReport.from_graph_report(report, design="chains")
        arrivals = {timing.arrival(name) for name in graph.sinks}
        assert len(arrivals) == 1  # identical chains, identical arrivals

    def test_fanout_tree_analysis(self, library):
        graph = fanout_tree(3)
        report = TimingReport.from_graph_report(
            GraphEngine(library=library).analyze(graph), design="tree")
        assert report.n_events == len(graph) == 15
        # Every level deeper arrives strictly later.
        assert report.arrival("t") < report.arrival("t.0") < \
            report.arrival("t.0.0") < report.arrival("t.0.0.0")


class TestConstraintsAndSlack:
    """Slack of the reference sweep, queried through the user-facing report."""

    def timed(self, library, shared_solver, graph):
        raw = GraphEngine(library=library, solver=shared_solver).analyze(graph)
        return TimingReport.from_graph_report(raw, design="graph")

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
        report = self.timed(library, shared_solver, fresh_diamond)
        assert report.worst_slack is None and report.wns is None
        assert report.slack("sink") is None
        with pytest.raises(ModelingError):
            report.worst_slack_event()

    def test_clock_period_constrains_every_endpoint(self, library,
                                                    shared_solver,
                                                    fresh_diamond):
        fresh_diamond.set_clock_period(ps(800))
        report = self.timed(library, shared_solver, fresh_diamond)
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
        base = self.timed(library, shared_solver, graph)
        rise_arrival = base.events["sink"]["fall"].output_arrival  # out rises
        fall_arrival = base.events["sink"]["rise"].output_arrival  # out falls
        # Make the *earlier-arriving* output edge the critical one: its pin is
        # much tighter, so worst slack must not follow worst arrival.
        early_out, late_out = ("rise", "fall") \
            if rise_arrival <= fall_arrival else ("fall", "rise")
        graph.set_required("sink", ps(220), transition=early_out)
        graph.set_required("sink", ps(900), transition=late_out)
        report = self.timed(library, shared_solver, graph)
        events = {event.output_transition: event
                  for event in report.events["sink"].values()}
        assert events[early_out].required == ps(220)
        assert events[late_out].required == ps(900)
        worst = report.worst_slack_event()
        assert worst.output_transition == early_out
        assert worst is not report.worst_event()  # slack-critical != arrival-critical
        assert worst.slack == report.worst_slack
        # Upstream of the constrained event, its winning fanin and the primary
        # input carry the endpoint slack (up to float re-association: backward
        # propagation re-brackets the same sum, so values may sit one ULP off).
        upstream = report.event(*worst.source)
        assert upstream.slack == pytest.approx(report.worst_slack, rel=1e-12)
        root = report.event("root", "rise")
        assert root.source is None
        assert root.slack == pytest.approx(report.worst_slack, rel=1e-12)

    def test_explicit_pin_overrides_clock_period(self, library, shared_solver,
                                                 fresh_diamond):
        fresh_diamond.set_clock_period(ps(800))
        fresh_diamond.set_required("sink", ps(300))  # both directions
        report = self.timed(library, shared_solver, fresh_diamond)
        for event in report.events["sink"].values():
            assert event.required == ps(300)

    def test_negative_slack_and_wns(self, library, shared_solver,
                                    fresh_diamond):
        fresh_diamond.set_required("sink", ps(100))
        report = self.timed(library, shared_solver, fresh_diamond)
        assert report.worst_slack < 0
        assert report.wns == report.worst_slack
        table = report.endpoint_slacks()
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
        report = self.timed(library, shared_solver, graph)
        root = report.events["root"]["rise"]
        a = report.events["a"]["fall"]
        b = report.events["b"]["fall"]
        assert root.required == min(ps(400) - a.stage_delay,
                                    ps(300) - b.stage_delay)


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
        # The failed edit left no trace: structure, levels, dirt and the
        # version a compiled snapshot is checked against unchanged.
        assert graph.version == 0 and graph.topology_version == 0
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

    def test_diamond_has_one_endpoint(self, fresh_diamond):
        assert fresh_diamond.endpoints == ["sink"]

    def test_report_keeps_its_snapshot_after_structural_edits(
            self, library, shared_solver, line):
        # A report must keep describing the state it analyzed even after the
        # (mutable) graph is edited: its records and critical path were built
        # from the structure as it was, not from the live graph.
        nets = [GraphNet("a", 100.0, line, fanout=("b",)),
                GraphNet("b", 75.0, line, receiver_size=25.0),
                GraphNet("c", 25.0, line, receiver_size=125.0)]
        graph = TimingGraph(nets, {"a": PrimaryInput(slew=ps(100)),
                                   "c": PrimaryInput(slew=ps(100))})
        report = GraphEngine(library=library, solver=shared_solver).analyze(graph)
        worst = report.worst_event()
        assert worst.net == "c"  # the weak, heavily loaded driver
        assert worst.endpoint
        before = report.to_dict()
        graph.add_fanout("c", "b")  # c is no longer a sink of the live graph
        assert report.worst_event() is worst
        assert report.critical_events()[-1] is worst
        assert report.to_dict() == before

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


# --- structure against a plain reference ---------------------------------------------
def reference_fanin(nets):
    """Fan-in lists of ``nets`` (name -> GraphNet), sources in net order: a
    plain list-based reference for ``TimingGraph.fanin``."""
    fanin = {name: [] for name in nets}
    for net in nets.values():
        for target in net.fanout:
            fanin[target].append(net.name)
    return fanin


def reference_levels(nets, fanin):
    """Kahn levelization over ``nets`` and ``fanin`` (name -> list of names),
    each level sorted: a plain reference for ``TimingGraph.levels``."""
    remaining = {name: len(sources) for name, sources in fanin.items()}
    current = sorted(name for name, count in remaining.items() if count == 0)
    levels = []
    while current:
        levels.append(current)
        ready = []
        for name in current:
            for target in nets[name].fanout:
                remaining[target] -= 1
                if remaining[target] == 0:
                    ready.append(target)
        current = sorted(ready)
    return levels


def assert_structure(graph, fanin):
    assert {name: graph.fanin(name) for name in graph.nets} == fanin
    assert all(type(graph.fanin(name)) is list for name in graph.nets)
    assert graph.levels == reference_levels(graph.nets, fanin)


class TestStructureReference:
    def test_structure_matches_reference_on_soc(self):
        graph = soc_graph(10_000)
        assert_structure(graph, reference_fanin(graph.nets))

    def test_structure_matches_reference_on_golden_dags(self):
        checked = []
        for key, design in golden_designs():
            graph = design()
            if isinstance(graph, TimingGraph):
                assert_structure(graph, reference_fanin(graph.nets))
                checked.append(key)
        assert sum(key.startswith("random") for key in checked) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_structure_matches_reference_after_edits(self, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, random_lines(), n_nets=rng.choice([12, 20]))
        fanin = reference_fanin(graph.nets)
        names = sorted(graph.nets)
        applied = 0
        for _ in range(40):
            driver, sink = rng.sample(names, 2)
            edges = [(d, s) for d in names for s in graph.nets[d].fanout]
            remove = bool(edges) and rng.random() < 0.4
            if remove:
                driver, sink = rng.choice(edges)
            try:
                if remove:
                    graph.remove_fanout(driver, sink)
                    fanin[sink].remove(driver)
                else:
                    graph.add_fanout(driver, sink)
                    fanin[sink].append(driver)
                applied += 1
            except ModelingError:
                pass
            assert_structure(graph, fanin)
        assert applied > 0


class TestSlottedNet:
    def net(self, line):
        return GraphNet("a", 75.0, line, fanout=("b", "c"), receiver_size=25.0,
                        extra_load=1e-15)

    def test_round_trips(self, line):
        net = self.net(line)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(net, protocol=protocol))
            assert clone == net and hash(clone) == hash(net)
        clone = copy.deepcopy(net)
        assert clone == net and clone is not net and hash(clone) == hash(net)
        assert copy.copy(net) == net

    def test_replace_validates_and_keeps_the_rest(self, line):
        net = self.net(line)
        resized = dataclasses.replace(net, driver_size=50.0)
        assert resized.driver_size == 50.0 and net.driver_size == 75.0
        assert resized == GraphNet("a", 50.0, line, fanout=("b", "c"),
                                   receiver_size=25.0, extra_load=1e-15)
        assert resized != net
        with pytest.raises(ModelingError, match="driver size"):
            dataclasses.replace(net, driver_size=-1.0)
        with pytest.raises(ModelingError, match="fanout twice"):
            dataclasses.replace(net, fanout=("b", "b"))

    def test_frozen_and_hashable(self, line):
        net = self.net(line)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.driver_size = 50.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del net.name
        assert len({net, self.net(line)}) == 1

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="dataclass slots need Python 3.10+")
    def test_no_instance_dict(self, line):
        net = self.net(line)
        assert not hasattr(net, "__dict__")
        assert set(GraphNet.__slots__) == {
            field.name for field in dataclasses.fields(GraphNet)}


#: GC-tracked objects a built design may hold per net: the net itself, plus a
#: little for the containers that index it.  Fan-ins are tuples of names,
#: which the collector untracks; a list per net would make this ~2.
TRACKED_PER_NET_CEILING = 1.25


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="dataclass slots need Python 3.10+")
def test_build_keeps_gc_tracked_objects_per_net_bounded():
    soc_graph(125)  # any lazily built module state exists before counting
    gc.collect()
    before = len(gc.get_objects())
    graph = soc_graph(10_000)
    gc.collect()
    per_net = (len(gc.get_objects()) - before) / len(graph)
    assert 0 < per_net <= TRACKED_PER_NET_CEILING


class TestRejectedEdits:
    """A rejected edit leaves the design exactly as it was."""

    def snapshot(self, graph):
        return (graph.version, graph.topology_version, graph.levels,
                {name: graph.fanin(name) for name in graph.nets},
                graph.dirty_nets, graph.constraints_dirty, dict(graph.nets),
                dict(graph.primary_inputs), graph.param_edits_since(-1),
                graph.required_pins("setup"), graph.required_pins("hold"),
                graph.clock_period, graph.hold_margin)

    def test_every_rejected_verb_is_a_no_op(self, line):
        graph = reconvergent_graph(line=line)
        graph.resize_driver("short", 100.0)  # a live edit: version, dirt
        graph.add_fanout("short", "long_b")
        assert graph.version == 2 and graph.topology_version == 1
        rejected = [
            lambda: graph.resize_driver("ghost", 50.0),
            lambda: graph.resize_driver("short", -1.0),
            lambda: graph.resize_driver("short", math.nan),
            lambda: graph.set_line("ghost", line),
            lambda: graph.set_line("short", "not a line"),
            lambda: graph.set_extra_load("ghost", 0.0),
            lambda: graph.set_extra_load("short", -1e-15),
            lambda: graph.set_receiver("ghost", 25.0),
            lambda: graph.set_receiver("sink", None),
            lambda: graph.set_receiver("sink", 0.0),
            lambda: graph.set_input("short", PrimaryInput(slew=ps(80))),
            lambda: graph.set_input("root", "not a stimulus"),
            lambda: graph.add_fanout("ghost", "sink"),
            lambda: graph.add_fanout("root", "ghost"),
            lambda: graph.add_fanout("short", "short"),
            lambda: graph.add_fanout("root", "short"),
            lambda: graph.add_fanout("sink", "root"),
            lambda: graph.add_fanout("long_b", "long_a"),
            lambda: graph.add_fanout("sink", "short"),
            lambda: graph.remove_fanout("ghost", "sink"),
            lambda: graph.remove_fanout("root", "sink"),
            lambda: graph.remove_fanout("root", "long_a"),
        ]
        for edit in rejected:
            before = self.snapshot(graph)
            with pytest.raises(ModelingError):
                edit()
            assert self.snapshot(graph) == before


class _Abort(Exception):
    """Raised inside a transaction to make it roll back."""


def _other_line():
    return RLCLine(resistance=45.0, inductance=nH(2.0), capacitance=pF(0.4),
                   length=mm(2))


#: One successful call of every mutator (and a re-time's dirty-set ack),
#: each against ``TestTransaction.edited_graph``.
SUCCESSFUL_EDITS = {
    "resize_driver": lambda g: g.resize_driver("long_a", 125.0),
    "set_line": lambda g: g.set_line("short", _other_line()),
    "set_extra_load": lambda g: g.set_extra_load("long_b", 1e-14),
    "set_receiver": lambda g: g.set_receiver("sink", 50.0),
    "set_receiver_new": lambda g: g.set_receiver("long_a", 25.0),
    "set_input": lambda g: g.set_input(
        "root", PrimaryInput(slew=ps(80), transition="fall", arrival=ps(5))),
    "add_fanout": lambda g: g.add_fanout("short", "long_b"),
    "remove_fanout": lambda g: g.remove_fanout("short", "sink"),
    "set_required": lambda g: g.set_required("sink", ps(40), mode="hold",
                                             transition="rise"),
    "set_required_remove": lambda g: g.set_required("long_b", None),
    "set_clock_period": lambda g: g.set_clock_period(ps(700),
                                                     hold_margin=ps(10)),
    "set_clock_period_none": lambda g: g.set_clock_period(None),
    "edit_then_clear_dirty": lambda g: (g.resize_driver("sink", 75.0),
                                        g.clear_dirty(),
                                        g.set_extra_load("short", 2e-14)),
}


class TestTransaction:
    """``graph.transaction()`` undoes every successful edit of a failed block."""

    snapshot = TestRejectedEdits.snapshot

    @staticmethod
    def edited_graph(line):
        """A graph with pins, a clock, old dirt and fresh dirt to restore."""
        graph = reconvergent_graph(line=line)
        graph.resize_driver("short", 100.0)
        graph.set_required("long_b", ps(300))
        graph.set_clock_period(ps(900), hold_margin=ps(5))
        graph.clear_dirty()
        graph.resize_driver("long_a", 100.0)
        return graph

    @pytest.mark.parametrize("edit", sorted(SUCCESSFUL_EDITS))
    def test_raising_transaction_restores_the_graph(self, line, edit):
        graph = self.edited_graph(line)
        before = self.snapshot(graph)
        with pytest.raises(_Abort):
            with graph.transaction():
                SUCCESSFUL_EDITS[edit](graph)
                assert self.snapshot(graph) != before
                raise _Abort
        assert self.snapshot(graph) == before
        # The restored graph still edits and times like the original.
        SUCCESSFUL_EDITS[edit](graph)
        twin = self.edited_graph(line)
        SUCCESSFUL_EDITS[edit](twin)
        assert self.snapshot(graph) == self.snapshot(twin)

    def test_rejected_add_fanout_inside_an_open_transaction(self, line):
        graph = self.edited_graph(line)
        before = self.snapshot(graph)
        with pytest.raises(_Abort):
            with graph.transaction():
                graph.resize_driver("long_b", 125.0)
                graph.set_clock_period(ps(800))
                inside = self.snapshot(graph)
                with pytest.raises(ModelingError, match="cycle"):
                    graph.add_fanout("sink", "short")
                # The inner rollback undoes the edge only, not the outer edits.
                assert self.snapshot(graph) == inside
                raise _Abort
        assert self.snapshot(graph) == before

    def test_committed_blocks_keep_their_edits_until_an_outer_rollback(self, line):
        graph = self.edited_graph(line)
        before = self.snapshot(graph)
        with pytest.raises(_Abort):
            with graph.transaction():
                with graph.transaction():
                    graph.add_fanout("short", "long_b")
                    graph.set_required("sink", ps(200))
                assert graph.nets["short"].fanout == ("sink", "long_b")
                raise _Abort
        assert self.snapshot(graph) == before
        with graph.transaction():
            graph.resize_driver("sink", 25.0)
        assert graph.nets["sink"].driver_size == 25.0
        assert graph.version == before[0] + 1
        assert "sink" in graph.dirty_nets

    def test_rollback_callbacks_run_once_and_only_on_rollback(self, line):
        graph = self.edited_graph(line)
        calls = []
        graph.on_rollback(calls.append)  # outside a transaction: ignored
        with graph.transaction():
            graph.on_rollback(calls.append)
        assert calls == []
        with pytest.raises(_Abort):
            with graph.transaction():
                with graph.transaction():
                    graph.on_rollback(calls.append)
                    graph.on_rollback(calls.append)
                raise _Abort
        assert calls == [graph]
