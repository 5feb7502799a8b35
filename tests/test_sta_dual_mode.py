"""Dual-mode (setup + hold) analysis: two event planes over one set of solves.

The contract the min/max refactor has to honor:

* the late plane is bit-identical to what the late-only engine produced (the
  existing suites enforce that); the early plane rides along — min-arrival
  merge with the smaller-slew tie-break, mirroring the late merge,
* dual-mode analysis performs **zero additional stage solves** over late-only
  (delay/slew solves are mode-independent; only merges and the backward pass
  differ),
* hold required times propagate as the max-required mirror of the setup
  min-required pass, seeded by ``set_required(..., mode="hold")`` pins and the
  clock's ``hold_margin``, and
* for every event, early arrival <= late arrival, and hold slack is finite
  exactly when a hold constraint reaches that event (the property test below
  drives random DAGs through both checks).
"""

import random

import pytest

from repro.api import TimingReport
from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import parallel_chains, race_graph, reconvergent_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, GraphNet, PrimaryInput, TimingGraph
from repro.units import mm, nH, pF, ps

LIBRARY_SIZES = (25.0, 50.0, 75.0, 100.0, 125.0)


@pytest.fixture(scope="module")
def lines():
    """Two cheap-to-solve line flavors (short wires keep the test quick)."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


@pytest.fixture(scope="module")
def solver():
    """One memo shared by every engine in this module (results are memo-safe)."""
    return StageSolver()


@pytest.fixture(scope="module")
def engine(library, solver):
    return GraphEngine(library=library, solver=solver)


def timed(engine, graph):
    """The reference sweep, queried through the user-facing report."""
    return TimingReport.from_graph_report(engine.analyze(graph), design="graph")


def same_parity_diamond(line):
    """The minimal early/late-split workload (shared with the CLI's --case race)."""
    return race_graph(line=line)


class TestEarlyPlane:
    def test_single_path_early_equals_late(self, engine, lines):
        graph = parallel_chains(1, 3, lines=[lines[0]], input_slew=ps(100))
        report = engine.analyze(graph)
        for per_net in report.events.values():
            for event in per_net.values():
                assert event.early_input_arrival == event.input_arrival
                assert event.early_output_arrival == event.output_arrival
                assert event.early_source == event.source

    def test_reconvergence_splits_the_planes(self, engine, lines):
        graph = same_parity_diamond(lines[0])
        report = engine.analyze(graph)
        sink = report.events["sink"]
        assert set(sink) == {"rise"}  # both branches deliver the same edge
        event = sink["rise"]
        assert event.early_output_arrival < event.output_arrival
        assert event.source == ("slow", "fall")
        assert event.early_source == ("fast", "fall")
        # The early plane rides the same solution: one solve, two arrivals.
        assert (event.output_arrival - event.input_arrival
                == event.early_output_arrival - event.early_input_arrival)
        timing = TimingReport.from_graph_report(report, design="race")
        assert timing.early_arrival("sink") < timing.arrival("sink")

    def test_early_arrival_takes_the_minimum_over_events(self, engine, lines):
        # The diamond sink carries two events (rise and fall); the net-level
        # early arrival must be the best case over them, not the early value
        # of the worst-late event.
        graph = reconvergent_graph(line=lines[0])
        raw = engine.analyze(graph)
        report = TimingReport.from_graph_report(raw, design="diamond")
        events = raw.events["sink"].values()
        assert report.early_arrival("sink") == min(
            event.early_output_arrival for event in events)
        assert report.early_arrival("sink") < report.arrival("sink")
        for transition, event in raw.events["sink"].items():
            assert (report.early_arrival("sink", transition)
                    == event.early_output_arrival)
        with pytest.raises(ModelingError):
            report.early_arrival("nonexistent")

    def test_dual_mode_adds_zero_stage_solves(self, library, lines):
        """Late-only and dual-mode analyses issue identical solver traffic."""
        late_solver, dual_solver = StageSolver(), StageSolver()
        late_graph = reconvergent_graph(line=lines[0])
        late_graph.set_clock_period(ps(600))
        dual_graph = reconvergent_graph(line=lines[0])
        dual_graph.set_clock_period(ps(600), hold_margin=ps(100))
        GraphEngine(library=library, solver=late_solver).analyze(late_graph)
        GraphEngine(library=library, solver=dual_solver).analyze(dual_graph)
        assert dual_solver.stats.computed == late_solver.stats.computed
        assert dual_solver.stats.requests == late_solver.stats.requests


class TestHoldConstraints:
    def test_constraint_validation(self, lines):
        graph = same_parity_diamond(lines[0])
        with pytest.raises(ModelingError):
            graph.set_clock_period(ps(500), hold_margin=-ps(1))
        with pytest.raises(ModelingError):
            graph.set_required("sink", ps(100), mode="race")
        with pytest.raises(ModelingError):
            graph.required_for("sink", "rise", mode="race")

    def test_hold_margin_constrains_every_endpoint(self, engine, lines):
        graph = parallel_chains(2, 2, lines=[lines[0]], input_slew=ps(100))
        graph.set_clock_period(ps(800), hold_margin=ps(60))
        report = timed(engine, graph)
        for name in ("c0s1", "c1s1"):
            event = report.event(name)
            assert event.hold_required == ps(60)
            assert event.hold_slack == event.early_arrival - ps(60)
            assert event.required == ps(800)  # setup still in force
        # Mid-chain hold requirements propagate backward through stage delays.
        head = report.event("c0s0")
        tail = report.event("c0s1")
        assert head.hold_required == ps(60) - tail.stage_delay

    def test_hold_pin_and_violation(self, engine, lines):
        graph = same_parity_diamond(lines[0])
        # Pin an aggressive minimum on the sink: the fast branch violates it.
        graph.set_required("sink", ps(400), mode="hold")
        report = timed(engine, graph)
        event = report.events["sink"]["rise"]
        assert event.hold_required == ps(400)
        assert event.hold_slack == event.early_arrival - ps(400)
        assert event.hold_slack < 0
        assert report.worst_hold_slack == event.hold_slack
        assert report.whs == event.hold_slack
        assert report.wns is None  # no setup constraint in force
        # The worst hold path follows the early plane through the fast branch.
        assert report.worst_slack_event(mode="hold") is event
        fast = report.event(*event.early_source)
        assert fast.net == "fast"
        assert fast.early_source == ("root", "rise")
        assert report.event("root").early_source is None

    def test_clock_replaces_hold_margin(self, engine, lines):
        graph = parallel_chains(1, 2, lines=[lines[0]], input_slew=ps(100))
        graph.set_clock_period(ps(800), hold_margin=ps(60))
        assert graph.hold_margin == ps(60)
        assert graph.hold_constrained
        graph.set_clock_period(ps(800))  # margin not repeated: check removed
        assert graph.hold_margin is None
        assert not graph.hold_constrained
        report = timed(engine, graph)
        assert report.event("c0s1").hold_required is None
        assert report.whs is None

    def test_hold_slack_queries(self, engine, lines):
        graph = same_parity_diamond(lines[0])
        graph.set_clock_period(ps(600), hold_margin=ps(50))
        report = timed(engine, graph)
        assert report.slack("sink", mode="hold") == \
            report.events["sink"]["rise"].hold_slack
        assert report.event("sink").hold_required == ps(50)
        worst = report.worst_slack_event(mode="hold")
        assert worst.net == "sink"
        ordered = report.endpoint_slacks(mode="hold")
        slacks = [e.hold_slack for e in ordered if e.hold_slack is not None]
        assert slacks == sorted(slacks)

    def test_unconstrained_hold_queries_raise_or_none(self, engine, lines):
        graph = same_parity_diamond(lines[0])
        report = timed(engine, graph)
        assert report.slack("sink", mode="hold") is None
        assert report.worst_hold_slack is None
        with pytest.raises(ModelingError):
            report.worst_slack_event(mode="hold")


def random_dag(rng, lines, *, n_nets, n_roots=2):
    """A random layered DAG over the shipped library sizes.

    Net ``i`` (past the roots) draws 1-2 fanins from earlier nets, so the
    graph is acyclic by construction; a random subset of nets carries a
    terminal receiver (making some of them endpoints even with fanout).
    """
    specs = []  # (driver_size, line, fanout:list, receiver)
    for i in range(n_nets):
        receiver = rng.choice([None, None, 25.0, 50.0])
        specs.append([rng.choice(LIBRARY_SIZES), rng.choice(lines), [],
                      receiver])
        if i >= n_roots:
            for fanin in rng.sample(range(i), k=min(i, rng.choice([1, 2]))):
                specs[fanin][2].append(f"n{i}")
    nets = []
    for i, (size, line, fanout, receiver) in enumerate(specs):
        if receiver is None and not fanout:
            receiver = 25.0  # keep sinks terminated (and endpoints)
        nets.append(GraphNet(f"n{i}", size, line, fanout=tuple(fanout),
                             receiver_size=receiver))
    inputs = {net.name: PrimaryInput(
        slew=rng.choice([ps(60), ps(100), ps(140)]),
        transition=rng.choice(["rise", "fall"]))
        for net in nets if not any(net.name in s[2] for s in specs)}
    return TimingGraph(nets, inputs)


def expected_hold_reach(graph, report):
    """(net, input transition) -> whether a hold constraint reaches the event.

    Independent boolean fixpoint over the event DAG: an event is hold-
    constrained when its own far-end edge carries a hold seed, or when any
    fanout consumer of its propagated edge is.  No arithmetic — this checks
    reachability only, which is exactly what "hold slack is finite" claims.
    """
    reach = {}
    for level in reversed(report.levels):
        for name in level:
            for transition, event in report.events.get(name, {}).items():
                out = event.output_transition
                finite = graph.required_for(name, out, mode="hold") is not None
                for target in event.net.fanout:
                    if (target, out) in reach and reach[(target, out)]:
                        finite = True
                reach[(name, transition)] = finite
    return reach


class TestDualModeProperty:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_early_le_late_and_hold_reachability(self, library, solver, lines,
                                                 seed):
        rng = random.Random(seed)
        graph = random_dag(rng, lines, n_nets=rng.choice([7, 9, 11]))
        # Random hold landscape: maybe a margin, plus a few explicit pins.
        if rng.random() < 0.7:
            graph.set_clock_period(ps(700),
                                   hold_margin=rng.choice([0.0, ps(40)]))
        for name in rng.sample(sorted(graph.nets), k=2):
            graph.set_required(name, rng.choice([ps(30), ps(90)]),
                               transition=rng.choice([None, "rise", "fall"]),
                               mode="hold")
        report = GraphEngine(library=library, solver=solver).analyze(graph)
        assert report.n_events > 0
        reach = expected_hold_reach(graph, report)
        for name, per_net in report.events.items():
            for transition, event in per_net.items():
                # Early plane never overtakes the late plane...
                assert event.early_output_arrival <= event.output_arrival
                assert event.early_input_arrival <= event.input_arrival
                # ...and hold slack is finite exactly when a hold constraint
                # reaches this event through the fanout DAG.
                assert ((event.hold_slack is not None)
                        == reach[(name, transition)])
                assert ((event.hold_required is None)
                        == (event.hold_slack is None))
