"""The compiled (struct-of-arrays) scale tier vs the object engine.

The contract under test, layer by layer:

* ``compile_graph`` + ``GraphEngine.analyze_compiled`` produce events that are
  **exactly equal** (not just within tolerance) to the object engine's, on
  random DAGs, in every analysis mode, including merge tie-breaks, sources,
  required times and slacks — the array sweeps are a reimplementation of the
  same semantics, so nothing short of equality is acceptable;
* results are independent of net declaration order (the vectorized lexsort
  tie-break mirrors the object engine's ``max()`` over (arrival, slew, source)
  tuples);
* the level dedupe (``level_solve_keys``) gives exactly the keys, order and
  inverse map of the ``np.unique(axis=0)`` row sort it replaced;
* :class:`StreamingTimingReport` answers every report query like the eager
  report and serializes to the identical payload;
* the session routes large graphs through the compiled path by
  ``compile_threshold`` and caches the compiled twin until a structural edit
  bumps the graph version;
* warm :meth:`TimingSession.update` calls rebuild only the dirty cone's event
  records (``meta.report_events_rebuilt``), sharing the rest with the previous
  report by identity.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from test_sta_dual_mode import random_dag

from repro.api import (
    SessionConfig,
    StreamingTimingReport,
    TimingReport,
    TimingSession,
    compare_reports,
)
from repro.api.report import TimingEvent
from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import soc_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, SweepState, TimingGraph
from repro.sta.compiled import level_solve_keys
from repro.units import mm, nH, pF, ps


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


def shared_session(solver, **config) -> TimingSession:
    """A session on the shipped (process-shared) library and this module's memo."""
    session = TimingSession(SessionConfig(**config)) if config else TimingSession()
    session.solver = solver
    session._engine.solver = solver
    return session


def assert_equivalent(engine, graph, *, mode="both"):
    """Object-engine and compiled analyses of ``graph`` are exactly equal."""
    report = engine.analyze(graph, mode=mode)
    compiled = engine.compile(graph)
    analysis = engine.analyze_compiled(graph, compiled=compiled, mode=mode)
    n_events = sum(len(per_net) for per_net in report.events.values())
    assert analysis.n_events == n_events
    for name, per_net in report.events.items():
        compiled_events = analysis.events_of(name)
        assert set(per_net) == set(compiled_events)
        for transition, event in per_net.items():
            assert TimingEvent.from_net_event(event) == compiled_events[transition]
    assert ([(e.net.name, e.input_transition) for e in report.critical_path()]
            == [analysis.key_of(e) for e in analysis.critical_path_ids()])
    return analysis


def row_sort_level_solve_keys(cg, state, events, quantum):
    """Reference dedupe: ``np.unique(axis=0)`` over (config, transition, slew) rows."""
    slews = state.merged_slew[events]
    if quantum is not None:
        slews = np.maximum(np.rint(slews / quantum), 1.0) * quantum
    state.in_slew[events] = slews
    keys = np.empty((events.size, 3), dtype=np.float64)
    keys[:, 0] = cg.config_id[events >> 1]
    keys[:, 1] = events & 1
    keys[:, 2] = slews
    return np.unique(keys, axis=0, return_inverse=True)


def constrain_randomly(rng, graph):
    """A random dual-mode constraint landscape (clock, margin, pins)."""
    if rng.random() < 0.8:
        graph.set_clock_period(ps(700),
                               hold_margin=rng.choice([None, 0.0, ps(40)]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(300), ps(650)]),
                           transition=rng.choice([None, "rise", "fall"]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(30), ps(90)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode="hold")


class TestLevelSolveKeys:
    @pytest.mark.parametrize("quantum", [None, ps(5.0)], ids=["exact", "quantized"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_row_sort_reference(self, seed, quantum):
        rng = np.random.default_rng(seed)
        n_nets = int(rng.integers(1, 400))
        cg = SimpleNamespace(config_id=rng.integers(0, 7, size=n_nets))
        events = np.flatnonzero(rng.random(2 * n_nets) < 0.7)
        if not events.size:
            events = np.array([0])
        # Slews from a small pool (exact ties) mixed with unique draws.
        pool = rng.uniform(ps(20), ps(300), size=5)
        fresh = rng.uniform(ps(20), ps(300), size=2 * n_nets)
        slews = np.where(rng.random(2 * n_nets) < 0.6,
                         rng.choice(pool, size=2 * n_nets), fresh)
        states = []
        for _ in range(2):
            state = SweepState.empty(2 * n_nets)
            state.merged_slew[:] = slews
            states.append(state)
        unique, inverse = level_solve_keys(cg, states[0], events, quantum)
        expected, expected_inverse = row_sort_level_solve_keys(
            cg, states[1], events, quantum)
        assert unique.dtype == expected.dtype and unique.shape == expected.shape
        assert np.array_equal(unique, expected)
        assert np.array_equal(inverse, expected_inverse.reshape(-1))
        assert np.array_equal(states[0].in_slew, states[1].in_slew)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", [3, 14, 23])
    def test_random_dags_match_object_engine(self, engine, lines, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, lines, n_nets=rng.choice([12, 16, 20]))
        constrain_randomly(rng, graph)
        assert_equivalent(engine, graph, mode="both")

    @pytest.mark.parametrize("mode", ["setup", "hold", "both"])
    def test_every_mode_matches(self, engine, lines, mode):
        rng = random.Random(101)
        graph = random_dag(rng, lines, n_nets=14)
        constrain_randomly(rng, graph)
        assert_equivalent(engine, graph, mode=mode)

    def test_declaration_order_independence(self, engine, lines):
        """Shuffling net declaration order changes nothing (tie-break parity)."""
        rng = random.Random(53)
        graph = random_dag(rng, lines, n_nets=18)
        graph.set_clock_period(ps(700), hold_margin=0.0)
        baseline = assert_equivalent(engine, graph)
        shuffled_nets = list(graph.nets.values())
        rng.shuffle(shuffled_nets)
        shuffled = TimingGraph(shuffled_nets, dict(graph.primary_inputs))
        shuffled.set_clock_period(ps(700), hold_margin=0.0)
        analysis = assert_equivalent(engine, shuffled)
        for name in graph.nets:
            assert baseline.events_of(name) == analysis.events_of(name)

    def test_soc_graph_shape_and_equivalence(self, engine):
        graph = soc_graph(125)
        assert len(graph) == 125
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        analysis = assert_equivalent(engine, graph)
        assert analysis.worst_endpoint_slack("setup") is not None
        assert analysis.worst_endpoint_slack("hold") is not None

    def test_stale_compiled_graph_is_rejected(self, engine, lines):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        engine.analyze_compiled(graph, compiled=compiled)  # fine while fresh
        graph.resize_driver("k0c0s3", 125.0)  # structural edit bumps version
        with pytest.raises(ModelingError):
            engine.analyze_compiled(graph, compiled=compiled)

    def test_constraints_do_not_stale_the_compiled_graph(self, engine):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        graph.set_clock_period(ps(900))  # constraints are read live
        analysis = engine.analyze_compiled(graph, compiled=compiled)
        assert analysis.constrained("setup")


class TestStreamingReport:
    @pytest.fixture(scope="class")
    def reports(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        streaming = session.time(graph, name="soc")
        plain = session.time(graph, name="soc", compiled=False)
        return streaming, plain

    def test_routing_types(self, reports):
        streaming, plain = reports
        assert isinstance(streaming, StreamingTimingReport)
        assert isinstance(plain, TimingReport)
        assert not isinstance(plain, StreamingTimingReport)

    def test_queries_match_plain_report(self, reports):
        streaming, plain = reports
        assert streaming.n_events == plain.n_events
        assert streaming.constrained and streaming.hold_constrained
        assert streaming.wns == plain.wns
        assert streaming.whs == plain.whs
        assert streaming.worst_slack == plain.worst_slack
        assert streaming.worst_hold_slack == plain.worst_hold_slack
        assert streaming.event_keys() == plain.event_keys()
        assert streaming.endpoint_keys() == plain.endpoint_keys()
        assert streaming.critical_path == plain.critical_path
        assert streaming.worst_event() == plain.worst_event()
        for mode in ("setup", "hold"):
            assert (streaming.endpoint_slacks(mode=mode)
                    == plain.endpoint_slacks(mode=mode))
            assert (streaming.format_slack_table(mode=mode)
                    == plain.format_slack_table(mode=mode))
        name = plain.critical_path[-1][0]
        assert streaming.slack(name) == plain.slack(name)
        assert streaming.arrival(name) == plain.arrival(name)
        assert streaming.early_arrival(name) == plain.early_arrival(name)

    def test_serialization_matches_plain_report(self, reports):
        streaming, plain = reports
        eager, full = streaming.to_dict(), plain.to_dict()
        eager.pop("meta"), full.pop("meta")
        assert eager == full
        # A saved streaming report loads back as a plain (eager) report.
        loaded = TimingReport.from_json(streaming.to_json())
        assert loaded.event_keys() == plain.event_keys()
        assert loaded.wns == plain.wns

    def test_compile_metadata(self, reports):
        streaming, _ = reports
        assert streaming.meta.compile_seconds is not None
        assert streaming.meta.peak_rss_bytes is None or (
            streaming.meta.peak_rss_bytes > 0)

    def test_diff_streaming_vs_plain(self, reports):
        streaming, plain = reports
        diff = compare_reports(plain, streaming)
        assert not diff.regressed
        assert not diff.changed_endpoints and not diff.changed_hold_endpoints
        assert diff.added_events == diff.removed_events == 0


class TestSessionRouting:
    def test_threshold_routes_and_none_disables(self, solver):
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        session = shared_session(solver, compile_threshold=100)
        assert isinstance(session.time(graph), StreamingTimingReport)
        below = shared_session(solver, compile_threshold=1000)
        assert not isinstance(below.time(graph), StreamingTimingReport)
        disabled = shared_session(solver, compile_threshold=None)
        assert not isinstance(disabled.time(graph), StreamingTimingReport)
        # Explicit override beats the threshold in both directions.
        assert isinstance(disabled.time(graph, compiled=True),
                          StreamingTimingReport)

    def test_compiled_rejects_memoize_false(self, solver):
        session = shared_session(solver)
        graph = soc_graph(125)
        with pytest.raises(ModelingError):
            session.time(graph, compiled=True, memoize=False)

    def test_compiled_cache_tracks_graph_version(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        first = session.time(graph)
        assert first.meta.compile_seconds > 0.0  # fresh compile
        second = session.time(graph)
        assert second.meta.compile_seconds == 0.0  # cache hit
        graph.set_clock_period(ps(900))
        third = session.time(graph)  # constraint edits keep the cache warm
        assert third.meta.compile_seconds == 0.0
        assert third.worst_slack < first.worst_slack  # new constraints apply
        graph.resize_driver("k0c0s3", 125.0)
        fourth = session.time(graph)  # parameter edit patches in place
        assert fourth.meta.compile_seconds == 0.0
        assert fourth.meta.patched_nets == 2  # the net and its fanin driver
        arrivals = lambda report: {t: e.output_arrival  # noqa: E731
                                   for t, e in report.events["k0c0s4"].items()}
        assert arrivals(fourth) != arrivals(third)  # the resize took effect
        graph.add_fanout("k0c0s3", "k0e0")
        fifth = session.time(graph)  # topology edit forces a recompile
        assert fifth.meta.compile_seconds > 0.0
        assert not fifth.meta.patched_nets

    def test_config_round_trip_carries_threshold(self):
        config = SessionConfig(compile_threshold=777)
        assert SessionConfig.from_dict(config.to_dict()) == config
        assert SessionConfig.from_dict(
            SessionConfig(compile_threshold=None).to_dict()
        ).compile_threshold is None
        with pytest.raises(ModelingError):
            SessionConfig(compile_threshold=0)


class TestIncrementalReportReuse:
    def test_warm_update_rebuilds_only_the_cone(self, solver, lines):
        rng = random.Random(82)
        graph = random_dag(rng, lines, n_nets=20)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        assert first.meta.report_events_rebuilt is None  # full build
        target = sorted(graph.nets)[10]
        graph.resize_driver(target, 125.0)
        second = session.update(graph)
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None and 0 < rebuilt < second.n_events
        # Untouched nets share their event records with the previous report.
        changed = session._incremental.last_changed_nets
        changed_events = session._incremental.last_changed_events
        touched = set(changed) | {name for name, _ in changed_events}
        for name in second.events:
            if name not in touched:
                assert second.events[name] is first.events[name]
        # And the reused report is still exactly a full re-flatten.
        full = session.time(graph, name="graph", compiled=False)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload

    def test_constraint_only_update_reuses_events(self, solver, lines):
        rng = random.Random(13)
        graph = random_dag(rng, lines, n_nets=16)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        graph.set_clock_period(ps(800))
        second = session.update(graph)
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None
        full = session.time(graph, name="graph", compiled=False)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload
        assert first.meta.report_events_rebuilt is None
