"""CompiledIncrementalEngine: dirty-cone sweeps on the CSR tier, bit for bit.

The acceptance property, mirroring ``test_sta_incremental`` one tier up: after
*any* interleaving of parametric, constraint and structural edits, a compiled
incremental update must equal — exactly, in every plane — both

* a from-scratch compiled sweep of the same graph state (same engine, same
  memoized solver: identical fingerprints answer with identical solutions, so
  nothing short of bitwise equality is acceptable), and
* the object ``IncrementalEngine`` oracle driven through the same edits.

Alongside the property, this file pins the in-place patching contract
(:meth:`CompiledGraph.patch` equals a fresh compile; topology drift is
rejected), the session-cache fixes of this PR (constraint-only edit batches
never recompile; the single-slot compiled cache holds its graph weakly), the
and the streaming report's cone-bounded record reuse.
"""

import gc
import random
import weakref

import numpy as np
import pytest
from test_sta_compiled import shared_session
from test_sta_dual_mode import random_dag
from test_sta_incremental import random_edit

from repro.api import SessionConfig, StreamingTimingReport, TimingSession
from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import soc_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, IncrementalEngine
from repro.sta.incremental_compiled import CompiledIncrementalEngine
from repro.units import fF, mm, nH, pF, ps


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


#: Every per-event plane except ``sol_idx``, which indexes the producing
#: engine's append-only solution list and is compared by content instead.
PLANES = ("exists", "in_arr", "early_in", "merged_slew", "in_slew",
          "src", "early_src", "out_arr", "early_out", "delay", "prop_slew")


def assert_analyses_identical(incremental, full):
    """Two compiled analyses of the same graph state are exactly equal."""
    for name in PLANES:
        ours, theirs = getattr(incremental.state, name), getattr(full.state, name)
        assert np.array_equal(ours, theirs), f"plane {name} diverged"
    for event in np.flatnonzero(incremental.state.exists).tolist():
        ours = incremental.solutions[incremental.state.sol_idx[event]]
        theirs = full.solutions[full.state.sol_idx[event]]
        assert ours.fingerprint == theirs.fingerprint
    assert np.array_equal(incremental.required, full.required, equal_nan=True)
    assert np.array_equal(incremental.hold_required, full.hold_required,
                          equal_nan=True)


def assert_matches_object_oracle(analysis, report, mode):
    """Compiled events equal the object engine's, per the enabled polarities."""
    with_events = set(analysis.net_names_with_events())
    assert with_events == set(report.events)
    for name, per_net in report.events.items():
        ours = analysis.events_of(name)
        assert set(ours) == set(per_net)
        for transition, event in per_net.items():
            mine = ours[transition]
            assert mine.input_arrival == event.input_arrival
            assert mine.input_slew == event.input_slew
            assert mine.output_arrival == event.output_arrival
            assert mine.source == event.source
            assert mine.early_arrival == event.early_output_arrival
            assert mine.early_source == event.early_source
            assert mine.fingerprint == event.solution.fingerprint
            if mode in ("setup", "both"):
                assert mine.required == event.required
            if mode in ("hold", "both"):
                assert mine.hold_required == event.hold_required


def refresh_snapshot(engine, graph, cg):
    """The session's patch-vs-recompile decision, inlined for direct drives."""
    if cg is None or cg.topology_version != graph.topology_version:
        return engine.compile(graph)
    if cg.version != graph.version:
        cg.patch(graph, library=engine.library, tech=engine.tech)
    return cg


class TestPatch:
    def test_patch_matches_fresh_compile(self, library, solver, lines):
        rng = random.Random(5)
        graph = random_dag(rng, lines, n_nets=18)
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        names = sorted(graph.nets)
        graph.resize_driver(names[4], 50.0)
        graph.set_extra_load(names[9], fF(5))
        graph.set_receiver(names[12], 75.0)
        graph.set_line(names[2], lines[1])
        edited = graph.param_edits_since(cg.version)
        patched = cg.patch(graph, library=engine.library, tech=engine.tech)
        assert patched == len(edited) >= 4  # the four plus fanin load ripples
        assert cg.version == graph.version
        fresh = engine.compile(graph)
        assert np.array_equal(cg.load, fresh.load)
        assert np.array_equal(cg.is_endpoint, fresh.is_endpoint)
        for net_id in range(cg.n_nets):
            ours, theirs = cg.config_id[net_id], fresh.config_id[net_id]
            assert (cg.config_cell[ours].driver_size
                    == fresh.config_cell[theirs].driver_size)
            assert (cg.config_line[ours].fingerprint()
                    == fresh.config_line[theirs].fingerprint())
            assert cg.config_load[ours] == fresh.config_load[theirs]

    def test_patch_is_idempotent_and_counts_zero_when_clean(
            self, library, solver, lines):
        graph = random_dag(random.Random(6), lines, n_nets=12)
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        assert cg.patch(graph, library=engine.library, tech=engine.tech) == 0
        graph.set_clock_period(ps(700))  # constraint edits are not parametric
        assert cg.patch(graph, library=engine.library, tech=engine.tech) == 0
        assert cg.version == graph.version

    def test_patch_rejects_topology_drift(self, library, solver, lines):
        graph = random_dag(random.Random(7), lines, n_nets=12)
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        names = sorted(graph.nets)
        for driver in names:
            sinks = [s for s in names
                     if s not in graph.nets[driver].fanout and s != driver]
            connected = False
            for sink in sinks:
                try:
                    graph.add_fanout(driver, sink)
                    connected = True
                    break
                except ModelingError:
                    continue
            if connected:
                break
        assert connected, "could not build a topology edit on this DAG"
        with pytest.raises(ModelingError):
            cg.patch(graph, library=engine.library, tech=engine.tech)


class TestSessionCache:
    def test_constraint_only_batches_never_recompile(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        first = session.time(graph)
        assert first.meta.compile_seconds > 0.0
        graph.set_clock_period(ps(1100), hold_margin=ps(60))
        graph.set_required("k0e0", ps(600))
        graph.set_required("k0e1", ps(80), mode="hold")
        second = session.time(graph)
        assert second.meta.compile_seconds == 0.0
        assert not second.meta.patched_nets
        assert second.worst_slack != first.worst_slack  # constraints applied
        third = session.update(graph)
        assert third.meta.compile_seconds == 0.0

    def test_compiled_cache_holds_its_graph_weakly(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        session.time(graph)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None, "the compiled cache pinned a detached graph"
        assert session._compiled_cache is not None  # slot survives, graph dies


class TestCompiledIncrementalProperty:
    @pytest.mark.parametrize("mode,seed,steps", [
        ("both", 11, 12),
        ("setup", 9, 10),
        ("hold", 26, 10),
    ])
    def test_interleaved_edits_three_way_identical(self, library, solver,
                                                   lines, mode, seed, steps):
        # Identical twins: the compiled incremental engine and the object
        # oracle each consume their own graph's dirty set, so the same edit
        # sequence is replayed onto both copies from per-step seeded rngs.
        twin_compiled = random_dag(random.Random(seed), lines, n_nets=22)
        twin_object = random_dag(random.Random(seed), lines, n_nets=22)
        for twin in (twin_compiled, twin_object):
            twin.set_clock_period(ps(700), hold_margin=ps(50))
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, twin_compiled,
                                                mode=mode)
        oracle = IncrementalEngine(twin_object, library=library, solver=solver)
        cg = refresh_snapshot(engine, twin_compiled, None)
        incremental.update(cg)
        oracle.update()
        applied = []
        for step in range(steps):
            edit_seed = seed * 1009 + step
            kind = random_edit(random.Random(edit_seed), twin_compiled, lines)
            mirror = random_edit(random.Random(edit_seed), twin_object, lines)
            assert kind == mirror  # identical graphs draw identical edits
            if kind is not None:
                applied.append(kind)
            cg = refresh_snapshot(engine, twin_compiled, cg)
            analysis = incremental.update(cg)
            full = engine.analyze_compiled(twin_compiled, compiled=cg,
                                           mode=mode)
            assert_analyses_identical(analysis, full)
            assert_matches_object_oracle(analysis, oracle.update(), mode)
        assert len(set(applied)) >= 3, "the edit mix degenerated"

    def test_noop_update_recomputes_nothing(self, library, solver, lines):
        graph = random_dag(random.Random(41), lines, n_nets=14)
        graph.set_clock_period(ps(700))
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        incremental.update(cg)
        before = solver.stats.snapshot()
        second = incremental.update(cg)
        assert solver.stats.computed == before.computed
        assert solver.stats.memo_hits == before.memo_hits
        assert second.incremental.retimed_nets == 0
        assert second.incremental.required_nets == 0

    def test_convergence_prunes_the_cone(self, library, solver, lines):
        # Re-stating a primary input with its current stimulus dirties the
        # root but changes nothing: the sweep must converge on the root level.
        graph = random_dag(random.Random(13), lines, n_nets=20)
        graph.set_clock_period(ps(700))
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        incremental.update(cg)
        name, primary = next(iter(graph.primary_inputs.items()))
        graph.set_input(name, primary)
        analysis = incremental.update(cg)
        stats = analysis.incremental
        assert stats.dirty_nets == 1
        assert stats.cone_nets == 1  # fanout never activated
        assert stats.cone_converged_early == 1
        assert stats.required_nets == 0
        full = engine.analyze_compiled(graph, compiled=cg, mode="both")
        assert_analyses_identical(analysis, full)


class TestStreamingReportReuse:
    def test_warm_compiled_update_rebuilds_only_the_cone(self, solver, lines):
        graph = random_dag(random.Random(82), lines, n_nets=20)
        graph.set_clock_period(ps(900))
        session = shared_session(solver, compile_threshold=1)
        first = session.update(graph)
        assert isinstance(first, StreamingTimingReport)
        assert first.meta.report_events_rebuilt is None  # full build
        dict(first.events)  # materialize every record into the lazy cache
        target = sorted(graph.nets)[10]
        graph.resize_driver(target, 125.0)
        second = session.update(graph)
        assert second.meta.compile_seconds == 0.0
        assert second.meta.patched_nets
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None and 0 < rebuilt < second.n_events
        changed = session._compiled_incremental.last_changed_nets
        assert changed is not None
        for name in second.events:
            if name not in changed:
                assert second.events[name] is first.events[name]
        # The reused report still equals a full re-flatten, payload for payload.
        full = session.time(graph)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload

    def test_constraint_update_rebuilds_in_full(self, solver, lines):
        graph = random_dag(random.Random(13), lines, n_nets=16)
        graph.set_clock_period(ps(900))
        session = shared_session(solver, compile_threshold=1)
        session.update(graph)
        graph.set_clock_period(ps(800))
        second = session.update(graph)
        # Constraint edits move required times anywhere: no record carry-over.
        assert second.meta.report_events_rebuilt is None
        assert second.meta.retimed_nets == 0
        assert second.meta.compile_seconds == 0.0
        full = session.time(graph)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload
