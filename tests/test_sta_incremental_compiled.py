"""CompiledIncrementalEngine: dirty-cone sweeps on the CSR tier, bit for bit.

The acceptance property: after *any* interleaving of parametric, constraint
and structural edits, a compiled incremental update must equal — exactly, in
every plane — both

* a from-scratch compiled sweep of the same graph state (same engine, same
  memoized solver: identical fingerprints answer with identical solutions, so
  nothing short of bitwise equality is acceptable), and
* a from-scratch object ``GraphEngine.analyze`` of the same graph state.

Next to it, a no-op or constraint-only update makes no solver traffic, a
chain-tail edit re-times only its cone, and topology edits re-time the new
shape.  The file also pins the in-place patching contract
(:meth:`CompiledGraph.patch` equals a fresh compile, writes O(edits) in place,
is atomic, and replaces the endpoint mask only on a flip; topology drift is
rejected), the session cache (constraint-only edit batches never recompile;
the single-slot compiled cache holds its graph weakly), the engine's
double-buffered planes (earlier reports keep describing their state; warm
updates never clone; a failed update leaves the published report intact) and
the streaming report's cone-bounded record reuse, the cone's planned
backward pass against a from-scratch one, deterministic counters of the
per-update floor (one merge step per level the loop visits, no merge or
required-time plan built from the CSR arrays, one solution table per
compiled graph that answers warm updates without a solve request and holds
one row per key), the one update path (every warm update with dirty nets
runs ``incremental_sweep`` once, at perfbench's 1k serve and 10k ECO edit
sites, and a failure inside its loop leaves the next update to re-time in
full), and the engine's own rollback hook.
"""

import gc
import random
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from golden_cases import RANDOM_SEEDS, golden_designs
from test_sta_compiled import drop_constraints, shared_session, wide_fanout_graph
from test_sta_dual_mode import LIBRARY_SIZES, random_dag, random_edit

from repro.api import SessionConfig, StreamingTimingReport, TimingSession
from repro.core import StageSolver
from repro.core.stage_solver import StageRequest
from repro.errors import CharacterizationError, ModelingError
from repro.experiments import parallel_chains, reconvergent_graph, soc_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, PrimaryInput
from repro.sta import batch, incremental_compiled
from repro.sta.compiled import (MergePlan, RequiredPlan, SweepState,
                                backward_required, required_seeds)
from repro.sta.incremental_compiled import CompiledIncrementalEngine
from repro.units import fF, mm, nH, pF, ps

#: perfbench's workload definitions, whose edit sites the update-path gate reads.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


#: Every per-event plane except ``sol_idx``, the row of the compiled graph's
#: solution table: bitwise comparable only between analyses of one snapshot.
PLANES = ("exists", "in_arr", "early_in", "in_slew",
          "src", "early_src", "out_arr", "early_out", "delay", "prop_slew")


def assert_analyses_identical(incremental, full):
    """Two compiled analyses of the same graph state are exactly equal.

    On one compiled snapshot both index its one solution table, so
    ``sol_idx`` is equal too; across snapshots the solutions compare by
    fingerprint.
    """
    for name in PLANES:
        ours, theirs = getattr(incremental.state, name), getattr(full.state, name)
        assert np.array_equal(ours, theirs), f"plane {name} diverged"
    if incremental.graph is full.graph:
        assert incremental.solutions is full.solutions
        assert np.array_equal(incremental.state.sol_idx, full.state.sol_idx)
    for event in np.flatnonzero(incremental.state.exists).tolist():
        ours = incremental.solutions[incremental.state.sol_idx[event]]
        theirs = full.solutions[full.state.sol_idx[event]]
        assert ours.fingerprint == theirs.fingerprint
    assert np.array_equal(incremental.required, full.required, equal_nan=True)
    assert np.array_equal(incremental.hold_required, full.hold_required,
                          equal_nan=True)


def assert_matches_object_oracle(analysis, report):
    """Compiled events equal the object engine's, whole records in every field."""
    assert analysis.net_names_with_events() == [
        name for level in report.levels for name in level if name in report.events]
    for name, per_net in report.events.items():
        assert analysis.events_of(name) == per_net
    assert [analysis.key_of(e) for e in analysis.critical_path_ids()] == (
        report.critical_path)


def refresh_snapshot(engine, graph, cg):
    """The session's patch-vs-recompile decision, inlined for direct drives."""
    if cg is None or cg.topology_version != graph.topology_version:
        return engine.compile(graph)
    if cg.version != graph.version:
        cg.patch(graph, library=engine.library, tech=engine.tech)
    return cg


def assert_patch_matches_fresh_compile(engine, graph, cg):
    """A patched snapshot equals a fresh compile of ``graph``, bit for bit."""
    assert cg.version == graph.version
    fresh = engine.compile(graph)
    assert cg.load.tobytes() == fresh.load.tobytes()
    assert np.array_equal(cg.is_endpoint, fresh.is_endpoint)
    for net_id in range(cg.n_nets):
        ours, theirs = cg.config_id[net_id], fresh.config_id[net_id]
        assert (cg.config_cell[ours].driver_size
                == fresh.config_cell[theirs].driver_size)
        assert (cg.config_line[ours].fingerprint()
                == fresh.config_line[theirs].fingerprint())
        assert cg.config_load[ours] == fresh.config_load[theirs]


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
        assert_patch_matches_fresh_compile(engine, graph, cg)

        # A 300-fanout hub: patch re-sums its load net by net, the compile
        # column by column over all nets; the adds are the same, so the bits.
        graph = wide_fanout_graph(lines)
        cg = engine.compile(graph)
        graph.resize_driver("leaf7", 125.0)
        graph.resize_driver("leaf250", 25.0)
        graph.set_extra_load("hub", fF(3))
        graph.set_receiver("leaf2", 100.0)
        patched = cg.patch(graph, library=engine.library, tech=engine.tech)
        assert patched == 4  # hub (the leaves' fanin) and three leaves
        assert_patch_matches_fresh_compile(engine, graph, cg)

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


    def test_patch_writes_in_place_and_keeps_the_mask(self, library, solver):
        graph = soc_graph(125)
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        load, config_id, is_endpoint = cg.load, cg.config_id, cg.is_endpoint
        graph.resize_driver("k0c0s2", 125.0)
        graph.set_extra_load("k0c3s4", fF(2))
        # The resized net, its fanin (whose load moved) and the re-loaded net.
        assert cg.patch(graph, library=engine.library, tech=engine.tech) == 3
        # O(edits): the planes are written, not copied; no endpoint flipped.
        assert cg.load is load and cg.config_id is config_id
        assert cg.is_endpoint is is_endpoint
        assert_patch_matches_fresh_compile(engine, graph, cg)

    def test_failed_patch_changes_nothing(self, library, solver):
        graph = soc_graph(125)
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        graph.set_extra_load("k0c0s1", fF(3))   # sorts before the bad size
        graph.set_receiver("k0c1s2", 50.0)      # would flip an endpoint
        graph.resize_driver("k0c3s2", 33.0)     # no characterized cell
        planes = ("load", "config_id", "is_endpoint")
        before = {name: getattr(cg, name).tobytes() for name in planes}
        version = cg.version
        with pytest.raises(CharacterizationError):
            cg.patch(graph, library=engine.library, tech=engine.tech)
        assert {name: getattr(cg, name).tobytes() for name in planes} == before
        assert cg.version == version
        graph.resize_driver("k0c3s2", 75.0)
        cg.patch(graph, library=engine.library, tech=engine.tech)
        assert_patch_matches_fresh_compile(engine, graph, cg)

    def test_endpoint_flip_leaves_earlier_analyses_alone(self, library, solver):
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        engine = GraphEngine(library=library, solver=solver)
        cg = engine.compile(graph)
        before = engine.analyze_compiled(graph, compiled_graph=cg)
        endpoints = before.endpoint_event_ids()
        net_id = cg.index["k0c1s2"]
        assert not cg.is_endpoint[net_id]
        graph.set_receiver("k0c1s2", 50.0)  # a receiver makes it an endpoint
        cg.patch(graph, library=engine.library, tech=engine.tech)
        assert cg.is_endpoint[net_id]
        assert not before.is_endpoint[net_id]
        assert np.array_equal(before.endpoint_event_ids(), endpoints)
        after = engine.analyze_compiled(graph, compiled_graph=cg)
        timed = [e for e in (net_id * 2, net_id * 2 + 1) if after.state.exists[e]]
        assert timed
        assert set(after.endpoint_event_ids().tolist()) == (
            set(endpoints.tolist()) | set(timed))


class TestSessionCache:
    def test_constraint_only_batches_never_recompile(self, solver):
        session = shared_session(solver)
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
        session = shared_session(solver)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        session.time(graph)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None, "the compiled cache pinned a detached graph"
        assert session._compiled_cache is not None  # slot survives, graph dies


class TestCompiledIncrementalProperty:
    @pytest.mark.parametrize("seed,steps", [(11, 12), (9, 10), (26, 10)])
    def test_interleaved_edits_three_way_identical(self, library, solver,
                                                   lines, seed, steps,
                                                   level_step):
        # Every step: the compiled update against a from-scratch compiled
        # sweep of its snapshot and a from-scratch object analysis.
        graph = random_dag(random.Random(seed), lines, n_nets=22)
        graph.set_clock_period(ps(700), hold_margin=ps(50))
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = refresh_snapshot(engine, graph, None)
        incremental.update(cg)
        applied = []
        for step in range(steps):
            kind = random_edit(random.Random(seed * 1009 + step), graph, lines)
            if kind is not None:
                applied.append(kind)
            cg = refresh_snapshot(engine, graph, cg)
            analysis = incremental.update(cg)
            full = engine.analyze_compiled(graph, compiled_graph=cg)
            assert_analyses_identical(analysis, full)
            assert_matches_object_oracle(analysis, engine.analyze(graph))
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
        assert stats.retimed_nets == 1  # fanout never activated
        assert stats.cone_converged_early == 1
        assert stats.required_nets == 0
        full = engine.analyze_compiled(graph, compiled_graph=cg)
        assert_analyses_identical(analysis, full)


    def test_constraint_edit_is_arithmetic_only(self, library, solver, lines):
        graph = reconvergent_graph(line=lines[0])
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        incremental.update(cg)
        for period, hold_margin in ((ps(500), None), (ps(500), ps(80))):
            graph.set_clock_period(period, hold_margin=hold_margin)
            before = solver.stats.snapshot()
            analysis = incremental.update(cg)
            # Zero solver traffic, not even memo hits: the backward pass only.
            assert solver.stats.computed == before.computed
            assert solver.stats.memo_hits == before.memo_hits
            stats = analysis.incremental
            assert stats.retimed_nets == 0
            assert stats.required_nets == len(graph)
            assert stats.hold_required_nets == (
                len(graph) if hold_margin is not None else 0)
            assert_analyses_identical(
                analysis, engine.analyze_compiled(graph, compiled_graph=cg))
            assert_matches_object_oracle(analysis, engine.analyze(graph))

    def test_cone_stays_local_on_chain_tail_edit(self, library, solver, lines):
        graph = parallel_chains(3, 4, lines=[lines[0]], input_slew=ps(100))
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        incremental.update(cg)
        graph.resize_driver("c1s3", 50.0)  # tail of chain 1: dirties c1s2 too
        cg = refresh_snapshot(engine, graph, cg)
        analysis = incremental.update(cg)
        assert analysis.incremental.dirty_nets == 2
        assert analysis.incremental.retimed_nets == 2  # c1s2, c1s3 — nobody else
        assert_matches_object_oracle(analysis, engine.analyze(graph))

    def test_structural_edits_retime_new_topology(self, library, solver, lines):
        graph = reconvergent_graph(line=lines[0])
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        base = incremental.update(cg)
        assert set(base.events_of("sink")) == {"rise", "fall"}
        before = engine.analyze(graph)
        # Cutting the long branch removes the sink's second transition...
        graph.remove_fanout("long_b", "sink")
        cg = refresh_snapshot(engine, graph, cg)
        after_cut = incremental.update(cg)
        assert set(after_cut.events_of("sink")) == {"rise"}
        assert_matches_object_oracle(after_cut, engine.analyze(graph))
        # ...and reconnecting restores it.
        graph.add_fanout("long_b", "sink")
        cg = refresh_snapshot(engine, graph, cg)
        assert_matches_object_oracle(incremental.update(cg), before)


class TestStreamingReportReuse:
    def test_warm_compiled_update_rebuilds_only_the_cone(self, solver, lines,
                                                         level_step):
        graph = random_dag(random.Random(82), lines, n_nets=20)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
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
        changed = session._incremental.last_changed_nets
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
        session = shared_session(solver)
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

    def test_endpoint_slacks_after_updates_match_fresh_time(self, solver, lines):
        graph = random_dag(random.Random(33), lines, n_nets=14)
        graph.set_clock_period(ps(700), hold_margin=ps(40))
        session = shared_session(solver)
        report = session.update(graph)
        for name in sorted(graph.nets)[:4]:
            report.endpoint_slacks()  # fill the lazy cache the next update reuses
            report.endpoint_slacks(mode="hold")
            size = graph.nets[name].driver_size
            graph.resize_driver(name, 100.0 if size == 125.0 else 125.0)
            report = session.update(graph)
        fresh = shared_session(solver).time(graph)
        for mode in ("setup", "hold"):
            table = report.endpoint_slacks(mode=mode)
            assert table and table == fresh.endpoint_slacks(mode=mode)
            assert [event.slack_for(mode) for event in table] == [
                event.slack_for(mode) for event in fresh.endpoint_slacks(mode=mode)]


#: Chain-stage drivers in four distinct clusters of the 1k SoC design.
SOC_SITES = ("k0c0s2", "k3c5s2", "k5c9s3", "k7c12s1")


def soc_design():
    graph = soc_graph(1000)
    graph.set_clock_period(ps(1500), hold_margin=0.0)
    return graph


def toggle(graph, net):
    size = graph.nets[net].driver_size
    graph.resize_driver(net, 100.0 if size == 125.0 else 125.0)


def plane_bytes(analysis):
    """Every plane of ``analysis``, as bytes (a frozen capture)."""
    captured = {name: getattr(analysis.state, name).tobytes()
                for name in PLANES + ("sol_idx",)}
    captured["required"] = analysis.required.tobytes()
    captured["hold_required"] = analysis.hold_required.tobytes()
    return captured


def assert_same_planes(update, full):
    """Every plane of an update and a re-time of one snapshot, ``sol_idx`` too."""
    for name in PLANES + ("sol_idx",):
        assert (getattr(update.analysis.state, name).tobytes()
                == getattr(full.analysis.state, name).tobytes()), name
    for name in ("required", "hold_required"):
        assert (getattr(update.analysis, name).tobytes()
                == getattr(full.analysis, name).tobytes()), name


class TestDoubleBufferedPlanes:
    """Updates sweep a spare plane buffer; nothing issued earlier may see it."""

    @pytest.mark.parametrize("held", ["report", "view", "required"])
    def test_earlier_reports_keep_describing_their_state(self, solver, held):
        graph = soc_design()
        session = shared_session(solver)
        session.update(graph)
        for net in SOC_SITES[:2]:  # warm: both plane buffers exist
            toggle(graph, net)
            session.update(graph)
        toggle(graph, SOC_SITES[2])
        report = session.update(graph)
        captured = plane_bytes(report.analysis)
        view = report.analysis.state.out_arr[::2]
        kept = {"report": report, "view": view,
                "required": report.analysis.required}[held]
        del report, view
        for net in SOC_SITES * 2:  # eight more edits, their reports dropped
            toggle(graph, net)
            session.update(graph)
        if held == "report":
            assert plane_bytes(kept.analysis) == captured
        elif held == "view":
            assert kept.tobytes() == np.frombuffer(
                captured["out_arr"], dtype=np.float64)[::2].tobytes()
        else:
            assert kept.tobytes() == captured["required"]

    def test_warm_updates_never_clone(self, solver, monkeypatch, level_step):
        clones = []
        clone = SweepState.clone

        def counting_clone(state):
            clones.append(None)
            return clone(state)

        monkeypatch.setattr(SweepState, "clone", counting_clone)
        graph = soc_design()
        session = shared_session(solver)
        session.update(graph)
        toggle(graph, SOC_SITES[0])
        session.update(graph)  # the first spare buffer is a clone
        clones.clear()
        edits = [
            lambda: toggle(graph, SOC_SITES[1]),
            lambda: graph.set_receiver("k2c4s2", 50.0),  # flips an endpoint
            lambda: graph.set_required("k1c2s5", ps(900)),
            lambda: toggle(graph, SOC_SITES[2]),
            lambda: graph.set_clock_period(ps(1400), hold_margin=ps(5)),
            lambda: toggle(graph, SOC_SITES[0]),
            lambda: graph.add_fanout("k4c0s1", "k4c1s4"),  # recompiles
            lambda: toggle(graph, SOC_SITES[3]),
            lambda: graph.set_receiver("k2c4s2", None),  # flips it back
            lambda: toggle(graph, SOC_SITES[1]),
            lambda: graph.set_required("k1c2s5", None),
            lambda: toggle(graph, SOC_SITES[2]),
        ]
        for edit in edits:
            edit()
            report = session.update(graph)
            assert_same_planes(report, session.time(graph))
        assert not clones

    def test_failed_update_leaves_the_published_report_intact(
            self, solver, monkeypatch):
        graph = soc_design()
        session = shared_session(solver)
        session.update(graph)
        for net in SOC_SITES[:2]:
            toggle(graph, net)
            published = session.update(graph)
        captured = plane_bytes(published.analysis)
        solve_level = GraphEngine._solve_compiled_level
        calls = []

        def fail_once(engine, *args):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("injected solve failure")
            return solve_level(engine, *args)

        monkeypatch.setattr(GraphEngine, "_solve_compiled_level", fail_once)
        toggle(graph, SOC_SITES[2])
        with pytest.raises(RuntimeError, match="injected"):
            session.update(graph)
        assert plane_bytes(published.analysis) == captured
        toggle(graph, SOC_SITES[3])
        assert_same_planes(session.update(graph), session.time(graph))

    def test_restimulated_update_after_a_re_time_matches_it(self, solver,
                                                            level_step):
        # A root's other transition changes which events exist, and the
        # re-time caches the sweep plan of the new ones: the update must
        # install that plan's events over the spare, which holds the old.
        graph = soc_design()
        session = shared_session(solver)
        session.update(graph)
        toggle(graph, SOC_SITES[0])
        session.update(graph)
        root = sorted(graph.primary_inputs)[0]
        primary = graph.primary_inputs[root]
        graph.set_input(root, PrimaryInput(
            slew=primary.slew, arrival=primary.arrival,
            transition="rise" if primary.transition == "fall" else "fall"))
        session.time(graph)
        assert_same_planes(session.update(graph), session.time(graph))


def required_plan_edit(rng, graph, modes, step):
    """One edit of the required-plan property: every third a constraint edit.

    Constraint edits stay inside ``modes`` (the constrained polarities) and
    include clock removal; step 4 re-stimulates a root with the other
    transition, which makes its old events (and their cone's) vanish.
    Parameter edits resize to 75X and up and swap receivers only on nets
    driven at 75X and up: a resize to a smaller driver, or a receiver swap
    on one, can abort these designs' re-time on the far-end window defect
    (ROADMAP item 6), which ``test_api.TestFarEndWindowDefect`` pins on
    ``chain3``.
    """
    if step % 3 == 2:
        mode = rng.choice(modes)
        if rng.random() < 0.5:
            graph.set_required(rng.choice(graph.endpoints),
                               rng.choice([None, ps(250), ps(450)]),
                               transition=rng.choice([None, "rise", "fall"]),
                               mode=mode)
        elif mode == "setup":
            graph.set_clock_period(None if graph.clock_period else ps(700),
                                   hold_margin=graph.hold_margin)
        else:
            graph.set_clock_period(graph.clock_period, hold_margin=(
                None if graph.hold_margin is not None else ps(30)))
    elif step == 4:
        root, primary = sorted(graph.primary_inputs.items())[0]
        graph.set_input(root, PrimaryInput(
            slew=primary.slew, arrival=primary.arrival,
            transition="rise" if primary.transition == "fall" else "fall"))
    elif rng.random() < 0.7:
        graph.resize_driver(rng.choice(sorted(graph.nets)),
                            rng.choice(LIBRARY_SIZES[2:]))
    else:
        name = rng.choice([name for name, net in sorted(graph.nets.items())
                           if net.driver_size >= 75.0])
        try:
            graph.set_receiver(name, rng.choice([None, 25.0]))
        except ModelingError:
            pass


class TestRequiredPlan:
    """The cone's one-plan backward pass equals a from-scratch one, bit for bit."""

    @pytest.mark.parametrize("constrained", ["setup", "hold", "both"])
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_cone_plan_matches_a_full_backward_pass(
            self, library, solver, monkeypatch, seed, constrained, level_step):
        graph = dict(golden_designs())[f"random{seed}"]()
        modes = ("setup", "hold") if constrained == "both" else (constrained,)
        for mode in ("setup", "hold"):
            if mode not in modes:
                drop_constraints(graph, mode)
        cones = []
        cone_pass = incremental_compiled.incremental_required

        def recording(*args):
            cones.append(cone_pass(*args))
            return cones[-1]

        monkeypatch.setattr(incremental_compiled, "incremental_required",
                            recording)
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = refresh_snapshot(engine, graph, None)
        exists = incremental.update(cg).state.exists.copy()
        rng = random.Random(seed)
        vanished = 0
        for step in range(10):
            required_plan_edit(rng, graph, modes, step)
            cg = refresh_snapshot(engine, graph, cg)
            analysis = incremental.update(cg)
            vanished += int(np.count_nonzero(exists & ~analysis.state.exists))
            exists = analysis.state.exists.copy()
            required, hold_required = backward_required(
                cg, analysis.state, *required_seeds(cg, graph))
            assert analysis.required.tobytes() == required.tobytes()
            assert analysis.hold_required.tobytes() == hold_required.tobytes()
            assert_analyses_identical(
                analysis, engine.analyze_compiled(graph, compiled_graph=cg))
        assert vanished, "no edit made an event vanish"
        assert len(cones) >= 4 and max(cone.size for cone in cones) > 1


class TestPerUpdateFloor:
    """Host-independent counters of what one warm update pays per level.

    The floor of an edit->update() cycle is per-level call overhead, not
    cone work, so these count calls rather than time them: one merge step
    per level the cone visits (no call for the levels in between), and no
    solve request for a key the compiled graph's solution table already
    holds.
    """

    def test_one_merge_step_per_visited_level(self, solver, monkeypatch):
        graph = soc_graph(10_000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        session = shared_session(solver)
        session.update(graph)
        merges, sweeps = [], []
        merge = batch.merge_level
        sweep = incremental_compiled.incremental_sweep

        def counting_merge(*args):
            merges.append(None)
            return merge(*args)

        def recording_sweep(cg, *args, **kwargs):
            sweeps.append((cg, sweep(cg, *args, **kwargs)))
            return sweeps[-1][1]

        monkeypatch.setattr(batch, "merge_level", counting_merge)
        monkeypatch.setattr(incremental_compiled, "incremental_sweep",
                            recording_sweep)
        sites = [f"k{k}{local}" for k in (3, 17, 29, 44, 71)
                 for local in ("m1", "l6", "c2s1", "c9s4")]
        deepest = 0
        for site in sites:  # 20 single-resize updates
            merges.clear(), sweeps.clear()
            toggle(graph, site)
            session.update(graph)
            (cg, delta), = sweeps
            levels = np.unique(np.searchsorted(cg.level_ptr, delta.visited,
                                               side="right"))
            assert len(merges) == levels.size
            deepest = max(deepest, int(levels.size))
        assert deepest >= 3  # cones span levels: extra merge steps would show

    def test_updates_share_one_solution_table(self, solver, monkeypatch):
        # The per-transition event options and the solution table are
        # derived once per (options, slew thresholds) on the compiled graph,
        # not on every update, and every update solves through that table.
        graph = soc_graph(1000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        session = shared_session(solver)
        session.update(graph)
        engine = session._engine
        cg = session._compiled_cache[1]
        tables = dict(cg.solution_tables)
        table = cg.solution_table(engine.options, engine.solver)
        options = table.options
        seen = []
        solve_level = engine._solve_compiled_level

        def recording_solve(cg, table, state, events):
            seen.append(table)
            solve_level(cg, table, state, events)

        monkeypatch.setattr(engine, "_solve_compiled_level", recording_solve)
        for site in ("k1m1", "k3c2s1"):
            toggle(graph, site)
            session.update(graph)
        assert len(seen) >= 2 and all(used is table for used in seen)
        assert table.options is options
        assert cg.solution_tables == tables

    def test_warm_sweeps_build_no_stage_request(self, solver, monkeypatch):
        # Every key of a warm update and of a warm re-time is a row of the
        # compiled graph's solution table: neither calls solve_batch nor
        # builds a StageRequest, and the rows still count as memo hits.
        graph = soc_graph(10_000)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        session = shared_session(solver)
        session.update(graph)
        for _ in range(2):  # both sizes of the site are solved
            toggle(graph, "k3m1")
            session.update(graph)
        calls = {"solve_batch": 0, "request": 0}
        solve_batch = StageSolver.solve_batch
        request = StageRequest.__init__

        def counting_solve_batch(*args):
            calls["solve_batch"] += 1
            return solve_batch(*args)

        def counting_request(*args, **kwargs):
            calls["request"] += 1
            request(*args, **kwargs)

        monkeypatch.setattr(StageSolver, "solve_batch", counting_solve_batch)
        monkeypatch.setattr(StageRequest, "__init__", counting_request)
        toggle(graph, "k3m1")
        update = session.update(graph)
        retime = session.time(graph)
        assert calls == {"solve_batch": 0, "request": 0}
        for meta in (update.meta, retime.meta):
            assert meta.memo_hits > 0 and meta.computed == 0
        assert update.meta.retimed_nets > 1

    def test_toggling_updates_add_a_row_per_distinct_key(self, solver):
        # 200 updates toggle four sites back and forth: the table ends with
        # exactly one row per (config, transition, slew) key any of the
        # analyses solved, however many updates asked for it again.
        graph = soc_design()
        session = shared_session(solver)
        analysis = session.update(graph).analysis
        cg = analysis.graph
        keys = set()
        for step in range(201):
            if step:
                toggle(graph, SOC_SITES[step % len(SOC_SITES)])
                analysis = session.update(graph).analysis
            events = analysis.event_ids()
            keys.update(zip(cg.config_id[events >> 1].tolist(),
                            (events & 1).tolist(),
                            analysis.state.in_slew[events].tolist()))
        table = cg.solution_table(session._engine.options, solver)
        assert analysis.graph is cg and analysis.solutions is table.solutions
        assert len(table.solutions) == len(table.rows) == len(keys)
        assert len({solution.fingerprint for solution in table.solutions}) == len(keys)


#: Bytes a solution-table row may add to the table.  A scalar-only row
#: costs ~1 KB; one that keeps the stage's modeled waveform and far-end
#: response costs tens of KB.
ROW_KB_CEILING = 4.0


def reachable_bytes(*roots):
    """``sys.getsizeof`` summed over every object reachable from ``roots``
    (an array's buffer included), each counted once; classes, modules and
    functions are not followed."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen, total, stack = set(), 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class TestScalarOnlyRows:
    """Solution-table rows hold scalars: a long edit session stays small."""

    def test_load_edits_add_kilobytes_per_row(self):
        # Each distinct load of a tree root re-solves its cone at new slews:
        # ~31 new rows per update, which every later update keeps.  Only what
        # the table itself gains is counted, not the planes or caches the
        # updates allocate beside it.
        graph = soc_design()
        session = shared_session(StageSolver())
        cg = session.update(graph).analysis.graph
        table = cg.solution_table(session._engine.options, session.solver)
        rows, before = len(table.solutions), reachable_bytes(table)
        for step in range(4):
            graph.set_extra_load("k3m1", fF(2 + 0.37 * step))
            session.update(graph)
        added = len(table.solutions) - rows
        assert added >= 100
        assert (reachable_bytes(table) - before) / added / 1024 <= ROW_KB_CEILING
        assert not any(solution.has_waveforms for solution in table.solutions)


class TestOneUpdatePath:
    """Every warm update runs the one loop, on the plans the full sweep keeps.

    Host-independent counters: a warm update with dirty nets calls
    ``incremental_sweep`` exactly once and builds no :class:`MergePlan` or
    :class:`RequiredPlan` from the CSR arrays (it restricts the planned
    ones), at every site perfbench edits: its 1k serve sites and its 10k
    ECO sites.
    """

    @staticmethod
    def counted(monkeypatch):
        calls = {"sweep": 0, "MergePlan": 0, "RequiredPlan": 0}
        sweep = incremental_compiled.incremental_sweep

        def counting_sweep(*args, **kwargs):
            calls["sweep"] += 1
            return sweep(*args, **kwargs)

        monkeypatch.setattr(incremental_compiled, "incremental_sweep",
                            counting_sweep)
        for cls in (MergePlan, RequiredPlan):
            def counting_init(plan, *args, _init=cls.__init__, _name=cls.__name__):
                calls[_name] += 1
                _init(plan, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)
        return calls

    @pytest.mark.parametrize("nets", [1000, 10_000])
    def test_every_perfbench_edit_sweeps_once_on_the_plans(self, solver,
                                                           monkeypatch, nets):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        sites = (workloads.SERVE_SITE_LOCALS if nets == 1000
                 else workloads.SITE_LOCALS)
        graph = soc_graph(nets)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        session = shared_session(solver)
        session.update(graph)
        calls = self.counted(monkeypatch)
        for cluster, local in enumerate(sites):
            site = f"k{cluster % (nets // 125)}{local}"
            graph.resize_driver(site,
                                workloads.TOGGLE[graph.nets[site].driver_size])
            sweeps = calls["sweep"]
            report = session.update(graph)
            assert calls["sweep"] == sweeps + 1
            assert report.meta.retimed_nets < len(graph)
            assert 0 < report.meta.report_events_rebuilt < report.n_events
        graph.set_clock_period(ps(1400), hold_margin=0.0)  # no dirty net
        session.update(graph)
        assert calls == {"sweep": len(sites), "MergePlan": 0, "RequiredPlan": 0}

    def test_a_failure_inside_the_loop_retimes_in_full_next(self, library, solver,
                                                            monkeypatch):
        # No transaction: only the engine's own invalidate() can keep the
        # next update off the planes the failed loop half wrote.
        graph = soc_design()
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = refresh_snapshot(engine, graph, None)
        incremental.update(cg)
        step = GraphEngine._sweep_compiled_level
        calls = []

        def fail_on_the_second_step(*args):
            calls.append(None)
            events = step(*args)
            if len(calls) == 2:
                raise RuntimeError("injected level-step failure")
            return events

        monkeypatch.setattr(GraphEngine, "_sweep_compiled_level",
                            fail_on_the_second_step)
        toggle(graph, SOC_SITES[0])
        cg = refresh_snapshot(engine, graph, cg)
        with pytest.raises(RuntimeError, match="injected"):
            incremental.update(cg)
        analysis = incremental.update(cg)
        assert analysis.incremental.retimed_nets == len(graph)
        fresh = shared_session(solver).time(graph).analysis
        assert_analyses_identical(analysis, fresh)
        assert plane_bytes(analysis) == plane_bytes(
            engine.analyze_compiled(graph, compiled_graph=cg))


class TestRollbackHook:
    """A directly used engine drops its planes when a transaction rolls back."""

    def test_update_inside_a_rolled_back_block_retimes_in_full(
            self, library, solver):
        graph = dict(golden_designs())["random29"]()
        engine = GraphEngine(library=library, solver=solver)
        incremental = CompiledIncrementalEngine(engine, graph)
        cg = engine.compile(graph)
        incremental.update(cg)
        root = sorted(graph.primary_inputs)[0]
        primary = graph.primary_inputs[root]
        with pytest.raises(RuntimeError):
            with graph.transaction():
                # Edits a compiled snapshot never sees: cg stays current.
                graph.set_clock_period(ps(350), hold_margin=ps(5))
                graph.set_input(root, PrimaryInput(
                    slew=primary.slew * 2, arrival=ps(40),
                    transition="rise" if primary.transition == "fall" else "fall"))
                inside = incremental.update(cg)
                assert inside.incremental.retimed_nets < len(graph)
                raise RuntimeError("reject the block")
        assert cg.version == graph.version
        analysis = incremental.update(cg)
        assert analysis.incremental.retimed_nets == len(graph)  # in full
        fresh = engine.analyze_compiled(graph, compiled_graph=engine.compile(graph))
        assert_analyses_identical(analysis, fresh)
        assert plane_bytes(analysis) == plane_bytes(fresh)
